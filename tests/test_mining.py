from __future__ import annotations

import pytest

from pairqa.errors import ContractViolation, PipelineError
from pairqa.mining import (
    Config,
    ConfigOutcome,
    LabelKind,
    SilverLabel,
    Verdict,
    audit_records,
    consistency_verdict,
    emit_training_records,
    evidentiality_verdict,
    mine_question,
)

from conftest import make_example

GOLD = "gold entity"
WRONG = "wrong entity"
PIVOT = "the pivotal passage states gold entity"
FILLER = ["filler passage one", "filler passage two"]
GOOD_LP = "a faithful account of gold entity"
BAD_LP = "a hallucinated account of wrong entity"
EVIDENTIALITY = {LabelKind.EVIDENTIALITY}
CONSISTENCY = {LabelKind.CONSISTENCY}
BOTH = EVIDENTIALITY | CONSISTENCY


def pivot_example(generated=(GOOD_LP, BAD_LP)):
    return make_example(
        answers=(GOLD,),
        retrieved_texts=(PIVOT, *FILLER),
        generated_texts=generated,
    )


class ScriptedPredictor:
    """Set-based predictor: correct iff some supporting text (the pivotal
    retrieved passage or the faithful generated one) is present and no
    hallucinated generated text is present. Mirrors the misled-reader
    behavior the mining protocol is designed to detect."""

    def __init__(self):
        self.calls = []

    def predict(self, req):
        self.calls.append(req)
        blocks = " || ".join(req.passages)
        supported = PIVOT in blocks or GOOD_LP in blocks
        if supported and BAD_LP not in blocks:
            return GOLD
        return WRONG

    def calls_with_generated(self):
        return [c for c in self.calls if GOOD_LP in " ".join(c.passages) or BAD_LP in " ".join(c.passages)]


class TestVerdictRules:
    def test_evidentiality_rules(self):
        assert evidentiality_verdict(True, False) is Verdict.POSITIVE
        assert evidentiality_verdict(False, True) is Verdict.NEGATIVE
        assert evidentiality_verdict(True, True) is Verdict.UNDETERMINED
        assert evidentiality_verdict(False, False) is Verdict.UNDETERMINED

    def _outcomes(self, i, ii, iii=None, iv=None):
        outcomes = [
            ConfigOutcome(Config.I_FULL, "x", i),
            ConfigOutcome(Config.II_DROP_RP, "x", ii),
        ]
        if iii is not None:
            outcomes.append(ConfigOutcome(Config.III_ADD_LP, "x", iii))
        if iv is not None:
            outcomes.append(ConfigOutcome(Config.IV_SWAP_LP_FOR_RP, "x", iv))
        return outcomes

    def test_consistent_pattern(self):
        assert consistency_verdict(self._outcomes(True, False, True, True)) is Verdict.POSITIVE

    def test_conflicting_pattern(self):
        assert consistency_verdict(self._outcomes(True, False, False, False)) is Verdict.NEGATIVE

    def test_gate_not_met(self):
        assert consistency_verdict(self._outcomes(False, False)) is Verdict.UNDETERMINED
        assert consistency_verdict(self._outcomes(True, True)) is Verdict.UNDETERMINED

    def test_mixed_is_undetermined(self):
        assert consistency_verdict(self._outcomes(True, False, True, False)) is Verdict.UNDETERMINED
        assert consistency_verdict(self._outcomes(True, False, False, True)) is Verdict.UNDETERMINED


class TestMineEvidentiality:
    def test_pivot_is_positive_fillers_undetermined(self):
        example = pivot_example()
        labels = mine_question(example, ScriptedPredictor(), EVIDENTIALITY)
        assert [l.verdict for l in labels] == [
            Verdict.POSITIVE,
            Verdict.UNDETERMINED,
            Verdict.UNDETERMINED,
        ]
        assert all(l.kind is LabelKind.EVIDENTIALITY and l.lp_index is None for l in labels)

    def test_misleading_passage_is_negative(self):
        class MisledPredictor:
            def predict(self, req):
                return WRONG if PIVOT in " ".join(req.passages) else GOLD

        labels = mine_question(pivot_example(), MisledPredictor(), EVIDENTIALITY)
        assert labels[0].verdict is Verdict.NEGATIVE
        assert labels[1].verdict is Verdict.UNDETERMINED

    def test_requires_two_passages(self):
        example = make_example(retrieved_texts=("only one",))
        with pytest.raises(ContractViolation):
            mine_question(example, ScriptedPredictor(), EVIDENTIALITY)

    def test_predictor_failure_yields_undetermined_with_note(self, caplog):
        class Failing:
            def __init__(self):
                self.count = 0

            def predict(self, req):
                self.count += 1
                if self.count > 1:
                    raise PipelineError("service down")
                return GOLD

        labels = mine_question(pivot_example(), Failing(), EVIDENTIALITY)
        assert all(l.verdict is Verdict.UNDETERMINED for l in labels)
        # each failed reader call logs one warning naming its error
        assert [r.levelname for r in caplog.records] == ["WARNING"] * len(labels)
        assert all("service down" in r.getMessage() for r in caplog.records)


class TestMineConsistency:
    def test_verdicts_against_ground_truth(self):
        example = pivot_example()
        predictor = ScriptedPredictor()
        labels = mine_question(example, predictor, CONSISTENCY)
        by_pair = {(l.lp_index, l.rp_index): l.verdict for l in labels}
        assert by_pair[(0, 0)] is Verdict.POSITIVE  # faithful lp, pivotal rp
        assert by_pair[(1, 0)] is Verdict.NEGATIVE  # hallucinated lp, pivotal rp
        for j in (1, 2):
            assert by_pair[(0, j)] is Verdict.UNDETERMINED
            assert by_pair[(1, j)] is Verdict.UNDETERMINED

    def test_generated_calls_only_behind_the_gate(self):
        example = pivot_example()
        predictor = ScriptedPredictor()
        mine_question(example, predictor, CONSISTENCY)
        # gate holds only for rp 0, so III+IV appear once per generated passage
        gated_pairs = example.m  # (i, pivot) for each i
        assert len(predictor.calls_with_generated()) == 2 * gated_pairs

    def test_call_count_bound(self):
        example = pivot_example()
        predictor = ScriptedPredictor()
        labels = mine_question(example, predictor, CONSISTENCY)
        gated = sum(
            1
            for l in labels
            if any(o.config is Config.IV_SWAP_LP_FOR_RP for o in l.outcomes)
        )
        assert len(predictor.calls) <= example.n + 1 + 2 * gated

    def test_always_wrong_predictor_issues_no_extra_calls(self):
        class AlwaysWrong:
            def __init__(self):
                self.calls = 0

            def predict(self, req):
                self.calls += 1
                return WRONG

        example = pivot_example()
        predictor = AlwaysWrong()
        labels = mine_question(example, predictor, CONSISTENCY)
        assert all(l.verdict is Verdict.UNDETERMINED for l in labels)
        assert predictor.calls == 1 + example.n  # I once, II per retrieved passage

    def test_both_kinds_share_one_pass(self):
        example = pivot_example()
        predictor = ScriptedPredictor()
        labels = mine_question(example, predictor, BOTH)
        gated = example.m  # (i, pivot) for each generated passage
        assert len(predictor.calls) == 1 + example.n + 2 * gated
        assert [(l.lp_index, l.rp_index) for l in labels[example.n :]] == [
            (i, j) for i in range(example.m) for j in range(example.n)
        ]
        assert labels[: example.n] == mine_question(example, ScriptedPredictor(), EVIDENTIALITY)
        assert labels[example.n :] == mine_question(example, ScriptedPredictor(), CONSISTENCY)

    def test_verdict_purity(self):
        labels = mine_question(pivot_example(), ScriptedPredictor(), CONSISTENCY)
        for label in labels:
            assert consistency_verdict(label.outcomes) is label.verdict

    def test_label_invariants(self):
        with pytest.raises(ContractViolation):
            SilverLabel(
                question_id="q",
                kind=LabelKind.CONSISTENCY,
                rp_index=0,
                verdict=Verdict.POSITIVE,
                outcomes=(),
            )
        with pytest.raises(ContractViolation):
            SilverLabel(
                question_id="q",
                kind=LabelKind.EVIDENTIALITY,
                rp_index=0,
                lp_index=1,
                verdict=Verdict.POSITIVE,
                outcomes=(),
            )


def _evid_label(qid, j, verdict):
    return SilverLabel(
        question_id=qid,
        kind=LabelKind.EVIDENTIALITY,
        rp_index=j,
        verdict=verdict,
        outcomes=(ConfigOutcome(Config.I_FULL, "p", True),),
    )


class TestEmitTrainingRecords:
    def test_counts_per_class(self, tmp_path):
        example = pivot_example()
        labels = [
            _evid_label("q1", 0, Verdict.POSITIVE),
            _evid_label("q1", 1, Verdict.POSITIVE),
            _evid_label("q1", 2, Verdict.POSITIVE),
            _evid_label("q1", 0, Verdict.NEGATIVE),
            _evid_label("q1", 1, Verdict.NEGATIVE),
        ]
        out = tmp_path / "labels.jsonl"
        counts = emit_training_records(labels, out, [example])
        assert counts == {1: 3, 0: 2}
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        import json

        record = json.loads(lines[0])
        assert set(record) == {"question", "retrieved", "label"}

    def test_all_undetermined_writes_empty_file(self, tmp_path):
        labels = [_evid_label("q1", j, Verdict.UNDETERMINED) for j in range(3)]
        out = tmp_path / "labels.jsonl"
        counts = emit_training_records(labels, out, [pivot_example()])
        assert counts == {1: 0, 0: 0}
        assert out.read_text() == ""

    def test_audit_covers_every_outcome(self):
        predictor = ScriptedPredictor()
        labels = mine_question(pivot_example(), predictor, BOTH)
        records = list(audit_records(labels))
        assert len(records) == len(predictor.calls)
        assert all(
            set(r) == {"question_id", "config", "lp_index", "rp_index", "prediction", "correct"} for r in records
        )
        by_call = {
            (r["config"], r["lp_index"], r["rp_index"]): ConfigOutcome(Config(r["config"]), r["prediction"], r["correct"])
            for r in records
        }
        assert len(by_call) == len(records)
        for label in labels:
            i, j = label.lp_index, label.rp_index
            full, drop = by_call[("I", None, None)], by_call[("II", None, j)]
            if label.kind is LabelKind.EVIDENTIALITY:
                assert evidentiality_verdict(full.correct, drop.correct) is label.verdict
            else:
                extra = [by_call[k] for k in (("III", i, None), ("IV", i, j)) if k in by_call]
                assert consistency_verdict([full, drop, *extra]) is label.verdict
