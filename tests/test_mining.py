from __future__ import annotations

import itertools

import pytest

from pairqa.errors import ContractViolation, PipelineError
from pairqa.mining import (
    Config,
    ConfigOutcome,
    LabelKind,
    SilverLabel,
    Verdict,
    audit_record,
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
LINK = "the linking passage names the entity"
AUDIT_LISTS = ("config", "lp_index", "rp_index", "prediction", "correct")  # an audit record's lists, in order


def labels_of(kind, example, predictor):
    """The labels of one kind from one mining pass, in the order it returns them."""
    return [label for label in mine_question(example, predictor)[0] if label.kind is kind]


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
        """The I, II, III and IV outcomes of a pair, None where a correctness is None."""
        return tuple(
            None if correct is None else ConfigOutcome(config, "x", correct)
            for config, correct in zip(Config, (i, ii, iii, iv))
        )

    def test_consistent_pattern(self):
        assert consistency_verdict(*self._outcomes(True, False, True, True)) is Verdict.POSITIVE

    def test_conflicting_pattern(self):
        assert consistency_verdict(*self._outcomes(True, False, False, False)) is Verdict.NEGATIVE

    def test_gate_not_met(self):
        assert consistency_verdict(*self._outcomes(False, False)) is Verdict.UNDETERMINED
        assert consistency_verdict(*self._outcomes(True, True)) is Verdict.UNDETERMINED

    def test_mixed_is_undetermined(self):
        assert consistency_verdict(*self._outcomes(True, False, True, False)) is Verdict.UNDETERMINED
        assert consistency_verdict(*self._outcomes(True, False, False, True)) is Verdict.UNDETERMINED

    @staticmethod
    def _dict_rule(outcomes):
        """The reference rule, read from a dict of the outcomes that exist, by configuration."""
        by_config = {o.config: o.correct for o in outcomes if o is not None}
        if Config.I_FULL not in by_config or Config.II_DROP_RP not in by_config:
            return Verdict.UNDETERMINED
        gate = by_config[Config.I_FULL] and not by_config[Config.II_DROP_RP]
        if not gate or Config.III_ADD_LP not in by_config or Config.IV_SWAP_LP_FOR_RP not in by_config:
            return Verdict.UNDETERMINED
        iii, iv = by_config[Config.III_ADD_LP], by_config[Config.IV_SWAP_LP_FOR_RP]
        if iii and iv:
            return Verdict.POSITIVE
        if not iii and not iv:
            return Verdict.NEGATIVE
        return Verdict.UNDETERMINED

    @pytest.mark.parametrize("i, ii, iii, iv", list(itertools.product((True, False, None), repeat=4)))
    def test_every_outcome_combination_agrees_with_the_dict_rule(self, i, ii, iii, iv):
        """I, II, III and IV each correct, wrong or missing: all 81 cases."""
        outcomes = self._outcomes(i, ii, iii, iv)
        assert consistency_verdict(*outcomes) is self._dict_rule(outcomes)


class TestMineEvidentiality:
    def test_pivot_is_positive_fillers_undetermined(self):
        example = pivot_example()
        labels = labels_of(LabelKind.EVIDENTIALITY, example, ScriptedPredictor())
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

        labels = labels_of(LabelKind.EVIDENTIALITY, pivot_example(), MisledPredictor())
        assert labels[0].verdict is Verdict.NEGATIVE
        assert labels[1].verdict is Verdict.UNDETERMINED

    def test_requires_two_passages(self):
        example = make_example(retrieved_texts=("only one",))
        with pytest.raises(ContractViolation):
            mine_question(example, ScriptedPredictor())

    def test_predictor_failure_yields_undetermined_with_note(self, caplog):
        class Failing:
            def __init__(self):
                self.count = 0

            def predict(self, req):
                self.count += 1
                if self.count > 1:
                    raise PipelineError("service down")
                return GOLD

        labels = labels_of(LabelKind.EVIDENTIALITY, pivot_example(), Failing())
        assert all(l.verdict is Verdict.UNDETERMINED for l in labels)
        # each failed reader call logs one warning naming its error
        assert [r.levelname for r in caplog.records] == ["WARNING"] * len(labels)
        assert all("service down" in r.getMessage() for r in caplog.records)


class TestMineConsistency:
    def test_verdicts_against_ground_truth(self):
        example = pivot_example()
        predictor = ScriptedPredictor()
        labels = labels_of(LabelKind.CONSISTENCY, example, predictor)
        by_pair = {(l.lp_index, l.rp_index): l.verdict for l in labels}
        assert by_pair[(0, 0)] is Verdict.POSITIVE  # faithful lp, pivotal rp
        assert by_pair[(1, 0)] is Verdict.NEGATIVE  # hallucinated lp, pivotal rp
        for j in (1, 2):
            assert by_pair[(0, j)] is Verdict.UNDETERMINED
            assert by_pair[(1, j)] is Verdict.UNDETERMINED

    def test_generated_calls_only_behind_the_gate(self):
        example = pivot_example()
        predictor = ScriptedPredictor()
        mine_question(example, predictor)
        # gate holds only for rp 0, so III+IV appear once per generated passage
        gated_pairs = example.m  # (i, pivot) for each i
        assert len(predictor.calls_with_generated()) == 2 * gated_pairs

    def test_call_count_bound(self):
        example = pivot_example()
        predictor = ScriptedPredictor()
        _, log = mine_question(example, predictor)
        gated = sum(1 for o in log if o.config is Config.IV_SWAP_LP_FOR_RP)
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
        labels = labels_of(LabelKind.CONSISTENCY, example, predictor)
        assert all(l.verdict is Verdict.UNDETERMINED for l in labels)
        assert predictor.calls == 1 + example.n  # I once, II per retrieved passage

    def test_both_kinds_share_one_pass(self):
        example = pivot_example()
        predictor = ScriptedPredictor()
        labels, log = mine_question(example, predictor)
        gated = example.m  # (i, pivot) for each generated passage
        assert len(predictor.calls) == 1 + example.n + 2 * gated
        assert len(log) == len(predictor.calls)
        assert [(l.lp_index, l.rp_index) for l in labels[example.n :]] == [
            (i, j) for i in range(example.m) for j in range(example.n)
        ]
        assert [(l.kind, l.rp_index) for l in labels[: example.n]] == [
            (LabelKind.EVIDENTIALITY, j) for j in range(example.n)
        ]
        assert all(l.kind is LabelKind.CONSISTENCY for l in labels[example.n :])

    def test_verdict_purity(self):
        example = pivot_example()
        labels, log = mine_question(example, ScriptedPredictor())
        for label in labels[example.n :]:
            # I, then the pair's II, III and IV: every call whose indices are the pair's or absent
            pair = [o for o in log if o.lp_index in (None, label.lp_index) and o.rp_index in (None, label.rp_index)]
            by_config = {o.config: o for o in pair}
            assert consistency_verdict(*(by_config.get(config) for config in Config)) is label.verdict


def _evid_label(qid, j, verdict):
    return SilverLabel(
        question_id=qid,
        kind=LabelKind.EVIDENTIALITY,
        rp_index=j,
        verdict=verdict,
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
        example = pivot_example()
        labels, log = mine_question(example, predictor)
        record = audit_record(example.question_id, log)
        assert record["question_id"] == example.question_id
        assert set(record) == {"question_id", *AUDIT_LISTS}
        assert [len(record[key]) for key in AUDIT_LISTS] == [len(predictor.calls)] * 5
        by_call = {
            (config, i, j): ConfigOutcome(Config(config), prediction, correct)
            for config, i, j, prediction, correct in zip(*(record[key] for key in AUDIT_LISTS))
        }
        assert len(by_call) == len(predictor.calls)
        for label in labels:
            i, j = label.lp_index, label.rp_index
            full, drop = by_call[("I", None, None)], by_call[("II", None, j)]
            if label.kind is LabelKind.EVIDENTIALITY:
                assert evidentiality_verdict(full.correct, drop.correct) is label.verdict
            else:
                add, swap = by_call.get(("III", i, None)), by_call.get(("IV", i, j))
                assert consistency_verdict(full, drop, add, swap) is label.verdict


class BridgeReader:
    """Correct iff both retrieved pivots (PIVOT and LINK), or the faithful
    generated passage, are present and the hallucinated one is not; so the
    gate holds at two retrieved passages. Raises on every request whose
    passages are in ``fail``."""

    def __init__(self, fail=()):
        self.fail, self.received = set(fail), []

    def predict(self, req):
        self.received.append(req)
        if req.passages in self.fail:
            raise PipelineError("reader timed out")
        blocks = " || ".join(req.passages)
        supported = (PIVOT in blocks and LINK in blocks) or GOOD_LP in blocks
        return GOLD if supported and BAD_LP not in blocks else WRONG


class TestCallLog:
    def test_a_failed_call_is_absent_from_the_log_and_undetermines_its_labels(self):
        example = make_example(
            answers=(GOLD,), retrieved_texts=(PIVOT, LINK, FILLER[0]), generated_texts=(GOOD_LP, BAD_LP)
        )
        reference = BridgeReader()
        before, reference_log = mine_question(example, reference)
        assert len(reference_log) == len(reference.received)
        outcome_of = {req.passages: o for o, req in zip(reference_log, reference.received)}
        passages_of = {(o.config, o.lp_index, o.rp_index): p for p, o in outcome_of.items()}
        failed = [(Config.II_DROP_RP, None, 1), (Config.IV_SWAP_LP_FOR_RP, 0, 0)]
        reader = BridgeReader(fail=[passages_of[call] for call in failed])

        labels, log = mine_question(example, reader)
        answered = [req for req in reader.received if req.passages not in reader.fail]
        assert len(answered) == len(reader.received) - 2
        assert log == [outcome_of[req.passages] for req in answered]
        assert [(o.config.value, o.lp_index, o.rp_index) for o in log] == [
            ("I", None, None), ("II", None, 0), ("II", None, 2), ("III", 0, None), ("III", 1, None), ("IV", 1, 0),
        ]  # fmt: skip
        record = audit_record(example.question_id, log)
        assert list(zip(*(record[key] for key in AUDIT_LISTS))) == [
            (o.config.value, o.lp_index, o.rp_index, o.prediction, o.correct) for o in log
        ]

        # II of rp 1 decides its evidentiality label and gates both (lp, 1) pairs; IV of (0, 0) decides that pair
        needs_failed = {
            (LabelKind.EVIDENTIALITY, None, 1),
            (LabelKind.CONSISTENCY, 0, 0),
            (LabelKind.CONSISTENCY, 0, 1),
            (LabelKind.CONSISTENCY, 1, 1),
        }
        assert [(l.kind, l.lp_index, l.rp_index) for l in labels] == [(l.kind, l.lp_index, l.rp_index) for l in before]
        for label, earlier in zip(labels, before):
            if (label.kind, label.lp_index, label.rp_index) in needs_failed:
                assert earlier.verdict is not Verdict.UNDETERMINED
                assert label.verdict is Verdict.UNDETERMINED
            else:
                assert label.verdict is earlier.verdict
        # left decided: evidentiality of rp 0 and the consistency of (1, 0)
        assert sum(l.verdict is not Verdict.UNDETERMINED for l in labels) == 2

    def test_a_question_whose_every_call_fails_keeps_one_audit_record_of_empty_lists(self):
        example = make_example(
            answers=(GOLD,), retrieved_texts=(PIVOT, LINK, FILLER[0]), generated_texts=(GOOD_LP, BAD_LP)
        )
        reader = BridgeReader(fail=[(PIVOT, LINK, FILLER[0])])  # I fails, so no other call is made
        labels, log = mine_question(example, reader)
        assert len(reader.received) == 1 and log == []
        assert len(labels) == 3 + 2 * 3 and all(l.verdict is Verdict.UNDETERMINED for l in labels)
        empty = {key: [] for key in AUDIT_LISTS}
        assert audit_record(example.question_id, log) == {"question_id": example.question_id, **empty}
