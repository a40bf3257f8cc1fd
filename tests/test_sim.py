from __future__ import annotations

import itertools
import math

import pytest

from pairqa.analysis import conflicting_rate
from pairqa.corpus import HopType, Source, contains_answer
from pairqa.errors import ContractViolation
from pairqa.matching import equalize_pools, match_optimal
from pairqa.mining import LabelKind, Verdict, mine_question
from pairqa.providers import LexicalMockScorer, PredictRequest
from pairqa.scoring import CombineMode, build_matrix
from pairqa.sim import (
    SimPredictor,
    SynthSpec,
    generate_corpus,
    load_truth,
    mock_predict,
    write_truth,
)


def spec(**overrides):
    fields = dict(
        num_questions=5,
        n=4,
        m=3,
        seed=7,
        p_retrieved_evidential=0.5,
        p_llm_hallucinated=0.5,
        hop_type=HopType.SINGLE_HOP,
        single_pivot=False,
    )
    fields.update(overrides)
    return SynthSpec(**fields)


class TestGenerateCorpus:
    def test_deterministic_from_seed(self):
        a, truth_a = generate_corpus(spec())
        b, truth_b = generate_corpus(spec())
        assert a == b
        assert truth_a.questions == truth_b.questions

    def test_all_supported_means_zero_conflict(self):
        examples, _ = generate_corpus(spec(p_retrieved_evidential=1.0, p_llm_hallucinated=0.0))
        for ex in examples:
            assert conflicting_rate(ex).conflicting_rate == 0.0

    def test_full_hallucination_means_full_conflict(self):
        examples, _ = generate_corpus(spec(p_retrieved_evidential=1.0, p_llm_hallucinated=1.0))
        for ex in examples:
            assert conflicting_rate(ex).conflicting_rate == 1.0

    def test_flags_agree_with_answer_containment(self):
        examples, truth = generate_corpus(spec(num_questions=20))
        for ex in examples:
            qt = truth.questions[ex.question_id]
            for chain in ex.retrieved + ex.generated:
                assert contains_answer(chain, (qt.gold,)) == qt.chains[chain.id].supports

    def test_single_pivot_mode(self):
        examples, truth = generate_corpus(spec(num_questions=30, single_pivot=True))
        for ex in examples:
            supporting = truth.questions[ex.question_id].supporting_ids(Source.RETRIEVED)
            assert len(supporting) == 1

    def test_multi_hop_chains_have_two_segments(self):
        examples, _ = generate_corpus(spec(hop_type=HopType.MULTI_HOP_BRIDGE))
        assert all(len(c.segments) == 2 for ex in examples for c in ex.retrieved + ex.generated)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ContractViolation):
            spec(num_questions=0)
        with pytest.raises(ContractViolation):
            spec(num_questions=1, p_llm_hallucinated=1.5)

    def test_monotone_conflict_in_hallucination_rate(self):
        sweep = [0.0, 0.25, 0.5, 0.75, 1.0]
        means = []
        for p in sweep:
            examples, _ = generate_corpus(spec(num_questions=40, p_llm_hallucinated=p))
            rates = [conflicting_rate(ex).conflicting_rate for ex in examples]
            means.append(sum(rates) / len(rates))
        assert all(means[k] <= means[k + 1] for k in range(len(means) - 1))


class TestMockPredict:
    def setup_method(self):
        self.examples, self.truth = generate_corpus(spec(num_questions=3, single_pivot=True))
        self.example = self.examples[0]
        self.qt = self.truth.questions[self.example.question_id]

    def _pivot_chain(self):
        pivot_id = next(iter(self.qt.supporting_ids(Source.RETRIEVED)))
        return next(c for c in self.example.retrieved if c.id == pivot_id)

    def test_supporting_block_yields_gold(self):
        assert mock_predict(self.example.question, [self._pivot_chain().text()], self.truth) == self.qt.gold

    def test_non_evidential_blocks_yield_distractor(self):
        pivot_id = next(iter(self.qt.supporting_ids(Source.RETRIEVED)))
        blocks = [c.text() for c in self.example.retrieved if c.id != pivot_id]
        assert mock_predict(self.example.question, blocks, self.truth) == self.qt.distractor

    def test_hallucinated_generated_block_misleads(self):
        hallucinated = [
            c for c in self.example.generated if not self.qt.chains[c.id].supports
        ]
        if not hallucinated:
            pytest.skip("seed produced no hallucinated chain in q0")
        blocks = [self._pivot_chain().text(), hallucinated[0].text()]
        assert mock_predict(self.example.question, blocks, self.truth) == self.qt.distractor

    def test_empty_blocks_rejected(self):
        with pytest.raises(ContractViolation):
            mock_predict(self.example.question, [], self.truth)

    def test_unknown_chain_rejected(self):
        with pytest.raises(ContractViolation):
            mock_predict(self.example.question, ["completely foreign text"], self.truth)

    def test_unknown_question_rejected(self):
        with pytest.raises(ContractViolation):
            mock_predict("never generated", ["x"], self.truth)

    def test_predictor_backend_wrapper(self):
        predictor = SimPredictor(self.truth)
        answer = predictor.predict(
            PredictRequest(self.example.question, (self._pivot_chain().text(),))
        )
        assert answer == self.qt.gold


class TestMiningSoundness:
    def test_consistency_labels_match_ground_truth(self):
        examples, truth = generate_corpus(
            spec(num_questions=40, n=5, m=4, single_pivot=True, p_llm_hallucinated=0.5)
        )
        predictor = SimPredictor(truth)
        for example in examples:
            qt = truth.questions[example.question_id]
            pivots = qt.supporting_ids(Source.RETRIEVED)
            labels = mine_question(example, predictor)[0]
            for label in (l for l in labels if l.kind is LabelKind.CONSISTENCY):
                rp_id = example.retrieved[label.rp_index].id
                faithful = qt.chains[example.generated[label.lp_index].id].supports
                if rp_id in pivots:
                    expected = Verdict.POSITIVE if faithful else Verdict.NEGATIVE
                else:
                    expected = Verdict.UNDETERMINED
                assert label.verdict is expected

    def test_evidentiality_labels_match_ground_truth(self):
        examples, truth = generate_corpus(spec(num_questions=40, n=5, single_pivot=True))
        predictor = SimPredictor(truth)
        for example in examples:
            pivots = truth.questions[example.question_id].supporting_ids(Source.RETRIEVED)
            labels = mine_question(example, predictor)[0]
            for label in (l for l in labels if l.kind is LabelKind.EVIDENTIALITY):
                rp_id = example.retrieved[label.rp_index].id
                expected = Verdict.POSITIVE if rp_id in pivots else Verdict.UNDETERMINED
                assert label.verdict is expected


class TestLexicalScorerAgainstBruteForce:
    def test_optimal_weight_counts_matchable_supported_pairs(self):
        examples, truth = generate_corpus(
            spec(num_questions=25, n=5, m=5, p_retrieved_evidential=0.4, p_llm_hallucinated=0.5)
        )
        scorer = LexicalMockScorer.from_examples(examples)
        for example in examples:
            matrix = build_matrix(example, scorer, CombineMode.CUTOFF)
            result = match_optimal(equalize_pools(matrix))
            weights = matrix.combined_grid()
            best = max(
                math.fsum(weights[i][perm[i]] for i in range(5))
                for perm in itertools.permutations(range(5))
            )
            assert result.total_weight == best
            assert result.total_weight == float(
                sum(1 for _, _, s in result.pairs if s == 1.0)
            )


class TestTruthFile:
    def test_round_trip(self, tmp_path):
        _, truth = generate_corpus(spec())
        path = tmp_path / "truth.jsonl"
        write_truth(path, truth)
        loaded = load_truth(path)
        assert loaded.questions == truth.questions
