from __future__ import annotations

import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairqa.analysis import conflicting_rate
from pairqa.corpus import HopType, Source, contains_answer
from pairqa.errors import ContractViolation
from pairqa.matching import equalize_weights, match_optimal
from pairqa.mining import LabelKind, Verdict, mine_question
from pairqa.providers import LexicalMockScorer, PredictRequest
from pairqa.scoring import CombineMode, build_matrix
from pairqa.sim import (
    ChainTruth,
    GroundTruth,
    QuestionTruth,
    SimPredictor,
    SynthSpec,
    generate_corpus,
    load_truth,
    mock_predict,
    write_truth,
)


def evidential_ids(qt) -> set[str]:
    """The ids of a question's evidential retrieved chains."""
    return {cid for cid, ct in qt.chains.items() if ct.supports and ct.source is Source.RETRIEVED}


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
            supporting = evidential_ids(truth.questions[ex.question_id])
            assert len(supporting) == 1

    def test_multi_hop_chains_have_two_segments(self):
        examples, _ = generate_corpus(spec(hop_type=HopType.MULTI_HOP_BRIDGE))
        assert all(len(c.segments) == 2 for ex in examples for c in ex.retrieved + ex.generated)

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
        pivot_id = next(iter(evidential_ids(self.qt)))
        return next(c for c in self.example.retrieved if c.id == pivot_id)

    def test_supporting_block_yields_gold(self):
        assert mock_predict(self.example.question, [self._pivot_chain().text()], self.truth) == self.qt.gold

    def test_non_evidential_blocks_yield_distractor(self):
        pivot_id = next(iter(evidential_ids(self.qt)))
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


def scan_predict(question, blocks, truth):
    """The reader as a scan: every chain text of the question tested against every block."""
    if not blocks:
        raise ContractViolation("mock predictor requires at least one block")
    qt = truth.for_question_text(question)
    supported = misled = False
    for block in blocks:
        present = [ct for ct in qt.chains.values() if ct.text in block]
        if not present:
            raise ContractViolation(f"block for {qt.question_id} does not contain any known chain text")
        supported |= any(ct.supports for ct in present)
        misled |= any(not ct.supports and ct.source is Source.LLM_GENERATED for ct in present)
    return qt.gold if supported and not misled else qt.distractor


def _answer(predict, question, blocks, truth):
    """The answer of ``predict``, or the message of the ContractViolation it raised."""
    try:
        return predict(question, blocks, truth)
    except ContractViolation as exc:
        return f"ContractViolation: {exc}"


def _nested_truth() -> GroundTruth:
    """One question whose chain texts contain one another: r1's text alone holds no
    support, but it contains r0's and g1's, so the reader answers it with the gold."""
    chains = [
        ChainTruth("r0", Source.RETRIEVED, "alpha", True),
        ChainTruth("r1", Source.RETRIEVED, "gamma alpha", False),
        ChainTruth("g0", Source.LLM_GENERATED, "alpha beta", False),
        ChainTruth("g1", Source.LLM_GENERATED, "gamma", True),
    ]
    qt = QuestionTruth("n0", "which nested entity", "gold", "wrong", {ct.chain_id: ct for ct in chains})
    return GroundTruth({"n0": qt})


_TRUTHS = [
    generate_corpus(spec(num_questions=3))[1],
    generate_corpus(spec(num_questions=2, hop_type=HopType.MULTI_HOP_BRIDGE))[1],
    _nested_truth(),
]


@st.composite
def reader_calls(draw):
    """A truth, and calls for one of its questions: lists of blocks, each a chain
    text, two or three chain texts in the shape of a pair block, or (in some
    draws) text that holds no chain text."""
    truth = draw(st.sampled_from(_TRUTHS))
    qt = draw(st.sampled_from(list(truth.questions.values())))
    one = st.sampled_from([ct.text for ct in qt.chains.values()])
    pair = st.lists(one, min_size=2, max_size=3).map(
        lambda texts: f"question: {qt.question} generated passage: {texts[0]} retrieved passage: {' '.join(texts[1:])}"
    )
    kinds = [one, pair]
    if draw(st.booleans()):
        kinds += [st.just("completely foreign text"), one.map(lambda text: text[: len(text) // 2])]
    calls = st.lists(st.lists(st.one_of(kinds), min_size=1, max_size=5), min_size=1, max_size=4)
    return truth, qt.question, draw(calls)


class TestIndexedReader:
    @given(reader_calls())
    def test_answers_as_a_scan(self, drawn):
        truth, question, calls = drawn
        fresh = GroundTruth(dict(truth.questions))  # the first call builds the question's index
        for blocks in calls:
            expected = _answer(scan_predict, question, blocks, fresh)
            assert _answer(mock_predict, question, blocks, fresh) == expected

    def test_index_is_built_on_a_questions_first_call(self, tmp_path):
        examples, truth = generate_corpus(spec(num_questions=3))
        write_truth(tmp_path / "truth.jsonl", truth)
        loaded = load_truth(tmp_path / "truth.jsonl")
        assert truth._index == {} and loaded._index == {}
        example = examples[1]
        mock_predict(example.question, [example.retrieved[0].text()], loaded)
        assert list(loaded._index) == [example.question_id]

    def test_threads_that_race_on_the_index_answer_as_one_thread(self):
        """More threads than cores, switching often, build the index of one shared truth."""
        examples, truth = generate_corpus(spec(num_questions=20, n=6, m=6))
        calls = [(ex.question, [c.text()]) for ex in examples for c in ex.retrieved + ex.generated] * 3
        expected = [scan_predict(question, blocks, truth) for question, blocks in calls]
        shared = GroundTruth(dict(truth.questions))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                answers = list(pool.map(lambda call: mock_predict(*call, shared), calls, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert answers == expected
        assert sorted(shared._index) == sorted(truth.questions)


class TestMiningSoundness:
    def test_consistency_labels_match_ground_truth(self):
        examples, truth = generate_corpus(
            spec(num_questions=40, n=5, m=4, single_pivot=True, p_llm_hallucinated=0.5)
        )
        predictor = SimPredictor(truth)
        for example in examples:
            qt = truth.questions[example.question_id]
            pivots = evidential_ids(qt)
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
            pivots = evidential_ids(truth.questions[example.question_id])
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
            result = match_optimal(equalize_weights(matrix.combined_grid()))
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
