"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here, not configured: weight comparisons are exact
(totals are exactly-rounded sums on both sides), probability fixtures are
exact rationals, and runtime budgets are wall-clock bounds.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from collections import Counter

from pairqa import analysis, matching, mining, readerio, scoring, sim
from pairqa.cli import derive_seed, main as cli_main
from pairqa.corpus import HopType, Source, write_examples
from pairqa.lineio import dumps_canonical
from pairqa.providers import LexicalMockScorer, PredictRequest
from pairqa.scoring import CombineMode, PairType

from conftest import make_example
from test_analysis import example_with_counts


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL criterion {number}: {description}")
                raise
            print(f"\nPASS criterion {number}: {description}")

        return wrapper

    return decorate


@criterion(1, "optimal matching equals brute force on dims 2-6 (exact, <10s)")
def test_criterion_01_matching_exactness():
    rng = random.Random(20240817)
    start = time.perf_counter()
    for dim in range(2, 7):
        for _ in range(1000):
            weights = [[rng.random() for _ in range(dim)] for _ in range(dim)]
            best = max(
                math.fsum(weights[i][perm[i]] for i in range(dim))
                for perm in itertools.permutations(range(dim))
            )
            result = matching.match_optimal(matching.WeightedBipartiteGraph.from_weights(weights))
            assert result.total_weight == best
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


@criterion(2, "optimal dominates greedy and random on 1000 10x10 instances")
def test_criterion_02_strategy_dominance():
    rng = random.Random(77)
    strict_over_random = 0
    for trial in range(1000):
        n = 10
        evid = [rng.random() for _ in range(n)]
        cons = [[rng.random() for _ in range(n)] for _ in range(n)]
        weights = [
            [scoring.combine(evid[j], cons[i][j], CombineMode.CUTOFF) for j in range(n)]
            for i in range(n)
        ]
        types = [[scoring.classify_pair(evid[j], cons[i][j]) for j in range(n)] for i in range(n)]
        graph = matching.WeightedBipartiteGraph.from_weights(weights)
        optimal = matching.match_optimal(graph)
        greedy = matching.match_greedy(graph, types)
        rand = matching.match_random(graph, seed=trial)
        assert optimal.total_weight >= greedy.total_weight
        assert optimal.total_weight >= rand.total_weight
        strict_over_random += optimal.total_weight > rand.total_weight
    assert strict_over_random > 950, f"strict on only {strict_over_random}/1000"


@criterion(3, "cutoff combine equals c * [e > 0.5] on the full 101x101 grid")
def test_criterion_03_cutoff_semantics():
    for i in range(101):
        for j in range(101):
            e, c = i / 100, j / 100
            expected = c if e > 0.5 else 0.0
            assert scoring.combine(e, c, CombineMode.CUTOFF) == expected
    assert scoring.combine(0.5, 0.8, CombineMode.CUTOFF) == 0.0


@criterion(4, "conflicting rate fixture is 0.35 exactly and permutation-invariant")
def test_criterion_04_conflicting_rate():
    from dataclasses import replace

    example = example_with_counts(10, 10, 5, 3)
    stats = analysis.conflicting_rate(example)
    assert stats.conflicting_rate == 0.35
    rng = random.Random(4)
    for _ in range(100):
        retrieved = list(example.retrieved)
        generated = list(example.generated)
        rng.shuffle(retrieved)
        rng.shuffle(generated)
        shuffled = replace(example, retrieved=tuple(retrieved), generated=tuple(generated))
        assert analysis.conflicting_rate(shuffled).conflicting_rate == 0.35


class CountingPredictor:
    def __init__(self, truth):
        self.inner = sim.SimPredictor(truth)
        self.generated_by_question = {
            qt.question: [ct.text for ct in qt.chains.values() if ct.source is Source.LLM_GENERATED]
            for qt in truth.questions.values()
        }
        self.with_generated = 0
        self.without_generated = 0

    def predict(self, req: PredictRequest) -> str:
        texts = self.generated_by_question[req.question]
        if any(text in block for block in req.passages for text in texts):
            self.with_generated += 1
        else:
            self.without_generated += 1
        return self.inner.predict(req)


@criterion(5, "mining matches simulator truth exactly; III/IV only behind the gate (<30s)")
def test_criterion_05_mining_soundness():
    start = time.perf_counter()
    spec = sim.SynthSpec(
        num_questions=1000,
        n=10,
        m=10,
        seed=99,
        single_pivot=True,
        p_retrieved_evidential=0.5,
        p_llm_hallucinated=0.5,
        hop_type=HopType.SINGLE_HOP,
    )
    examples, truth = sim.generate_corpus(spec)
    predictor = CountingPredictor(truth)

    mined = {"positive": set(), "negative": set()}
    expected = {"positive": set(), "negative": set()}
    gated_pairs = 0
    for example in examples:
        qt = truth.questions[example.question_id]
        pivot = next(cid for cid, ct in qt.chains.items() if ct.supports and ct.source is Source.RETRIEVED)
        for i, lp in enumerate(example.generated):
            gated_pairs += 1  # the gate holds exactly at (i, pivot) in single-pivot mode
            key = (example.question_id, i)
            if qt.chains[lp.id].supports:
                expected["positive"].add(key)
            else:
                expected["negative"].add(key)
        for label in mining.mine_question(example, predictor)[0]:
            if label.kind is not mining.LabelKind.CONSISTENCY:
                continue
            rp_id = example.retrieved[label.rp_index].id
            if label.verdict is mining.Verdict.POSITIVE:
                assert rp_id == pivot
                mined["positive"].add((example.question_id, label.lp_index))
            elif label.verdict is mining.Verdict.NEGATIVE:
                assert rp_id == pivot
                mined["negative"].add((example.question_id, label.lp_index))

    # 100% precision and recall on both classes: exact set equality
    assert mined["positive"] == expected["positive"]
    assert mined["negative"] == expected["negative"]
    # III/IV calls are the only ones carrying generated text: two per gated pair
    assert predictor.with_generated == 2 * gated_pairs
    assert predictor.without_generated == (1 + spec.n) * spec.num_questions
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


@criterion(6, "pairwise golden block, linearized 2k blocks, round-trip parse")
def test_criterion_06_serialization_goldens():
    example = make_example(question="q", retrieved_texts=("b",), generated_texts=("a",))
    pairing = matching.PairMatching(
        question_id="q1", strategy=matching.Strategy.OPTIMAL, pairs=((0, 0, 1.0),), total_weight=1.0
    )
    block = readerio.serialize_variant(example, pairing, readerio.Variant.PAIRWISE, 400).blocks[0]
    assert block == "question: q generated passage: a retrieved passage: b"
    assert readerio.parse_pair_block(block) == ("q", "a", "b")

    for k in (1, 3, 10):
        wide = make_example(
            question="q",
            retrieved_texts=tuple(f"rp {j}" for j in range(k)),
            generated_texts=tuple(f"lp {i}" for i in range(k)),
        )
        pairing = matching.PairMatching(
            question_id="q1",
            strategy=matching.Strategy.OPTIMAL,
            pairs=tuple((i, i, 1.0) for i in range(k)),
            total_weight=float(k),
        )
        linearized = readerio.serialize_variant(wide, pairing, readerio.Variant.LINEARIZED, 200)
        assert len(linearized.blocks) == 2 * k


@criterion(7, "blocks sorted by score, lp always first, shuffles byte-reproducible")
def test_criterion_07_order_invariants():
    rng = random.Random(17)
    for trial in range(50):
        n = rng.randint(2, 8)
        example = make_example(
            question="which one",
            retrieved_texts=tuple(f"retrieved text {j}" for j in range(n)),
            generated_texts=tuple(f"generated text {i}" for i in range(n)),
        )
        weights = [[rng.random() for _ in range(n)] for _ in range(n)]
        result = matching.match_optimal(
            matching.WeightedBipartiteGraph.from_weights(weights), example.question_id
        )
        scores = [s for _, _, s in result.pairs]
        assert scores == sorted(scores, reverse=True)

        reader = readerio.serialize_variant(example, result, readerio.Variant.PAIRWISE, 400)
        for block, (lp_index, rp_index, _) in zip(reader.blocks, result.pairs):
            gen_pos = block.find("generated passage:")
            ret_pos = block.find("retrieved passage:")
            assert 0 < gen_pos < ret_pos
            assert f"generated text {lp_index}" in block
            assert f"retrieved text {rp_index}" in block

        for variant in (readerio.Variant.SHUFFLED_PAIRS, readerio.Variant.SHUFFLED_WITHIN_PAIR):
            a = readerio.serialize_variant(example, result, variant, 400, seed=trial)
            b = readerio.serialize_variant(example, result, variant, 400, seed=trial)
            assert dumps_canonical(a) == dumps_canonical(b)


@criterion(8, "bin assignment fixture and confusion-matrix fixtures")
def test_criterion_08_analysis_fixtures():
    expected_bins = {0.05: 0, 0.15: 1, 0.25: 2, 0.35: 3, 0.45: 4, 0.75: 5}
    for rate, idx in expected_bins.items():
        assert analysis.bin_index(rate) == idx

    labels = [PairType.COMPATIBLE, PairType.CONFLICTING, PairType.NON_EVIDENTIAL] * 50
    _, accuracy = analysis.label_confusion(labels, list(labels))
    assert accuracy == 1.0

    cycle = [PairType.COMPATIBLE, PairType.CONFLICTING, PairType.NON_EVIDENTIAL]
    predicted = [cycle[k % 3] for k in range(150)]
    annotated = [cycle[k % 3] if k < 117 else cycle[(k + 1) % 3] for k in range(150)]
    _, accuracy = analysis.label_confusion(predicted, annotated)
    assert accuracy == 0.78


@criterion(9, "score -> match -> serialize reruns are byte-identical")
def test_criterion_09_determinism(tmp_path):
    spec = sim.SynthSpec(
        num_questions=12,
        n=5,
        m=4,
        seed=21,
        p_retrieved_evidential=0.5,
        p_llm_hallucinated=0.4,
        hop_type=HopType.SINGLE_HOP,
        single_pivot=False,
    )
    examples, _ = sim.generate_corpus(spec)
    dataset = tmp_path / "corpus.jsonl"
    write_examples(dataset, examples)
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        for command in ("score", "match", "serialize"):
            code = cli_main(
                [command, "--dataset", str(dataset), "--out", str(out), "--seed", "13"]
            )
            assert code == 0
        outputs.append(
            tuple(
                (out / f).read_bytes()
                for f in ("matrices.jsonl", "matchings.jsonl", "reader_inputs.jsonl")
            )
        )
    assert outputs[0] == outputs[1]


@criterion(10, "conflict trend is monotone and optimal tops random on compatible pairs")
def test_criterion_10_trend_reproduction():
    sweep = [0.0, 0.25, 0.5, 0.75, 1.0]
    mean_rates = []
    optimal_fractions = []
    random_fractions = []
    for p in sweep:
        spec = sim.SynthSpec(
            num_questions=150,
            n=6,
            m=6,
            seed=31,
            p_retrieved_evidential=0.6,
            p_llm_hallucinated=p,
            hop_type=HopType.SINGLE_HOP,
            single_pivot=False,
        )
        examples, _ = sim.generate_corpus(spec)
        scorer = LexicalMockScorer.from_examples(examples)
        rates = []
        top_compatible = Counter()
        for example in examples:
            rates.append(analysis.conflicting_rate(example).conflicting_rate)
            matrix = scoring.build_matrix(example, scorer, CombineMode.CUTOFF)
            weights = matrix.combined_grid()
            graph = matching.equalize_weights(weights)
            optimal = matching.match_optimal(graph, example.question_id)
            rand = matching.match_random(graph, seed=derive_seed(31, example.question_id))
            for name, result in (("optimal", optimal), ("random", rand)):
                lp, rp, _ = result.pairs[0]
                if matrix.pair_type(lp, rp) is PairType.COMPATIBLE:
                    top_compatible[name] += 1
        mean_rates.append(sum(rates) / len(rates))
        optimal_fractions.append(top_compatible["optimal"] / len(examples))
        random_fractions.append(top_compatible["random"] / len(examples))

    assert all(mean_rates[k] <= mean_rates[k + 1] for k in range(len(mean_rates) - 1)), mean_rates
    for opt, rnd in zip(optimal_fractions, random_fractions):
        assert opt >= rnd, (optimal_fractions, random_fractions)
