from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairqa.errors import ContractViolation
from pairqa.lineio import dumps_canonical
from pairqa.matching import (
    PairMatching,
    Strategy,
    WeightedBipartiteGraph,
    _solve_min_assignment,
    equalize_weights,
    match,
    match_greedy,
    match_optimal,
    match_random,
    match_same_answer,
)
from pairqa.scoring import CombineMode, PairType, build_matrix

from conftest import make_example


def brute_force_best(weights):
    """Exhaustive maximum-weight assignment with lexicographic tie-break.

    Totals are exactly-rounded sums, so the comparison against the solver
    is order-independent and exact.
    """
    n = len(weights)
    best, best_perm = None, None
    for perm in itertools.permutations(range(n)):
        total = math.fsum(weights[i][perm[i]] for i in range(n))
        if best is None or total > best or (total == best and perm < best_perm):
            best, best_perm = total, perm
    return best, best_perm


def assignment_of(matching: PairMatching, n: int):
    by_row = {}
    for i, j, _ in matching.pairs:
        by_row[i] = j
    return tuple(by_row[i] for i in range(n))


def lexicographic_reference(weights):
    """Row by row, the smallest free column c for which row i on c plus the
    best of the remaining rows and columns still reaches the optimum. Totals
    are exact rationals, so ties count exactly on continuous weights too;
    each sub-optimum comes from ``match_optimal``, whose totals the dual
    certificate tests vouch for."""
    k = len(weights)

    def best(rows, cols):
        if not cols:
            return Fraction(0)
        sub = [[weights[r][c] for c in cols] for r in rows]
        return sum(Fraction(s) for _, _, s in match_optimal(WeightedBipartiteGraph.from_weights(sub)).pairs)

    wstar = best(range(k), list(range(k)))
    free = list(range(k))
    prefix = Fraction(0)
    chosen = []
    for i in range(k):
        for c in free:
            if prefix + Fraction(weights[i][c]) + best(range(i + 1, k), [d for d in free if d != c]) == wstar:
                chosen.append(c)
                free.remove(c)
                prefix += Fraction(weights[i][c])
                break
        else:
            raise AssertionError(f"row {i}: no column reaches {wstar}")
    return tuple(chosen)


def assert_duals_certify(weights):
    """A permutation, dual feasibility, tight matched edges and no duality
    gap together prove the assignment optimal."""
    k = len(weights)
    cost = [[-w for w in row] for row in weights]
    cols, u, v = _solve_min_assignment(cost)
    assert sorted(cols) == list(range(k))
    reduced = [[cost[i][j] - u[i] - v[j] for j in range(k)] for i in range(k)]
    assert min(min(row) for row in reduced) >= -1e-9
    assert max(abs(reduced[i][cols[i]]) for i in range(k)) <= 1e-9
    assignment_cost = math.fsum(cost[i][cols[i]] for i in range(k))
    assert abs(math.fsum(u) + math.fsum(v) - assignment_cost) <= 1e-9 * k


class TestMatchOptimal:
    def test_single_pair(self):
        result = match_optimal(WeightedBipartiteGraph.from_weights([[0.7]]))
        assert result.pairs == ((0, 0, 0.7),)
        assert result.total_weight == 0.7

    def test_three_by_three_diagonal(self):
        weights = [[0.9, 0.1, 0.0], [0.2, 0.8, 0.3], [0.0, 0.4, 0.6]]
        best, best_perm = brute_force_best(weights)
        assert best_perm == (0, 1, 2)  # oracle confirms the diagonal is maximal
        result = match_optimal(WeightedBipartiteGraph.from_weights(weights))
        assert result.total_weight == best == pytest.approx(2.3)
        assert assignment_of(result, 3) == (0, 1, 2)

    def test_all_zero_uses_identity_tie_break(self):
        result = match_optimal(WeightedBipartiteGraph.from_weights([[0.0] * 4] * 4))
        assert result.total_weight == 0.0
        assert assignment_of(result, 4) == (0, 1, 2, 3)

    def test_non_square_rejected(self):
        with pytest.raises(ContractViolation):
            WeightedBipartiteGraph.from_weights([[0.1, 0.2]])

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(200):
            n = rng.randint(2, 6)
            weights = [[rng.random() for _ in range(n)] for _ in range(n)]
            best, best_perm = brute_force_best(weights)
            result = match_optimal(WeightedBipartiteGraph.from_weights(weights))
            assert result.total_weight == best
            assert assignment_of(result, n) == best_perm

    @pytest.mark.parametrize(
        "alphabet, largest, grids",
        [((0.0, 0.5, 1.0), 5, 300), ((0.0, 1.0), 7, 300)],
        ids=["halves-n2-5", "binary-n2-7"],
    )
    def test_lexicographic_tie_break_on_degenerate_weights(self, alphabet, largest, grids):
        # 0/1 ties up to n=7 need longer alternating paths than the n<=5 grids
        rng = random.Random(7)
        for _ in range(grids):
            n = rng.randint(2, largest)
            weights = [[rng.choice(alphabet) for _ in range(n)] for _ in range(n)]
            best, best_perm = brute_force_best(weights)
            result = match_optimal(WeightedBipartiteGraph.from_weights(weights))
            assert result.total_weight == best
            assert assignment_of(result, n) == best_perm

    def test_tie_break_moves_every_later_row_along_one_cycle(self):
        # 1s on two perfect matchings whose union is one 2n-edge cycle: the
        # path that hands row 0 its other column can run through all n-1 later rows
        rng = random.Random(11)
        n = 7
        for _ in range(50):
            p = rng.sample(range(n), n)
            cycle = rng.sample(range(n), n)
            q = [0] * n
            for a in range(n):
                q[cycle[a]] = p[cycle[(a + 1) % n]]
            weights = [[1.0 if j in (p[i], q[i]) else 0.0 for j in range(n)] for i in range(n)]
            best, best_perm = brute_force_best(weights)
            result = match_optimal(WeightedBipartiteGraph.from_weights(weights))
            assert result.total_weight == best == n
            assert assignment_of(result, n) == best_perm

    @pytest.mark.parametrize("alphabet", [(0.0, 1.0), (0.0, 0.5, 1.0)], ids=["binary", "halves"])
    def test_lexicographic_tie_break_beyond_brute_force(self, alphabet):
        rng = random.Random(29)
        for _ in range(25):
            k = rng.randint(12, 30)
            weights = [[rng.choice(alphabet) for _ in range(k)] for _ in range(k)]
            result = match_optimal(WeightedBipartiteGraph.from_weights(weights))
            assert assignment_of(result, k) == lexicographic_reference(weights)

    def test_lexicographic_tie_break_on_continuous_products(self):
        # product-mode weights: evidentiality x consistency, with exact 0, 1/2
        # and 1 mixed into continuous draws, so optima tie and the duals carry
        # float dust on tight edges
        rng = random.Random(5)

        def probability():
            return rng.choice((0.0, 0.5, 1.0)) if rng.random() < 0.3 else rng.random()

        for _ in range(10):
            k = rng.randint(12, 30)
            evidentiality = [probability() for _ in range(k)]
            weights = [[e * probability() for e in evidentiality] for _ in range(k)]
            result = match_optimal(WeightedBipartiteGraph.from_weights(weights))
            assert assignment_of(result, k) == lexicographic_reference(weights)

    def test_pairs_sorted_by_score_descending(self):
        rng = random.Random(3)
        weights = [[rng.random() for _ in range(5)] for _ in range(5)]
        result = match_optimal(WeightedBipartiteGraph.from_weights(weights))
        scores = [s for _, _, s in result.pairs]
        assert scores == sorted(scores, reverse=True)


class TestSolverCertificate:
    @pytest.mark.parametrize("kind", ["binary", "continuous"])
    @pytest.mark.parametrize("k", [10, 20, 40, 80])
    def test_duals_certify_the_assignment(self, k, kind):
        rng = random.Random(f"{k}:{kind}")
        if kind == "binary":
            weights = [[float(rng.random() < 0.15) for _ in range(k)] for _ in range(k)]
        else:
            weights = [[rng.random() for _ in range(k)] for _ in range(k)]
        assert_duals_certify(weights)

    def test_duals_certify_equalized_pools(self):
        # large-pools' shape: 60 generated x 80 retrieved, rows duplicated to 80 x 80
        rng = random.Random(60)
        graph = equalize_weights([[float(rng.random() < 0.3) for _ in range(80)] for _ in range(60)])
        assert len(graph.weights) == len(graph.weights[0]) == 80
        assert_duals_certify(graph.weights)


class TestEqualize:
    def test_identity_when_square(self):
        example = make_example(
            retrieved_texts=tuple(f"r{j}" for j in range(10)),
            generated_texts=tuple(f"g{i}" for i in range(10)),
        )
        matrix = build_matrix(example, _unit_scorer(), CombineMode.PRODUCT)
        graph = equalize_weights(matrix.combined_grid())
        assert len(graph.weights) == len(graph.weights[0]) == 10
        assert graph.row_origin == tuple(range(10))
        assert graph.col_origin == tuple(range(10))

    def test_rows_duplicated_cyclically(self):
        graph = equalize_weights([[1.0, 2.0, 3.0, 4.0, 5.0], [6.0, 7.0, 8.0, 9.0, 10.0]])
        assert len(graph.weights) == len(graph.weights[0]) == 5
        assert graph.row_origin == (0, 1, 0, 1, 0)
        assert graph.weights[2] == graph.weights[0]

    def test_columns_duplicated_cyclically(self):
        weights = [[float(10 * i + j) for j in range(2)] for i in range(5)]
        graph = equalize_weights(weights)
        assert graph.col_origin == (0, 1, 0, 1, 0)
        assert [row[2] for row in graph.weights] == [row[0] for row in graph.weights]

    def test_coverage_after_duplication(self):
        rng = random.Random(11)
        for m, n in [(2, 5), (5, 2), (3, 3), (1, 4)]:
            weights = [[rng.random() for _ in range(n)] for _ in range(m)]
            result = match_optimal(equalize_weights(weights))
            assert {j for _, j, _ in result.pairs} == set(range(n))
            assert {i for i, _, _ in result.pairs} == set(range(m))
            lp_counts = Counter(i for i, _, _ in result.pairs)
            assert max(lp_counts.values()) - min(lp_counts.values()) <= 1


def _unit_scorer():
    class Unit:
        def score(self, req):
            return 1.0

    return Unit()


def all_types(n, kind):
    return [[kind] * n for _ in range(n)]


def zeros(m, n):
    """The equalized graph of an all-zero m x n grid."""
    return equalize_weights([[0.0] * n for _ in range(m)])


class TestMatchGreedy:
    def test_greedy_is_myopic(self):
        weights = [[0.9, 0.8], [0.85, 0.1]]
        graph = WeightedBipartiteGraph.from_weights(weights)
        greedy = match_greedy(graph, all_types(2, PairType.COMPATIBLE))
        optimal = match_optimal(graph)
        assert greedy.total_weight == pytest.approx(1.0)
        assert optimal.total_weight == pytest.approx(1.65)
        assert greedy.total_weight <= optimal.total_weight

    def test_type_stages_override_scores(self):
        # the conflicting cell scores highest but compatible cells go first
        weights = [[0.99, 0.2], [0.3, 0.4]]
        types = [
            [PairType.CONFLICTING, PairType.COMPATIBLE],
            [PairType.COMPATIBLE, PairType.NON_EVIDENTIAL],
        ]
        result = match_greedy(WeightedBipartiteGraph.from_weights(weights), types)
        chosen = {(i, j) for i, j, _ in result.pairs}
        assert chosen == {(0, 1), (1, 0)}

    def test_all_non_evidential_still_covers(self):
        graph = WeightedBipartiteGraph.from_weights([[0.0] * 3] * 3)
        result = match_greedy(graph, all_types(3, PairType.NON_EVIDENTIAL))
        assert result.total_weight == 0.0
        assert {i for i, _, _ in result.pairs} == {0, 1, 2}

    def test_single_pair_equals_optimal(self):
        graph = WeightedBipartiteGraph.from_weights([[0.42]])
        greedy = match_greedy(graph, all_types(1, PairType.COMPATIBLE))
        assert greedy.pairs == match_optimal(graph).pairs


class TestMatchRandom:
    def test_deterministic_given_seed(self):
        a = match_random(zeros(4, 4), seed=99)
        b = match_random(zeros(4, 4), seed=99)
        assert a == b
        assert dumps_canonical(a) == dumps_canonical(b)

    def test_trivial_instance(self):
        assert match_random(zeros(1, 1), seed=0).pairs == ((0, 0, 0.0),)

    def test_permutations_are_uniform(self):
        counts = Counter()
        for seed in range(1000):
            result = match_random(zeros(3, 3), seed=seed)
            counts[assignment_of(result, 3)] += 1
        assert len(counts) == 6
        for perm, count in counts.items():
            assert abs(count / 1000 - 1 / 6) < 0.05, (perm, count)

    def test_unequal_pools_covered(self):
        result = match_random(zeros(2, 5), seed=5)
        assert {j for _, j, _ in result.pairs} == set(range(5))
        assert {i for i, _, _ in result.pairs} == {0, 1}


class TestMatchSameAnswer:
    def test_saturated_rule(self):
        example = make_example(
            retrieved_texts=("Don Shula here", "Don Shula there"),
            generated_texts=("Don Shula indeed", "Don Shula again"),
        )
        result = match_same_answer(example, zeros(2, 2), seed=0)
        assert result.strategy is Strategy.SAME_ANSWER
        assert len(result.pairs) == 2

    def test_vacuous_rule_matches_random_construction(self):
        example = make_example(
            answers=("Nobody Anywhere",),
            retrieved_texts=("alpha", "beta", "gamma"),
            generated_texts=("delta", "epsilon", "zeta"),
        )
        result = match_same_answer(example, zeros(3, 3), seed=123)
        random_result = match_random(zeros(3, 3), seed=123, question_id="q1")
        assert result.pairs == random_result.pairs

    def test_single_answer_pair_ranked_first(self):
        example = make_example(
            retrieved_texts=("nothing here", "Don Shula coached"),
            generated_texts=("Don Shula generated", "irrelevant text"),
        )
        result = match_same_answer(example, zeros(2, 2), seed=0)
        assert result.pairs[0][:2] == (0, 1)

    def test_deterministic(self):
        example = make_example()
        assert match_same_answer(example, zeros(2, 2), 7) == match_same_answer(example, zeros(2, 2), 7)


class TestDominanceAndScoring:
    def test_dominance_on_random_instances(self):
        rng = random.Random(1234)
        for trial in range(100):
            n = rng.randint(2, 6)
            weights = [[rng.random() for _ in range(n)] for _ in range(n)]
            graph = WeightedBipartiteGraph.from_weights(weights)
            opt = match_optimal(graph)
            greedy = match_greedy(graph, all_types(n, PairType.COMPATIBLE))
            rand = match_random(graph, seed=trial)
            assert opt.total_weight >= greedy.total_weight >= 0.0
            assert opt.total_weight >= rand.total_weight

    def test_random_matching_attributes_weights(self):
        weights = [[0.1, 0.9], [0.8, 0.2]]
        rand = scored = match_random(WeightedBipartiteGraph.from_weights(weights), seed=1)
        assert scored.total_weight == math.fsum(weights[i][j] for i, j, _ in rand.pairs)
        values = [s for _, _, s in scored.pairs]
        assert values == sorted(values, reverse=True)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_optimal_beats_brute_force_property(self, weights):
        best, _ = brute_force_best(weights)
        result = match_optimal(WeightedBipartiteGraph.from_weights(weights))
        assert result.total_weight == best


class TestSerialization:
    def test_record_round_trip_is_byte_stable(self):
        graph = WeightedBipartiteGraph.from_weights([[0.25, 0.5], [0.75, 0.125]])
        first = match_optimal(graph, "q9")
        second = match_optimal(graph, "q9")
        assert dumps_canonical(first) == dumps_canonical(second)
        record = json.loads(dumps_canonical(first))
        assert record["strategy"] == "optimal"
        assert record["total_weight"] == first.total_weight


class TestEqualizePairTypes:
    def test_types_follow_duplication(self):
        example = make_example(
            retrieved_texts=("Don Shula won",),
            generated_texts=("Don Shula led", "George Halas led", "Don Shula again"),
        )
        from pairqa.providers import LexicalMockScorer

        matrix = build_matrix(example, LexicalMockScorer.from_examples([example]), CombineMode.CUTOFF)
        graph = equalize_weights(matrix.combined_grid())
        types = [[matrix.pair_type(ri, cj) for cj in graph.col_origin] for ri in graph.row_origin]
        assert len(types) == 3 and len(types[0]) == 3
        assert types[0][0] is PairType.COMPATIBLE
        assert types[1][0] is PairType.CONFLICTING
        # duplicated retrieved columns carry the same classification
        assert types[0][1] is types[0][0]


@pytest.mark.parametrize("mode", list(CombineMode), ids=[m.value for m in CombineMode])
@pytest.mark.parametrize("strategy", list(Strategy), ids=[s.value for s in Strategy])
def test_match_scores_orders_and_covers_each_strategy_and_checks_the_shape(strategy, mode):
    from pairqa.providers import LexicalMockScorer

    pools = {
        (3, 2): (("Don Shula won", "nothing here"), ("Don Shula led", "George Halas led", "Don Shula again")),
        (2, 5): (("Don Shula won", "nothing", "Don Shula lost", "George Halas", "Don Shula"), ("Don Shula led", "other")),
    }
    for (m, n), (retrieved, generated) in pools.items():
        example = make_example(retrieved_texts=retrieved, generated_texts=generated)
        matrix = build_matrix(example, LexicalMockScorer.from_examples([example]), mode)
        grid = matrix.combined_grid()
        result = match(strategy, example, matrix, 17)
        assert (result.question_id, result.strategy) == (example.question_id, strategy)
        assert all(s == grid[i][j] for i, j, s in result.pairs)
        assert result.total_weight == math.fsum(s for _, _, s in result.pairs)
        assert len(result.pairs) == max(m, n)
        assert {i for i, _, _ in result.pairs} == set(range(m))
        assert {j for _, j, _ in result.pairs} == set(range(n))
        if strategy is not Strategy.SAME_ANSWER:
            assert list(result.pairs) == sorted(result.pairs, key=lambda p: (-p[2], p[0], p[1]))
    example = make_example(retrieved_texts=pools[3, 2][0], generated_texts=pools[3, 2][1])
    scorer = LexicalMockScorer.from_examples([example])
    smaller = build_matrix(make_example(retrieved_texts=("Don Shula won",)), scorer, CombineMode.CUTOFF)
    with pytest.raises(ContractViolation, match="matrix is 2x1 but the dataset has 3x2"):
        match(strategy, example, smaller, 17)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_permuted_retrieved_pool_permutes_the_columns_and_keeps_the_optimum(k, seed):
    """Continuous weights, drawn per passage text, are tie-free: the optimum pairs the same passages."""
    rng, probabilities = random.Random(seed), {}
    text_key = lambda req: (req.kind, req.retrieved_text, req.generated_text)
    scorer = SimpleNamespace(score=lambda req: probabilities.setdefault(text_key(req), rng.random()))
    example = make_example(retrieved_texts=[f"r{j}" for j in range(k)], generated_texts=[f"g{i}" for i in range(k)])
    order = rng.sample(range(k), k)
    permuted = replace(example, retrieved=tuple(example.retrieved[j] for j in order))
    matrix, moved = build_matrix(example, scorer, CombineMode.PRODUCT), build_matrix(permuted, scorer, CombineMode.PRODUCT)
    assert moved.evidentiality == tuple(matrix.evidentiality[j] for j in order)
    assert moved.consistency == tuple(tuple(row[j] for j in order) for row in matrix.consistency)
    before, after = match(Strategy.OPTIMAL, example, matrix, 0), match(Strategy.OPTIMAL, permuted, moved, 0)
    assert after.total_weight == before.total_weight
    assert sorted((i, order[j]) for i, j, _ in after.pairs) == sorted((i, j) for i, j, _ in before.pairs)
