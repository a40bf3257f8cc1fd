"""Pair selection over the compatibility matrix.

The main strategy solves maximum-weight perfect matching on the complete
bipartite graph of generated x retrieved passages in O(n^3), weights
negated internally, by shortest augmenting paths over dual potentials
(Crouse 2016, the scheme of scipy's ``linear_sum_assignment``). Each row's
Dijkstra search scans only the columns it has not scanned yet, prefers a
free column when two tie for the lowest distance (on tied 0/1 weights it
stops at the first free tight column), and applies the dual updates once
per augmentation, to the scanned rows and columns only. Greedy, random,
and same-answer-oracle strategies are provided as baselines.

``match`` is the one place that knows how each strategy uses the example
and its matrix. It equalizes the combined grid once, by cyclic
duplication, so every passage is used at least once; every strategy picks
cells of that graph, which builds each record one way: each pair scores
its cell, the total is an exactly-rounded sum (math.fsum), so equality
comparisons do not depend on summation order, and pairs are sorted by
score, descending, ties by index, except for same-answer, which ranks its
answer-bearing pairs first. Equal-weight optimal matchings resolve to the
lexicographically smallest (lp_index, rp_index) sequence.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import QAExample, contains_answer
from .errors import ContractViolation
from .lineio import integer, member, number, read_keyed
from .scoring import CompatibilityMatrix, PairType

Pair = tuple[int, int, float]


class Strategy(Enum):
    OPTIMAL = "optimal"
    GREEDY = "greedy"
    RANDOM = "random"
    SAME_ANSWER = "same-answer"


@dataclass(slots=True)
class PairMatching:
    question_id: str
    strategy: Strategy
    pairs: tuple[Pair, ...]
    total_weight: float


def load_matchings(path: str | Path) -> dict[str, PairMatching]:
    """Read the records ``write_jsonl`` makes of ``PairMatching``s, by question id in file
    order; a malformed or repeated record raises ContractViolation naming the line."""

    def parse(rec: dict) -> PairMatching:
        return PairMatching(
            question_id=rec["question_id"],
            strategy=member(Strategy, rec["strategy"]),
            pairs=tuple((integer(i), integer(j), number(s)) for i, j, s in rec["pairs"]),
            total_weight=number(rec["total_weight"]),
        )

    return read_keyed(path, "matching", parse)


@dataclass(slots=True)
class WeightedBipartiteGraph:
    """Complete square bipartite weight grid, plus the original index of every
    (possibly duplicated) row and column."""

    weights: tuple[tuple[float, ...], ...]
    row_origin: tuple[int, ...]
    col_origin: tuple[int, ...]

    @classmethod
    def from_weights(cls, weights: Sequence[Sequence[float]]) -> "WeightedBipartiteGraph":
        """The graph of a weight grid from outside the pipeline, which must be
        non-empty and square: ``equalize_weights`` squares the pipeline's own."""
        rows = tuple(tuple(float(w) for w in row) for row in weights)
        k = len(rows)
        if k == 0 or any(len(row) != k for row in rows):
            raise ContractViolation("weight grid must be non-empty and square")
        return cls(weights=rows, row_origin=tuple(range(k)), col_origin=tuple(range(k)))

    def matching(
        self, strategy: Strategy, question_id: str, cells: Iterable[tuple[int, int]], by_score: bool = True
    ) -> PairMatching:
        """The matching that pairs the grid's ``cells`` (i, j): each pair names
        its original passages and scores the cell's weight, the pairs are
        sorted by score, descending, ties by index, if ``by_score`` (else kept
        in cell order), and the total is their exactly-rounded sum."""
        pairs = [(self.row_origin[i], self.col_origin[j], self.weights[i][j]) for i, j in cells]
        return PairMatching(
            question_id=question_id,
            strategy=strategy,
            pairs=tuple(sorted(pairs, key=lambda p: (-p[2], p[0], p[1]))) if by_score else tuple(pairs),
            total_weight=math.fsum(s for _, _, s in pairs),
        )


def equalize_weights(weights: Sequence[Sequence[float]]) -> WeightedBipartiteGraph:
    """Cyclically replicate rows (M<N) or columns (M>N) until square."""
    m, n = len(weights), len(weights[0])
    k = max(m, n)
    row_origin, col_origin = tuple(i % m for i in range(k)), tuple(j % n for j in range(k))
    grid = tuple(tuple(float(weights[ri][cj]) for cj in col_origin) for ri in row_origin)
    return WeightedBipartiteGraph(weights=grid, row_origin=row_origin, col_origin=col_origin)


def _solve_min_assignment(cost: Sequence[Sequence[float]]):
    """Square assignment problem, minimization.

    Shortest augmenting paths over dual potentials (Crouse 2016, the scheme
    of scipy's ``linear_sum_assignment``); O(n^3). Each row is added by one
    Dijkstra search that scans only the columns not yet scanned, and that
    prefers an unassigned column when two tie for the lowest distance, so
    on tied weights it stops at the first free tight column. The duals are
    updated once per augmentation, on the scanned rows and columns only.
    Returns (cols_by_row, u, v) where u/v are the final dual potentials.
    Matched edges are tight (cost - u - v == 0) up to float rounding and
    every other edge has a non-negative reduced cost; the duals certify
    optimality.
    """
    n = len(cost)
    u = [0.0] * n
    v = [0.0] * n
    row4col = [-1] * n
    col4row = [-1] * n
    path = [-1] * n  # path[j]: row from which column j was last reached
    for cur in range(n):
        dist = [math.inf] * n
        remaining = list(range(n))
        scanned: list[int] = []  # columns in scan order; the last one is free
        min_val = 0.0
        i = cur
        while True:
            row = cost[i]
            base = min_val - u[i]
            lowest = math.inf
            index = -1
            for it, j in enumerate(remaining):
                r = base + row[j] - v[j]
                d = dist[j]
                if r < d:
                    path[j] = i
                    dist[j] = d = r
                if d < lowest or (d == lowest and row4col[j] < 0):
                    lowest = d
                    index = it
            min_val = lowest
            j = remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            scanned.append(j)
            i = row4col[j]
            if i < 0:
                break
        u[cur] += min_val
        for c in scanned[:-1]:
            delta = min_val - dist[c]
            u[row4col[c]] += delta
            v[c] -= delta
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row, u, v


_TIGHT_TOL = 1e-9


def match_optimal(graph: WeightedBipartiteGraph, question_id: str = "") -> PairMatching:
    """Maximum-weight perfect matching with deterministic tie-breaking.

    After the assignment solve, ties are resolved row by row toward the
    lexicographically smallest column sequence. For row i, one breadth-first
    search back from its column over the later rows' dual-tight edges finds
    every column an alternating path can free. A smaller column, tight for
    row i, is adopted when such a path frees it and the exactly-rounded
    total still equals w*; the later rows move along that path. An edge is
    tight when its reduced cost is within _TIGHT_TOL (scaled by the largest
    dual) of zero: the duals carry float dust of about 1e-16 per unit, and
    an exact zero test drops tight edges on continuous weights and keeps a
    lexicographically larger optimum.
    """
    weights = graph.weights
    k = len(weights)
    cost = [[-w for w in row] for row in weights]
    assign, u, v = _solve_min_assignment(cost)
    wstar = math.fsum(weights[i][assign[i]] for i in range(k))
    tol = _TIGHT_TOL * max(1.0, *map(abs, u), *map(abs, v))
    tight = [[cost[i][j] - u[i] - v[j] <= tol for j in range(k)] for i in range(k)]

    for i in range(k):
        c0 = assign[i]
        # freed_by[col] = (row, to): moving row from col to column to frees col
        freed_by: dict[int, tuple[int, int] | None] = {c0: None}
        queue = [c0]
        unreached = range(i + 1, k)  # later rows no path has reached yet
        for freed in queue:
            left = []
            for r in unreached:
                if tight[r][freed]:
                    freed_by[assign[r]] = (r, freed)
                    queue.append(assign[r])
                else:
                    left.append(r)
            unreached = left
        for c in sorted(freed_by):
            if c >= c0:
                break
            if not tight[i][c]:
                continue
            trial = list(assign)
            trial[i] = c
            col = c
            while col != c0:
                r, col = freed_by[col]
                trial[r] = col
            if math.fsum(weights[r][trial[r]] for r in range(k)) == wstar:
                assign = trial
                break

    return graph.matching(Strategy.OPTIMAL, question_id, enumerate(assign))


_GREEDY_TYPE_ORDER = (PairType.COMPATIBLE, PairType.CONFLICTING, PairType.NON_EVIDENTIAL)


def match_greedy(
    graph: WeightedBipartiteGraph,
    types: Sequence[Sequence[PairType]],
    question_id: str = "",
) -> PairMatching:
    """Type-staged greedy baseline: compatible pairs first, then
    conflicting, then non-evidential; within a stage, highest score first
    among rows/columns not used by an earlier pair. ``types`` is the
    graph's pair-type grid."""
    k = len(graph.weights)
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    selected: list[tuple[int, int]] = []
    for stage in _GREEDY_TYPE_ORDER:
        cells = [(i, j) for i in range(k) for j in range(k) if types[i][j] is stage]
        cells.sort(key=lambda ij: (-graph.weights[ij[0]][ij[1]], ij[0], ij[1]))
        for i, j in cells:
            if i not in used_rows and j not in used_cols:
                used_rows.add(i)
                used_cols.add(j)
                selected.append((i, j))
    return graph.matching(Strategy.GREEDY, question_id, selected)


def match_random(graph: WeightedBipartiteGraph, seed: int, question_id: str = "") -> PairMatching:
    """Pair the graph's rows with a seeded uniform permutation of its columns."""
    perm = list(range(len(graph.weights)))
    random.Random(seed).shuffle(perm)
    return graph.matching(Strategy.RANDOM, question_id, enumerate(perm))


def match_same_answer(example: QAExample, graph: WeightedBipartiteGraph, seed: int) -> PairMatching:
    """Oracle baseline: pair passages that both contain a gold alias
    (ascending index order), pair the rest uniformly at random, and rank
    the answer-bearing pairs first."""
    lp_has = [contains_answer(c, example.answers) for c in example.generated]
    rp_has = [contains_answer(c, example.answers) for c in example.retrieved]
    row_origin, col_origin = graph.row_origin, graph.col_origin
    k = len(graph.weights)
    answer_cols = [q for q in range(k) if rp_has[col_origin[q]]]
    ptr = 0
    used_cols: set[int] = set()
    answer_cells: list[tuple[int, int]] = []
    rest_rows: list[int] = []
    for p in range(k):
        if lp_has[row_origin[p]] and ptr < len(answer_cols):
            q = answer_cols[ptr]
            ptr += 1
            used_cols.add(q)
            answer_cells.append((p, q))
        else:
            rest_rows.append(p)
    rest_cols = [q for q in range(k) if q not in used_cols]
    random.Random(seed).shuffle(rest_cols)
    cells = answer_cells + list(zip(rest_rows, rest_cols))
    return graph.matching(Strategy.SAME_ANSWER, example.question_id, cells, by_score=False)


def match(strategy: Strategy, example: QAExample, matrix: CompatibilityMatrix, seed: int) -> PairMatching:
    """Pair ``example``'s generated and retrieved passages by ``strategy`` over
    its matrix's combined grid, equalized once. Greedy also stages by the
    matrix's pair types; random and same-answer draw from ``seed``."""
    qid, matrix = example.question_id, matrix.fitted(example)
    graph = equalize_weights(matrix.combined_grid())
    if strategy is Strategy.OPTIMAL:
        return match_optimal(graph, qid)
    if strategy is Strategy.GREEDY:
        types = [[matrix.pair_type(ri, cj) for cj in graph.col_origin] for ri in graph.row_origin]
        return match_greedy(graph, types, qid)
    if strategy is Strategy.RANDOM:
        return match_random(graph, seed, qid)
    return match_same_answer(example, graph, seed)
