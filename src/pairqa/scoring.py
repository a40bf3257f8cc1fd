"""Per-question compatibility matrices from discriminator probabilities.

A matrix holds what the discriminators return: one evidentiality
probability per retrieved passage and one consistency probability per
(generated, retrieved) pair. A pair's combined score either multiplies the
two or, in cutoff mode, keeps the consistency probability only when the
retrieved passage's evidentiality strictly exceeds 0.5 (zero otherwise).
The cutoff binarizes a poorly calibrated evidentiality signal so that
non-evidential pairs can never outrank evidential ones during matching.
So cutoff mode scores the consistency of the open columns only (those of
evidentiality > 0.5), N + M*|open| scorer calls, and the matrix holds None
in the other cells.

A probability is checked where it enters, at the wire or a cache entry
(``providers``), then once by the matrix, whether ``build_matrix`` or a dump
builds it: a ragged or empty grid, a value NaN or outside [0, 1], or a None
in a column the combined score reads, raises.

The matrix dump (``matrices.jsonl``) holds one record per question,
``{"question_id", "mode", "evidentiality": [N], "consistency": [M rows]}``,
a row the scored cells, in column order: all N, or in cutoff mode the open
columns'. Combined scores are recomputed from it, which gives back the same floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from .corpus import QAExample
from .errors import ContractViolation
from .lineio import clipped, member, quoted, read_keyed, write_jsonl
from .providers import ScoreKind, ScoreRequest


class CombineMode(Enum):
    CUTOFF = "cutoff"
    PRODUCT = "product"


class PairType(Enum):
    COMPATIBLE = "compatible"
    CONFLICTING = "conflicting"
    NON_EVIDENTIAL = "non_evidential"


def combine(evidentiality: float, consistency: float, mode: CombineMode) -> float:
    """Combined compatibility of one pair; cutoff uses a strict > 0.5 gate."""
    if mode is CombineMode.CUTOFF:
        return consistency if evidentiality > 0.5 else 0.0
    return evidentiality * consistency


def classify_pair(evidentiality: float, consistency: float) -> PairType:
    if evidentiality <= 0.5:
        return PairType.NON_EVIDENTIAL
    if consistency <= 0.5:
        return PairType.CONFLICTING
    return PairType.COMPATIBLE


def _open_columns(evidentiality: Sequence[float], mode: CombineMode) -> list[int]:
    """The columns the combined score reads: all, or in cutoff mode those of evidentiality > 0.5."""
    bad = [p for p in evidentiality if not 0.0 <= p <= 1.0]  # NaN fails the test too
    if bad:
        raise ContractViolation(f"evidentiality {bad[0]!r} outside [0,1]")
    return [j for j, e in enumerate(evidentiality) if mode is CombineMode.PRODUCT or e > 0.5]


def _spread(values: Sequence[float], columns: list[int], n: int) -> tuple[float | None, ...]:
    """A row of N consistencies: ``values`` if N, else those of ``columns``, None in the other cells."""
    if len(values) == n:
        return tuple(values)
    if len(values) != len(columns):
        raise ContractViolation(f"consistency row of {len(values)} values for {n} columns, {len(columns)} open")
    row = [None] * n
    for j, p in zip(columns, values):
        row[j] = p
    return tuple(row)


@dataclass(slots=True)
class CompatibilityMatrix:
    """Discriminator scores of one question: ``evidentiality[j]`` of retrieved passage j and
    ``consistency[i][j]`` of the pair (generated passage i, retrieved passage j), None where
    cutoff mode did not score it. M and N are the grid's shape. A ragged or empty grid, a value
    NaN or outside [0, 1], or a None in a column the combined score reads raises ContractViolation."""

    question_id: str
    evidentiality: tuple[float, ...]
    consistency: tuple[tuple[float | None, ...], ...]
    mode: CombineMode

    def __post_init__(self):
        columns = _open_columns(self.evidentiality, self.mode)
        lengths = sorted({len(row) for row in self.consistency})
        if lengths != [self.n] or self.n == 0:
            raise ContractViolation(f"ragged or empty grid: rows of {lengths} values, {self.n} retrieved passages")
        bad = [p for row in self.consistency for p in row if p is not None and not 0.0 <= p <= 1.0]  # NaN fails too
        if bad:
            raise ContractViolation(f"consistency {bad[0]!r} outside [0,1]")
        if any(row[j] is None for row in self.consistency for j in columns):
            raise ContractViolation(f"consistency None in a column that {self.mode.value} mode reads")

    @property
    def m(self) -> int:
        return len(self.consistency)

    @property
    def n(self) -> int:
        return len(self.evidentiality)

    def combined_grid(self) -> list[list[float]]:
        return [[combine(e, c, self.mode) for e, c in zip(self.evidentiality, row)] for row in self.consistency]

    def fitted(self, ex: QAExample) -> "CompatibilityMatrix":
        """This matrix, if its shape is the example's pools; else ContractViolation."""
        if (self.m, self.n) != (ex.m, ex.n):
            raise ContractViolation(f"{clipped(ex.question_id)}: matrix is {self.m}x{self.n} but the dataset has {ex.m}x{ex.n}")
        return self

    def pair_type(self, i: int, j: int) -> PairType:
        return classify_pair(self.evidentiality[j], self.consistency[i][j])

    def to_record(self) -> dict:
        columns = _open_columns(self.evidentiality, self.mode)  # a row holds the scored cells only
        consistency = self.consistency if len(columns) == self.n else [[row[j] for j in columns] for row in self.consistency]
        return {
            "question_id": self.question_id,
            "mode": self.mode.value,
            "evidentiality": self.evidentiality,
            "consistency": consistency,
        }


def build_matrix(example: QAExample, scorer, mode: CombineMode) -> CompatibilityMatrix:
    """Score one question, one ``scorer.score`` call per query, in order: its N
    evidentiality queries, then the consistency queries of the open columns by
    generated passage, in column order (M*|open| in cutoff mode, M*N in product
    mode). No query follows a failed one. A scorer failure, or a probability
    the matrix rejects, propagates: no value is imputed, and the caller records
    the question as failed.
    """
    if example.m < 1 or example.n < 1:
        raise ContractViolation(
            f"{clipped(example.question_id)}: matching needs M >= 1 and N >= 1 (got M={example.m}, N={example.n})"
        )

    # the text of every chain, joined once per question rather than per pair
    retrieved = [rp.text() for rp in example.retrieved]
    generated = [lp.text() for lp in example.generated]
    question, qid, n = example.question, example.question_id, example.n
    requests = [ScoreRequest(ScoreKind.EVIDENTIALITY, question, r, None, qid) for r in retrieved]
    evidentiality = tuple(map(scorer.score, requests))
    columns = _open_columns(evidentiality, mode)
    requests = [ScoreRequest(ScoreKind.CONSISTENCY, question, retrieved[j], g, qid) for g in generated for j in columns]
    values, k = list(map(scorer.score, requests)), len(columns)
    return CompatibilityMatrix(
        question_id=qid,
        evidentiality=evidentiality,
        consistency=tuple(_spread(values[i * k : (i + 1) * k], columns, n) for i in range(example.m)),
        mode=mode,
    )


def write_matrix_dump(path: str | Path, matrices: Sequence[CompatibilityMatrix]) -> int:
    return write_jsonl(path, (matrix.to_record() for matrix in matrices))


_DUMP_FIELDS = ["consistency", "evidentiality", "mode", "question_id"]


def _probabilities(values, field: str) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise TypeError(f"{quoted(values)} is not an array")
    for p in values:
        if type(p) is not float and type(p) is not int:
            raise TypeError(f"{field} {quoted(p)} is not a number")
    return tuple(map(float, values))


def _matrix(rec: dict) -> CompatibilityMatrix:
    if sorted(rec) != _DUMP_FIELDS:
        raise ValueError(f"expected string question_id and fields {_DUMP_FIELDS}, got {quoted(sorted(rec))}")
    evidentiality, mode = _probabilities(rec["evidentiality"], "evidentiality"), member(CombineMode, rec["mode"])
    columns, n = _open_columns(evidentiality, mode), len(evidentiality)
    return CompatibilityMatrix(
        question_id=rec["question_id"],
        evidentiality=evidentiality,
        consistency=tuple(_spread(_probabilities(row, "consistency"), columns, n) for row in rec["consistency"]),
        mode=mode,
    )


def load_matrix_dump(path: str | Path) -> dict[str, CompatibilityMatrix]:
    """Read a dump back, by question id in file order.

    A cutoff row holds N values or one per open column. A record that does not
    have the dump's shape (an old per-cell record included), a row of another
    length, a probability that is not a number, NaN or outside [0, 1], an
    unknown mode or a repeated question raises ContractViolation naming the file and line.
    """
    return read_keyed(path, "matrix", _matrix)
