"""Per-question compatibility matrices from discriminator probabilities.

A matrix holds what the discriminators return: one evidentiality
probability per retrieved passage and one consistency probability per
(generated, retrieved) pair. A pair's combined score either multiplies the
two or, in cutoff mode, keeps the consistency probability only when the
retrieved passage's evidentiality strictly exceeds 0.5 (zero otherwise).
The cutoff binarizes a poorly calibrated evidentiality signal so that
non-evidential pairs can never outrank evidential ones during matching.

A probability is checked where it enters, at the wire or a cache entry
(``providers``), then once by the matrix, whether ``build_matrix`` or a dump
builds it: a ragged or empty grid, or a value NaN or outside [0, 1], raises.

The matrix dump (``matrices.jsonl``) holds one record per question,
``{"question_id", "mode", "evidentiality": [N], "consistency": [[N] x M]}``;
combined scores are recomputed from it, which gives back the same floats.
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


@dataclass(slots=True)
class CompatibilityMatrix:
    """Discriminator scores of one question: ``evidentiality[j]`` of
    retrieved passage j and ``consistency[i][j]`` of the pair (generated
    passage i, retrieved passage j). M and N are the grid's shape. A ragged
    or empty grid, or a value NaN or outside [0, 1], raises ContractViolation."""

    question_id: str
    evidentiality: tuple[float, ...]
    consistency: tuple[tuple[float, ...], ...]
    mode: CombineMode

    def __post_init__(self):
        for field, rows in (("evidentiality", (self.evidentiality,)), ("consistency", self.consistency)):
            bad = [p for row in rows for p in row if not 0.0 <= p <= 1.0]  # NaN fails the test too
            if bad:
                raise ContractViolation(f"{field} {bad[0]!r} outside [0,1]")
        lengths = sorted({len(row) for row in self.consistency})
        if lengths != [self.n] or self.n == 0:
            raise ContractViolation(f"ragged or empty grid: rows of {lengths} values, {self.n} retrieved passages")

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
        return {
            "question_id": self.question_id,
            "mode": self.mode.value,
            "evidentiality": self.evidentiality,
            "consistency": self.consistency,
        }


def build_matrix(example: QAExample, scorer, mode: CombineMode) -> CompatibilityMatrix:
    """Score all M x N pairs of one question in one ``scorer.score_many`` call.

    The batch holds N evidentiality queries (evidentiality depends only on
    the retrieved passage), then M*N consistency queries by generated
    passage; the scorer answers one float per query, in order. A remote
    scorer keeps up to 4 in flight per client, which ``--workers`` up to 4
    does not raise, and sends none after a failed one. A probability is
    checked at the wire or cache entry, then once by the matrix. A scorer
    failure, or a probability the matrix rejects, propagates: no value is
    imputed, and the caller records the question as failed.
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
    requests += [ScoreRequest(ScoreKind.CONSISTENCY, question, r, g, qid) for g in generated for r in retrieved]
    values = list(scorer.score_many(requests))
    return CompatibilityMatrix(
        question_id=qid,
        evidentiality=tuple(values[:n]),
        consistency=tuple(tuple(values[start : start + n]) for start in range(n, len(values), n)),
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
    return CompatibilityMatrix(
        question_id=rec["question_id"],
        evidentiality=_probabilities(rec["evidentiality"], "evidentiality"),
        consistency=tuple(_probabilities(row, "consistency") for row in rec["consistency"]),
        mode=member(CombineMode, rec["mode"]),
    )


def load_matrix_dump(path: str | Path) -> dict[str, CompatibilityMatrix]:
    """Read a dump back, by question id in file order.

    A record that does not have the dump's shape (an old per-cell record
    included), a ragged grid, a probability that is NaN or outside [0, 1], an
    unknown mode or a repeated question raises ContractViolation naming the
    file and line.
    """
    return read_keyed(path, "matrix", _matrix)
