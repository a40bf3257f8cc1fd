"""Per-question compatibility matrices from discriminator probabilities.

A pair's combined score either multiplies the two probabilities or, in
cutoff mode, keeps the consistency probability only when the retrieved
passage's evidentiality strictly exceeds 0.5 (zero otherwise). The cutoff
binarizes a poorly calibrated evidentiality signal so that non-evidential
pairs can never outrank evidential ones during matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import QAExample
from .errors import ContractViolation
from .lineio import read_jsonl, write_jsonl
from .providers import ScoreKind, ScoreRequest


class CombineMode(Enum):
    CUTOFF = "cutoff"
    PRODUCT = "product"


class PairType(Enum):
    COMPATIBLE = "compatible"
    CONFLICTING = "conflicting"
    NON_EVIDENTIAL = "non_evidential"


@dataclass(frozen=True)
class PairScore:
    lp_index: int
    rp_index: int
    evidentiality: float
    consistency: float
    combined: float


@dataclass(frozen=True)
class CompatibilityMatrix:
    """Dense M x N grid of pair scores for one question.

    ``mode`` is None for matrices reconstructed from a dump, where the
    combined scores are already materialized.
    """

    question_id: str
    m: int
    n: int
    scores: tuple[tuple[PairScore, ...], ...]
    mode: CombineMode | None = CombineMode.CUTOFF

    def cell(self, i: int, j: int) -> PairScore:
        return self.scores[i][j]

    def combined_grid(self) -> list[list[float]]:
        return [[cell.combined for cell in row] for row in self.scores]


def combine(evidentiality: float, consistency: float, mode: CombineMode) -> float:
    """Combined compatibility of one pair; cutoff uses a strict > 0.5 gate."""
    for name, p in (("evidentiality", evidentiality), ("consistency", consistency)):
        if not 0.0 <= p <= 1.0:
            raise ContractViolation(f"{name} {p!r} outside [0,1]")
    if mode is CombineMode.CUTOFF:
        return consistency if evidentiality > 0.5 else 0.0
    return evidentiality * consistency


def classify_pair(score: PairScore) -> PairType:
    if score.evidentiality <= 0.5:
        return PairType.NON_EVIDENTIAL
    if score.consistency <= 0.5:
        return PairType.CONFLICTING
    return PairType.COMPATIBLE


def build_matrix(example: QAExample, scorer, mode: CombineMode) -> CompatibilityMatrix:
    """Score all M x N pairs of one question.

    Issues exactly N evidentiality queries (evidentiality depends only on
    the retrieved passage, so each column shares one value) and M*N
    consistency queries. A scorer failure propagates: no value is imputed,
    and the caller records the question as failed.
    """
    if example.m < 1 or example.n < 1:
        raise ContractViolation(
            f"{example.question_id}: matching needs M >= 1 and N >= 1 (got M={example.m}, N={example.n})"
        )
    evidentiality = [
        scorer.score(
            ScoreRequest(
                kind=ScoreKind.EVIDENTIALITY,
                question=example.question,
                retrieved_text=chain.text(),
                question_id=example.question_id,
                retrieved_id=chain.id,
            )
        )
        for chain in example.retrieved
    ]
    rows = []
    for i, lp in enumerate(example.generated):
        row = []
        for j, rp in enumerate(example.retrieved):
            consistency = scorer.score(
                ScoreRequest(
                    kind=ScoreKind.CONSISTENCY,
                    question=example.question,
                    retrieved_text=rp.text(),
                    generated_text=lp.text(),
                    question_id=example.question_id,
                    retrieved_id=rp.id,
                    generated_id=lp.id,
                )
            )
            row.append(
                PairScore(
                    lp_index=i,
                    rp_index=j,
                    evidentiality=evidentiality[j],
                    consistency=consistency,
                    combined=combine(evidentiality[j], consistency, mode),
                )
            )
        rows.append(tuple(row))
    return CompatibilityMatrix(
        question_id=example.question_id, m=example.m, n=example.n, scores=tuple(rows), mode=mode
    )


def matrix_to_records(matrix: CompatibilityMatrix) -> Iterable[dict]:
    for row in matrix.scores:
        for cell in row:
            yield {
                "question_id": matrix.question_id,
                "i": cell.lp_index,
                "j": cell.rp_index,
                "evidentiality": cell.evidentiality,
                "consistency": cell.consistency,
                "combined": cell.combined,
            }


def write_matrix_dump(path: str | Path, matrices: Sequence[CompatibilityMatrix]) -> int:
    return write_jsonl(path, (rec for matrix in matrices for rec in matrix_to_records(matrix)))


def load_matrix_dump(path: str | Path) -> list[CompatibilityMatrix]:
    """Rebuild matrices from a dump, in first-seen question order.

    Dumps carry materialized scores but not the combine mode, so the
    reconstructed matrices have ``mode=None``.
    """
    cells: dict[str, dict[tuple[int, int], PairScore]] = {}
    for lineno, rec in read_jsonl(path):
        try:
            qid = rec["question_id"]
            cell = PairScore(
                lp_index=int(rec["i"]),
                rp_index=int(rec["j"]),
                evidentiality=float(rec["evidentiality"]),
                consistency=float(rec["consistency"]),
                combined=float(rec["combined"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ContractViolation(f"{path} line {lineno}: bad matrix record: {exc}") from None
        cells.setdefault(qid, {})[(cell.lp_index, cell.rp_index)] = cell
    matrices = []
    for qid, grid in cells.items():
        m = max(i for i, _ in grid) + 1
        n = max(j for _, j in grid) + 1
        if len(grid) != m * n:
            raise ContractViolation(f"{qid}: matrix dump is missing cells ({len(grid)} of {m * n})")
        rows = tuple(tuple(grid[(i, j)] for j in range(n)) for i in range(m))
        matrices.append(
            CompatibilityMatrix(question_id=qid, m=m, n=n, scores=rows, mode=None)
        )
    return matrices
