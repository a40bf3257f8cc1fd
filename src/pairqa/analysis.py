"""Conflict diagnostics: conflicting rate, binned EM breakdowns,
pair-type distributions, and label confusion matrices.

The conflicting rate of a question is ``N_A * (M - M_A) / (N * M)``:
the fraction of (generated, retrieved) pairs where the retrieved passage
contains a gold answer string and the generated one does not. Answer
containment, not discriminator output, defines it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import QAExample, contains_answer, exact_match
from .errors import ContractViolation
from .lineio import atomic_open, clipped
from .scoring import CompatibilityMatrix, PairType

# Left-closed bins; the last bin includes 1.0.
BIN_EDGES = ((0.0, 0.1), (0.1, 0.2), (0.2, 0.3), (0.3, 0.4), (0.4, 0.5), (0.5, 1.0))


@dataclass(slots=True)
class ConflictStats:
    question_id: str
    n: int
    m: int
    n_a: int
    m_a: int
    conflicting_rate: float

    def to_record(self) -> dict:
        return {
            "question_id": self.question_id,
            "n": self.n,
            "m": self.m,
            "n_a": self.n_a,
            "m_a": self.m_a,
            "conflicting_rate": self.conflicting_rate,
        }


@dataclass(slots=True)
class Bin:
    lower: float
    upper: float
    count: int
    subset_fraction: float
    em_by_method: Mapping[str, float]


def conflicting_rate(example: QAExample) -> ConflictStats:
    if example.n < 1:
        raise ContractViolation(f"{clipped(example.question_id)}: empty retrieved pool")
    if example.m < 1:
        raise ContractViolation(f"{clipped(example.question_id)}: empty generated pool")
    n_a = sum(contains_answer(c, example.answers) for c in example.retrieved)
    m_a = sum(contains_answer(c, example.answers) for c in example.generated)
    rate = n_a * (example.m - m_a) / (example.n * example.m)
    return ConflictStats(
        question_id=example.question_id,
        n=example.n,
        m=example.m,
        n_a=n_a,
        m_a=m_a,
        conflicting_rate=rate,
    )


def bin_index(rate: float) -> int:
    """Index into BIN_EDGES of a rate in [0, 1]; bins are left-closed, the last one closed."""
    for idx, (lower, upper) in enumerate(BIN_EDGES):
        if lower <= rate < upper:
            return idx
    return len(BIN_EDGES) - 1


def bin_report(
    stats: Sequence[ConflictStats],
    predictions: Mapping[str, Mapping[str, str]],
    examples: Iterable[QAExample],
) -> tuple[Bin, ...]:
    """The bins of ``BIN_EDGES``, each with its share of ``stats`` and the EM
    of each method in ``predictions`` (method -> qid -> answer), which holds
    a prediction of every method for every question in ``stats``, so all
    methods are compared on the same questions."""
    answers = {ex.question_id: ex.answers for ex in examples}
    methods = sorted(predictions)
    kept = [(bin_index(stat.conflicting_rate), stat.question_id) for stat in stats]
    total = len(kept)
    bins = []
    for idx, (lower, upper) in enumerate(BIN_EDGES):
        qids = [qid for b, qid in kept if b == idx]
        em_by_method = {}
        for method in methods:
            if qids:
                hits = sum(exact_match(predictions[method][qid], answers[qid]) for qid in qids)
                em_by_method[method] = hits / len(qids)
            else:
                em_by_method[method] = 0.0
        bins.append(
            Bin(
                lower=lower,
                upper=upper,
                count=len(qids),
                subset_fraction=(len(qids) / total) if total else 0.0,
                em_by_method=em_by_method,
            )
        )
    return tuple(bins)


def pair_type_distribution(matrices: Sequence[CompatibilityMatrix]) -> dict[PairType, float]:
    """Fraction of each pair type over all cells of one or more matrices."""
    counts = {t: 0 for t in PairType}
    total = 0
    for matrix in matrices:
        for i in range(matrix.m):
            for j in range(matrix.n):
                counts[matrix.pair_type(i, j)] += 1
        total += matrix.m * matrix.n
    return {t: counts[t] / total for t in PairType}


def label_confusion(
    predicted: Sequence[PairType], annotated: Sequence[PairType]
) -> tuple[dict[PairType, dict[PairType, int]], float]:
    """3x3 counts[predicted][annotated] and overall accuracy, over two
    non-empty lists of one length (one entry each per annotation record)."""
    counts = {p: {a: 0 for a in PairType} for p in PairType}
    agree = 0
    for p, a in zip(predicted, annotated):
        counts[p][a] += 1
        agree += p is a
    return counts, agree / len(predicted)


def bin_report_rows(bins: Sequence[Bin]) -> Iterable[dict]:
    for b in bins:
        for method, em in sorted(b.em_by_method.items()):
            yield {
                "bin_lower": b.lower,
                "bin_upper": b.upper,
                "fraction": b.subset_fraction,
                "method": method,
                "em": em,
            }


def write_bin_report_csv(path: str | Path, bins: Sequence[Bin]) -> None:
    with atomic_open(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=["bin_lower", "bin_upper", "fraction", "method", "em"])
        writer.writeheader()
        for row in bin_report_rows(bins):
            writer.writerow(row)


def format_bin_report(bins: Sequence[Bin]) -> str:
    methods = sorted(bins[0].em_by_method) if bins else []
    header = ["bin", "subset%"] + [f"EM({m})" for m in methods]
    lines = ["  ".join(f"{h:>14}" for h in header)]
    for b in bins:
        row = [f"{b.lower:.1f} - {b.upper:.1f}", f"{100 * b.subset_fraction:13.1f}%"]
        row += [f"{100 * b.em_by_method[m]:14.1f}" for m in methods]
        lines.append("  ".join(f"{c:>14}" for c in row))
    lines.append(f"questions: {sum(b.count for b in bins)}")
    return "\n".join(lines)
