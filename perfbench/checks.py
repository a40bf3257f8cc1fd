"""Correctness checks that the benchmark computes itself.

Expected values come from the simulator's ground truth (the corpus and
truth files written by ``pairqa simulate``) and, on remote workloads, from
the stand-in scorer's probability function, never from the program's own
intermediate files. Each check returns a list of failure messages; an
empty list is a pass. All checks hold for any seed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from scipy.optimize import linear_sum_assignment

from standin import probability


@dataclass(frozen=True)
class Chain:
    text: str
    supports: bool


@dataclass(frozen=True)
class Question:
    question_id: str
    question: str
    retrieved: tuple[Chain, ...]
    generated: tuple[Chain, ...]

    @property
    def n(self) -> int:
        return len(self.retrieved)

    @property
    def m(self) -> int:
        return len(self.generated)


def read_records(path: str | Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load_ground_truth(corpus_path: str | Path, truth_path: str | Path) -> dict[str, Question]:
    """Pools in corpus order, each chain flagged with its simulator truth."""
    supports = {}
    for rec in read_records(truth_path):
        for chain in rec["chains"]:
            supports[chain["id"]] = bool(chain["supports"])

    def pool(raw) -> tuple[Chain, ...]:
        chains = []
        for entry in raw:
            segments = [entry] if isinstance(entry, dict) else entry
            text = " ".join(seg["text"] for seg in segments)
            chains.append(Chain(text, supports[segments[0]["id"]]))
        return tuple(chains)

    return {
        rec["question_id"]: Question(
            rec["question_id"], rec["question"], pool(rec["retrieved"]), pool(rec["generated"])
        )
        for rec in read_records(corpus_path)
    }


def expected_weights(q: Question, remote_seed: int | None) -> list[list[float]]:
    """Cutoff-combined M x N grid: the lexical scorer gives 0/1 answer
    containment, the stand-in scorer its seeded continuous probability."""
    if remote_seed is None:
        ev = [1.0 if r.supports else 0.0 for r in q.retrieved]
        cons = [[1.0 if g.supports else 0.0 for _ in q.retrieved] for g in q.generated]
    else:
        ev = [
            probability(
                {"kind": "evidentiality", "question": q.question, "retrieved": r.text, "generated": None},
                r.supports,
                remote_seed,
            )
            for r in q.retrieved
        ]
        cons = [
            [
                probability(
                    {"kind": "consistency", "question": q.question, "retrieved": r.text, "generated": g.text},
                    g.supports,
                    remote_seed,
                )
                for r in q.retrieved
            ]
            for g in q.generated
        ]
    return [[cons[i][j] if ev[j] > 0.5 else 0.0 for j in range(q.n)] for i in range(q.m)]


def check_matchings(path: Path, truth: dict[str, Question], remote_seed: int | None) -> list[str]:
    """Every matching is a valid assignment of the cyclically equalized
    grid, carries the true pair weights, and its total equals scipy's
    optimum on that grid."""
    failures = []
    seen = set()
    for rec in read_records(path):
        qid = rec["question_id"]
        seen.add(qid)
        q = truth.get(qid)
        if q is None:
            failures.append(f"matching for unknown question {qid}")
            continue
        w = expected_weights(q, remote_seed)
        k = max(q.m, q.n)
        pairs = rec["pairs"]
        rows = sorted(i for i, _, _ in pairs)
        cols = sorted(j for _, j, _ in pairs)
        if rows != sorted(r % q.m for r in range(k)) or cols != sorted(c % q.n for c in range(k)):
            failures.append(f"{qid}: pairs are not an assignment of the equalized {k}x{k} grid")
            continue
        wrong = [(i, j) for i, j, s in pairs if s != w[i][j]]
        if wrong:
            failures.append(f"{qid}: pair weights differ from the scores at {wrong[:3]}")
            continue
        grid = [[w[r % q.m][c % q.n] for c in range(k)] for r in range(k)]
        r_idx, c_idx = linear_sum_assignment(grid, maximize=True)
        optimum = math.fsum(grid[r][c] for r, c in zip(r_idx, c_idx))
        total = rec["total_weight"]
        tolerance = 1e-9 * max(1.0, abs(optimum))
        if abs(total - optimum) > tolerance or abs(math.fsum(s for _, _, s in pairs) - total) > tolerance:
            failures.append(f"{qid}: total_weight {total!r} but the optimum is {optimum!r}")
    missing = set(truth) - seen
    if missing:
        failures.append(f"{len(missing)} questions have no matching, e.g. {sorted(missing)[0]}")
    return failures


def check_mined_labels(out: Path, truth: dict[str, Question]) -> list[str]:
    """Single-pivot soundness: evidentiality marks exactly the pivot
    positive; consistency labels exactly the (generated, pivot) pairs,
    positive when the generated passage is faithful."""
    expected_ev: Counter = Counter()
    expected_cons: Counter = Counter()
    for q in truth.values():
        pivots = [r for r in q.retrieved if r.supports]
        if len(pivots) != 1:
            return [f"{q.question_id}: corpus is not single-pivot"]
        expected_ev[(q.question, pivots[0].text, 1)] += 1
        for g in q.generated:
            expected_cons[(q.question, g.text, pivots[0].text, int(g.supports))] += 1
    mined_ev = Counter(
        (r["question"], r["retrieved"], r["label"]) for r in read_records(out / "labels.evidentiality.jsonl")
    )
    mined_cons = Counter(
        (r["question"], r["generated"], r["retrieved"], r["label"])
        for r in read_records(out / "labels.consistency.jsonl")
    )
    failures = []
    for kind, mined, expected in (("evidentiality", mined_ev, expected_ev), ("consistency", mined_cons, expected_cons)):
        if mined != expected:
            extra = sum((mined - expected).values())
            lost = sum((expected - mined).values())
            failures.append(f"{kind} labels differ from ground truth: {extra} unexpected, {lost} missing")
    return failures


def check_conflicts(out: Path, truth: dict[str, Question]) -> list[str]:
    """Conflicting rates and pair-type fractions agree with ground-truth counts."""
    failures = []
    stats = {r["question_id"]: r for r in read_records(out / "conflict_stats.jsonl")}
    if set(stats) != set(truth):
        failures.append(f"conflict stats cover {len(stats)} of {len(truth)} questions")
    cells = Counter()
    for qid, q in truth.items():
        n_a = sum(r.supports for r in q.retrieved)
        m_a = sum(g.supports for g in q.generated)
        cells["compatible"] += n_a * m_a
        cells["conflicting"] += n_a * (q.m - m_a)
        cells["non_evidential"] += (q.n - n_a) * q.m
        rec = stats.get(qid)
        if rec is None:
            continue
        rate = n_a * (q.m - m_a) / (q.n * q.m)
        if (rec["n"], rec["m"], rec["n_a"], rec["m_a"]) != (q.n, q.m, n_a, m_a) or abs(
            rec["conflicting_rate"] - rate
        ) > 1e-12:
            failures.append(f"{qid}: conflict stats {rec} but ground truth gives n_a={n_a} m_a={m_a}")
    total = sum(cells.values())
    fractions = {r["type"]: r["fraction"] for r in read_records(out / "pair_types.jsonl")}
    for pair_type, count in cells.items():
        if abs(fractions.get(pair_type, -1.0) - count / total) > 1e-12:
            failures.append(f"pair type {pair_type}: {fractions.get(pair_type)} but ground truth gives {count / total}")
    return failures


def _content(path: Path):
    if path.suffix == ".jsonl":
        return read_records(path)
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    return path.read_bytes()


def same_content(a: Path, b: Path) -> list[str]:
    """Compare two output directories over parsed records, so that an
    encoding change is not a difference. Stage reports are skipped: they
    may carry timings."""

    def files(root: Path) -> set[str]:
        return {
            str(p.relative_to(root))
            for p in root.rglob("*")
            if p.is_file() and not p.name.endswith("_report.json")
        }

    names_a, names_b = files(a), files(b)
    failures = [f"{name} exists in only one run" for name in sorted(names_a ^ names_b)]
    failures += [
        f"{name} differs between two runs with one seed"
        for name in sorted(names_a & names_b)
        if _content(a / name) != _content(b / name)
    ]
    return failures
