#!/usr/bin/env python3
"""Sweep the simulator's hallucination rate and compare matching strategies.

For each sweep point this reports the corpus-mean conflicting rate, the
total matched weight per strategy, and how often each strategy's
top-ranked pair is classified compatible. The conflicting rate must rise
monotonically with the hallucination rate (same seed, same draws), and
the optimal strategy should never trail random on compatible top pairs.

Usage:
    python scripts/sweep_hallucination.py --questions 200 --n 8 --m 8
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pairqa import analysis, matching, scoring, sim
from pairqa.cli import PipelineConfig, derive_seed
from pairqa.corpus import HopType
from pairqa.errors import ContractViolation
from pairqa.providers import LexicalMockScorer
from pairqa.scoring import CombineMode, PairType


def run_point(p: float, args) -> dict:
    spec = sim.SynthSpec(
        num_questions=args.questions,
        n=args.n,
        m=args.m,
        seed=args.seed,
        p_retrieved_evidential=args.p_evidential,
        p_llm_hallucinated=p,
        hop_type=HopType.SINGLE_HOP,
        single_pivot=False,
    )
    examples, _ = sim.generate_corpus(spec)
    scorer = LexicalMockScorer.from_examples(examples)
    totals = {"optimal": 0.0, "greedy": 0.0, "random": 0.0}
    top_compatible = {"optimal": 0, "greedy": 0, "random": 0}
    rates = []
    for example in examples:
        rates.append(analysis.conflicting_rate(example).conflicting_rate)
        matrix = scoring.build_matrix(example, scorer, CombineMode.CUTOFF)
        seed = derive_seed(spec.seed, example.question_id)
        for name in totals:
            result = matching.match(matching.Strategy(name), example, matrix, seed)
            totals[name] += result.total_weight
            lp, rp, _ = result.pairs[0]
            if matrix.pair_type(lp, rp) is PairType.COMPATIBLE:
                top_compatible[name] += 1
    q = len(examples)
    return {
        "p": p,
        "mean_rate": sum(rates) / q,
        "weights": {k: v / q for k, v in totals.items()},
        "top_compatible": {k: v / q for k, v in top_compatible.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--questions", type=int, default=200)
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--m", type=int, default=8)
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--p-evidential", type=float, default=0.6)
    parser.add_argument(
        "--sweep", type=float, nargs="+", default=[0.0, 0.25, 0.5, 0.75, 1.0]
    )
    args = parser.parse_args()
    # each value is checked by the kind of the simulate field it sets, as `pairqa simulate` checks it
    checks = [
        ("--questions", "simulate.num_questions", args.questions),
        ("--n", "simulate.n", args.n),
        ("--m", "simulate.m", args.m),
        ("--p-evidential", "simulate.p_retrieved_evidential", args.p_evidential),
        *(("--sweep", "simulate.p_llm_hallucinated", p) for p in args.sweep),
    ]
    cfg = PipelineConfig()
    for flag, dotted, value in checks:
        try:
            cfg.set(dotted, value)
        except ContractViolation as exc:
            parser.error(f"{flag}: {exc}")

    header = f"{'p_halluc':>9} {'conflict':>9} | {'w(opt)':>7} {'w(greedy)':>9} {'w(rand)':>8} | {'top-compat opt/greedy/rand':>28}"
    print(header)
    print("-" * len(header))
    points = [run_point(p, args) for p in args.sweep]
    for pt in points:
        w, t = pt["weights"], pt["top_compatible"]
        print(
            f"{pt['p']:>9.2f} {pt['mean_rate']:>9.3f} | "
            f"{w['optimal']:>7.3f} {w['greedy']:>9.3f} {w['random']:>8.3f} | "
            f"{t['optimal']:>9.2f} {t['greedy']:>8.2f} {t['random']:>8.2f}"
        )

    rates = [pt["mean_rate"] for pt in points]
    monotone = all(rates[k] <= rates[k + 1] for k in range(len(rates) - 1))
    dominance = all(
        pt["top_compatible"]["optimal"] >= pt["top_compatible"]["random"] for pt in points
    )
    print(f"\nconflicting rate monotone in hallucination rate: {monotone}")
    print(f"optimal >= random on compatible top pairs at every point: {dominance}")
    if not (monotone and dominance):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
