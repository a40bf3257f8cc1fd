#!/usr/bin/env python3
"""End-to-end demo on a synthetic corpus with offline backends.

Synthesizes a corpus, scores every pair with the lexical scorer, runs all
four matching strategies, serializes reader inputs from the optimal
matching, mines silver labels against the simulator's reader, and prints
the conflict report. Artifacts land in the output directory, one file per
stage; each strategy's matchings and match report land in
<out>/<strategy>/.

Usage:
    python scripts/demo_pipeline.py --out runs/demo --questions 50 --seed 7
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pairqa.cli import main as pairqa


def run(args: list) -> None:
    argv = [str(a) for a in args]
    print(f"\n$ pairqa {' '.join(argv)}")
    code = pairqa(argv)
    if code != 0:
        raise SystemExit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/demo")
    parser.add_argument("--questions", type=int, default=50)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    out = Path(args.out)
    run(
        [
            "simulate",
            "--out", out,
            "--seed", args.seed,
            "--simulate.num_questions", args.questions,
            "--simulate.single_pivot", "true",
        ]
    )
    dataset = out / "sim_corpus.jsonl"
    truth = out / "sim_truth.jsonl"

    run(["score", "--dataset", dataset, "--out", out, "--scoring-mode", "cutoff"])
    # each strategy's matchings and match report land in <out>/<strategy>; serialize reads the optimal one
    matrices, matchings = out / "matrices.jsonl", out / "optimal" / "matchings.jsonl"
    for strategy in ("optimal", "greedy", "random", "same-answer"):
        run(["match", "--dataset", dataset, "--out", out / strategy, "--strategy", strategy, "--matching.matrices", matrices])
    run(["serialize", "--dataset", dataset, "--out", out, "--variant", "pairwise", "--serialize.matchings", matchings])
    run(["mine", "--dataset", dataset, "--out", out, "--predictor.truth", truth])
    run(["analyze", "--dataset", dataset, "--out", out])
    print(f"\nartifacts in {out}/")


if __name__ == "__main__":
    main()
