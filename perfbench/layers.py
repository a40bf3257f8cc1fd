"""Per-layer metrics from traced stage processes, and the solver and cache
micro-benches.

A traced pass runs every stage of a workload under ``traced_cli.py``; each
stage process leaves one spans file. The metrics below sum a pass over its
stage processes. Each metric names the wrapped calls it needs; when the
program no longer has one of them, the metric is reported as unmeasured.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from scipy.optimize import linear_sum_assignment

STAGE_FIELDS = ("wall_s", "cpu_s", "startup_s", "ingest_s", "compute_s", "write_s")
SOLVER_SIZES = (10, 20, 40, 80)
SOLVER_REPEATS = {10: 15, 20: 9, 40: 5, 80: 3}
BINARY_DENSITY = 0.15
CACHE_ENTRIES = 400
CACHE_ROUNDS = 5


@dataclass
class TracedStage:
    stage: str
    wall: float
    cpu: float
    t_spawn: float
    record: dict

    def breakdown(self) -> dict[str, float]:
        rec = self.record
        ingest = rec["outer"].get("cat:ingest", [0, 0.0])[1]
        write = rec["outer"].get("cat:write", [0, 0.0])[1]
        main = rec["main_s"]
        return {
            "wall_s": self.wall,
            "cpu_s": self.cpu,
            "startup_s": rec["t_ready"] - self.t_spawn,
            "ingest_s": ingest,
            "compute_s": main - ingest - write,
            "write_s": write,
            "exit_s": self.wall - (rec["t_main"] - self.t_spawn) - main,
        }


class PassTrace:
    """The wrapped-call aggregates of one traced pass, summed over stages."""

    def __init__(self, stages: list[TracedStage]):
        self.stages = stages
        self.stats: dict[str, list] = {}
        self.outer: dict[str, list] = {}
        self.values: dict[str, float] = {}
        self.unmeasured: set[str] = set()
        self.span_ms: dict[str, list[float]] = {}
        for ts in stages:
            rec = ts.record
            for name, (count, total, own) in rec["stats"].items():
                agg = self.stats.setdefault(name, [0, 0.0, 0.0])
                agg[0] += count
                agg[1] += total
                agg[2] += own
            for group, (count, total) in rec["outer"].items():
                agg = self.outer.setdefault(group, [0, 0.0])
                agg[0] += count
                agg[1] += total
            for key, value in rec["values"].items():
                self.values[key] = self.values.get(key, 0) + value
            self.unmeasured.update(rec["unmeasured"])
            for _, name, start, end, _, _ in rec["spans"]:
                self.span_ms.setdefault(name, []).append(1000.0 * (end - start))

    def count(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def own(self, name: str) -> float:
        """Self time: duration minus the wrapped calls made inside."""
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def group_count(self, group: str) -> int:
        return self.outer.get(group, [0])[0]

    def group_total(self, group: str) -> float:
        return self.outer.get(group, [0, 0.0])[1]

    def value(self, key: str) -> float:
        return self.values.get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


SCORERS = [f"providers.{c}.score" for c in ("LexicalMockScorer", "FileScoreStore", "RemoteScorer", "CachingBackend")]
PREDICTORS = ["providers.RemotePredictor.predict", "providers.CachingBackend.predict", "sim.SimPredictor.predict"]
ANSWER_CHECKS = ["corpus.text_contains_answer", "corpus.exact_match"]
HTTP = "requests.Session.request"
CACHE_GET = "providers.ResponseCache.get"
CACHE_PUT = "providers.ResponseCache.put"
MINERS = ["mining.mine_evidentiality", "mining.mine_consistency"]

# name -> (unit, wrapped calls it needs, value of one traced pass). The
# needs are groups of alternatives: the metric is unmeasured when every
# name of some group is missing. Self times leave out every wrapped call
# made inside, so scoring and mining self times exclude scorer and reader
# calls, answer checks and line reads and writes.
LAYER_METRICS = {
    "corpus.read_examples_s": ("s", [["corpus.read_examples"]], lambda t: t.total("corpus.read_examples")),
    "corpus.answer_checks": ("count", [ANSWER_CHECKS], lambda t: sum(t.count(n) for n in ANSWER_CHECKS)),
    "corpus.answer_checks_s": ("s", [ANSWER_CHECKS], lambda t: sum(t.total(n) for n in ANSWER_CHECKS)),
    "lineio.read_records": ("count", [["lineio.read_jsonl"]], lambda t: t.count("lineio.read_jsonl")),
    "lineio.read_s": ("s", [["lineio.read_jsonl"]], lambda t: t.total("lineio.read_jsonl")),
    "lineio.write_records": ("count", [["lineio.write_jsonl"]], lambda t: t.value("write_records")),
    "lineio.write_s": ("s", [["lineio.write_jsonl"]], lambda t: t.total("lineio.write_jsonl")),
    "providers.score_calls": ("count", [SCORERS], lambda t: t.group_count("score")),
    "providers.score_s": ("s", [SCORERS], lambda t: t.group_total("score")),
    "providers.predict_calls": ("count", [PREDICTORS], lambda t: t.group_count("predict")),
    "providers.predict_s": ("s", [PREDICTORS], lambda t: t.group_total("predict")),
    "providers.http_requests": ("count", [[HTTP]], lambda t: t.count(HTTP)),
    "providers.http_s": ("s", [[HTTP]], lambda t: t.total(HTTP)),
    "providers.http_failures": (
        "count",
        [[HTTP]],
        lambda t: t.value("http_failures") + t.value(f"{HTTP}:raised"),
    ),
    "providers.cache_gets": ("count", [[CACHE_GET]], lambda t: t.count(CACHE_GET)),
    "providers.cache_hit_ratio": (
        "ratio",
        [[CACHE_GET]],
        lambda t: _ratio(t.value("cache_hits"), t.count(CACHE_GET)),
    ),
    "providers.cache_get_s": ("s", [[CACHE_GET]], lambda t: t.total(CACHE_GET)),
    "providers.cache_puts": ("count", [[CACHE_PUT]], lambda t: t.count(CACHE_PUT)),
    "providers.cache_put_s": ("s", [[CACHE_PUT]], lambda t: t.total(CACHE_PUT)),
    "scoring.build_matrix_s": (
        "s",
        [["scoring.build_matrix"], SCORERS],
        lambda t: t.own("scoring.build_matrix"),
    ),
    "scoring.dump_write_s": ("s", [["scoring.write_matrix_dump"]], lambda t: t.total("scoring.write_matrix_dump")),
    "scoring.dump_load_s": ("s", [["scoring.load_matrix_dump"]], lambda t: t.total("scoring.load_matrix_dump")),
    "scoring.dump_loads": ("count", [["scoring.load_matrix_dump"]], lambda t: t.count("scoring.load_matrix_dump")),
    "matching.optimal_s": ("s", [["matching.match_optimal"]], lambda t: t.total("matching.match_optimal")),
    "readerio.serialize_s": ("s", [["readerio.serialize_variant"]], lambda t: t.total("readerio.serialize_variant")),
    "readerio.write_s": ("s", [["readerio.write_reader_examples"]], lambda t: t.total("readerio.write_reader_examples")),
    "mining.self_s": (
        "s",
        [MINERS, PREDICTORS],
        lambda t: sum(t.own(n) for n in MINERS),
    ),
    "mining.reader_calls": ("count", [MINERS, PREDICTORS], lambda t: t.group_count("predict")),
    "mining.decided_ratio": ("ratio", [MINERS], lambda t: _ratio(t.value("decided"), t.value("labels"))),
    "mining.emit_s": ("s", [["mining.emit_training_records"]], lambda t: t.total("mining.emit_training_records")),
    "analysis.conflicting_rate_s": ("s", [["analysis.conflicting_rate"]], lambda t: t.total("analysis.conflicting_rate")),
    "analysis.pair_types_s": ("s", [["analysis.pair_type_distribution"]], lambda t: t.total("analysis.pair_type_distribution")),
    "sim.reader_calls": ("count", [["sim.SimPredictor.predict"]], lambda t: t.count("sim.SimPredictor.predict")),
    "sim.reader_s": ("s", [["sim.SimPredictor.predict"]], lambda t: t.total("sim.SimPredictor.predict")),
}


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n} samples (too few for a percentile with 10 beyond it)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} samples"


def layer_metrics(traces: list[PassTrace]) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, note): the median over traced passes, or the
    pooled per-call samples for the matching percentiles."""
    unmeasured = set().union(*(t.unmeasured for t in traces))
    out: dict[str, tuple[float, str, str]] = {}
    for name, (unit, needs, fn) in LAYER_METRICS.items():
        lost = [group for group in needs if all(n in unmeasured for n in group)]
        if lost:
            out[name] = (0.0, unit, f"unmeasured: {', '.join(lost[0])} not found")
        else:
            out[name] = (statistics.median(fn(t) for t in traces), unit, "")
    samples = [ms for t in traces for ms in t.span_ms.get("matching.match_optimal", [])]
    if "matching.match_optimal" in unmeasured or not samples:
        for name in ("matching.optimal_p50_ms", "matching.optimal_tail_ms"):
            out[name] = (0.0, "ms", "unmeasured: no match_optimal calls")
    else:
        out["matching.optimal_p50_ms"] = (statistics.median(samples), "ms", f"{len(samples)} calls")
        value, note = tail(samples)
        out["matching.optimal_tail_ms"] = (value, "ms", note)
    stage_names = sorted({ts.stage for t in traces for ts in t.stages})
    for stage in stage_names:
        rows = [ts.breakdown() for t in traces for ts in t.stages if ts.stage == stage]
        for field in STAGE_FIELDS:
            out[f"cli.{stage}.{field}"] = (statistics.median(r[field] for r in rows), "s", "")
    return out


def solver_grid(seed: int, k: int, kind: str) -> list[list[float]]:
    rng = random.Random(f"{seed}:{k}:{kind}")
    if kind == "binary":
        return [[1.0 if rng.random() < BINARY_DENSITY else 0.0 for _ in range(k)] for _ in range(k)]
    return [[rng.random() for _ in range(k)] for _ in range(k)]


def solver_microbench(seed: int) -> tuple[dict[str, tuple[float, str, str]], list[str]]:
    """``matching.match_optimal`` called directly on seeded k x k grids,
    each total checked against scipy's optimum."""
    from pairqa import matching

    out: dict[str, tuple[float, str, str]] = {}
    failures: list[str] = []
    for k in SOLVER_SIZES:
        for kind in ("binary", "continuous"):
            name = f"matching.solve_ms.k{k}.{kind}"
            grid = solver_grid(seed, k, kind)
            graph = matching.WeightedBipartiteGraph.from_weights(grid)
            times = []
            for _ in range(SOLVER_REPEATS[k]):
                start = time.perf_counter()
                result = matching.match_optimal(graph, name)
                times.append(1000.0 * (time.perf_counter() - start))
            rows, cols = linear_sum_assignment(grid, maximize=True)
            optimum = math.fsum(grid[r][c] for r, c in zip(rows, cols))
            if abs(result.total_weight - optimum) > 1e-9 * max(1.0, optimum):
                failures.append(f"{name}: total {result.total_weight!r} but scipy gives {optimum!r}")
            out[name] = (statistics.median(times), "ms", f"median of {len(times)} solves")
    return out, failures


def _words(rng: random.Random, count: int) -> str:
    return " ".join(f"w{rng.randrange(100000)}" for _ in range(count))


def cache_microbench(seed: int, root: Path) -> tuple[dict[str, tuple[float, str, str]], list[str]]:
    """``providers.ResponseCache`` put and get called directly with seeded
    scorer-shaped bodies, a fresh cache directory per round. Every get must
    return what was put. This measures cache reads and writes on every
    workload, including those whose own passes make none."""
    from pairqa import providers

    names = ("providers.cache_put_us", "providers.cache_get_us")
    rng = random.Random(f"{seed}:cache")
    bodies = [
        {"kind": "consistency", "question": _words(rng, 8), "retrieved": _words(rng, 20), "generated": _words(rng, 20)}
        for _ in range(CACHE_ENTRIES)
    ]
    responses = [{"probability": rng.random()} for _ in bodies]
    put_us: list[float] = []
    get_us: list[float] = []
    failures: list[str] = []
    try:
        for r in range(CACHE_ROUNDS):
            cache = providers.ResponseCache(root / f"round{r}")
            start = time.perf_counter()
            for body, response in zip(bodies, responses):
                cache.put("scorer", body, response)
            put_us.append(1e6 * (time.perf_counter() - start) / len(bodies))
            start = time.perf_counter()
            got = [cache.get("scorer", body) for body in bodies]
            get_us.append(1e6 * (time.perf_counter() - start) / len(bodies))
            if got != responses:
                wrong = sum(g != e for g, e in zip(got, responses))
                failures.append(f"round {r}: {wrong} of {len(bodies)} gets did not return what was put")
    except (AttributeError, TypeError) as exc:
        note = f"unmeasured: providers.ResponseCache put/get not found ({exc})"
        return {name: (0.0, "us", note) for name in names}, failures
    note = f"per call, median of {CACHE_ROUNDS} rounds of {CACHE_ENTRIES} calls"
    return {
        "providers.cache_put_us": (statistics.median(put_us), "us", note),
        "providers.cache_get_us": (statistics.median(get_us), "us", note),
    }, failures
