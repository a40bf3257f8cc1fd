"""Pipeline benchmark for pairqa.

    python3 perfbench/run.py --workload offline-paper --seed 1 --seconds 16 --trace 0

Run from the root of a checkout. The program under test is ``src/pairqa``,
used from source. Each timed stage runs as its own ``python -m pairqa.cli
<stage>`` process with default ``--workers``, as users run it; remote
workloads talk to one stand-in service process (``standin.py``).

* ``--trace 0``: set up five times (three on remote-warm, whose set-up
  includes a cold pass), then repeat the workload's stage sequence for
  ``--seconds`` and print the end-to-end metrics.
* ``--trace 1``: set up once, then alternate untraced passes with passes
  whose stages run under ``traced_cli.py``, run the solver and cache
  micro-benches, and print the per-layer metrics with a per-stage table,
  next to the end-to-end metrics of the untraced passes.

Every run checks the outputs against the simulator's ground truth. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics that ``BENCHMARK.json`` lists for the mode. The
exit code is 1 when a check fails or an item fails, 2 on a usage or set-up
error (such as a checkout without ``src/pairqa``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# set-ups per end-to-end run; setup_s is their median
SETUPS = 5
WARM_SETUPS = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s
MB = 1e6


@dataclass(frozen=True)
class Workload:
    """Inputs (passed to ``pairqa simulate``) and the timed stage sequence.
    Sizes keep one pass at a few seconds, so a run holds several passes."""

    name: str
    questions: int
    n: int
    m: int
    single_pivot: bool
    p_retrieved_evidential: float
    stages: tuple[str, ...]
    remote: bool = False
    warm: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # Offline backends at N = M = 10. Traced: process start-up ~37 % of
        # a pass, JSON line reads and writes ~18 %, answer checks ~10 %,
        # in-process scorer calls ~9 %, the solver ~2 %.
        Workload("offline-paper", 160, 10, 10, True, 0.5, ("score", "match", "serialize", "mine", "analyze")),
        # 80 retrieved x 60 generated with many tied 0/1 weights. Traced:
        # the solver and its tie-break ~30 % of a pass (~2 % elsewhere); the
        # score stage ~40 %; matrix dump write and parse ~19 %; start-up ~20 %.
        Workload("large-pools", 8, 80, 60, False, 0.3, ("score", "match", "serialize")),
        # Remote backends with a fresh cache per pass: one HTTP round trip
        # and one cache write per call. Traced: HTTP ~41 % of a pass, cache
        # writes ~11 %, start-up ~30 %; continuous weights in the solver.
        Workload("remote-cold", 6, 10, 10, True, 0.5, ("score", "match", "serialize", "mine"), remote=True),
        # The rerun path: every call is a cache read, no request is sent.
        # Traced: start-up ~70 % of a pass, cache reads ~6 %.
        Workload(
            "remote-warm", 12, 10, 10, True, 0.5, ("score", "match", "serialize", "mine"), remote=True, warm=True
        ),
    )
}


class SetupError(Exception):
    """The benchmark could not prepare its inputs or services."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


ENV = _env()
NO_PROXY_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


@dataclass
class StageRun:
    stage: str
    wall: float
    cpu: float
    rss_kb: int
    code: int
    t_spawn: float
    spans: Path | None = None


def run_process(stage: str, cmd: list[str], log: Path, timeout: float) -> StageRun:
    """Run one process to completion; its resource usage comes from wait4."""
    with open(log, "ab") as fh:
        t_spawn = time.time()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=ENV, cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(stage, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, t_spawn)


class Service:
    """The stand-in scorer and reader, one process, stopped on every exit path."""

    def __init__(self, truth: Path, seed: int, log: Path):
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "standin.py"), "--truth", str(truth), "--seed", str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=ENV,
            cwd=ROOT,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 30.0)
        line = self.proc.stdout.readline() if ready else b""
        if not line.strip().isdigit():
            self.stop()
            raise SetupError(f"stand-in service did not start (see {log})")
        self.url = f"http://127.0.0.1:{int(line)}"

    def counts(self) -> dict[str, int]:
        with NO_PROXY_OPENER.open(f"{self.url}/counts", timeout=10) as resp:
            return json.load(resp)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


@dataclass
class Setup:
    root: Path
    seconds: float
    service: Service | None = None
    cold: "PassResult | None" = None

    @property
    def corpus(self) -> Path:
        return self.root / "sim_corpus.jsonl"

    @property
    def truth(self) -> Path:
        return self.root / "sim_truth.jsonl"

    @property
    def cache(self) -> Path:
        return self.root / "cache"


@dataclass
class PassResult:
    out: Path
    wall: float
    stages: list[StageRun]
    attempted: int
    failed: int
    artifact_bytes: int
    cache_bytes: int
    requests: dict[str, int]

    @property
    def peak_rss_kb(self) -> int:
        return max(s.rss_kb for s in self.stages)


def tree_bytes(root: Path, allocated: bool = False) -> int:
    total = 0
    for path in root.rglob("*"):
        if path.is_file():
            st = path.stat()
            total += st.st_blocks * 512 if allocated else st.st_size
    return total


class Bench:
    """One run of one workload: set-ups, passes, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.work = WORK / f"{workload.name}-seed{seed}-pid{os.getpid()}"
        self.services: list[Service] = []
        self.failures: list[str] = []
        self.checks: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._dirs = 0

    # -- plumbing ---------------------------------------------------------

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def fresh_dir(self, prefix: str) -> Path:
        self._dirs += 1
        path = self.work / f"{prefix}{self._dirs}"
        path.mkdir(parents=True)
        return path

    def close(self) -> None:
        for service in self.services:
            service.stop()
        self.services.clear()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    def check(self, label: str, fn, *args) -> None:
        """Record a correctness check; an exception counts as a failure."""
        try:
            problems = fn(*args)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failures.extend(f"{label}: {p}" for p in problems)
            self.checks.append(f"FAIL {label}: {problems[0]}" + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""))
        else:
            self.checks.append(f"PASS {label}")

    # -- set-up -----------------------------------------------------------

    def simulate_argv(self, out: Path) -> list[str]:
        w = self.w
        return [
            sys.executable, "-m", "pairqa.cli", "simulate", "--out", str(out), "--seed", str(self.seed),
            "--simulate.num_questions", str(w.questions), "--simulate.n", str(w.n), "--simulate.m", str(w.m),
            "--simulate.single_pivot", str(w.single_pivot).lower(),
            "--simulate.p_retrieved_evidential", str(w.p_retrieved_evidential),
        ]  # fmt: skip

    def setup(self) -> Setup:
        """Simulate the corpus; on remote workloads start the stand-in
        service; on remote-warm also run the cold pass that fills the cache."""
        root = self.fresh_dir("setup")
        start = time.perf_counter()
        sim = run_process("simulate", self.simulate_argv(root), root / "simulate.log", self.remaining())
        if sim.code != 0:
            raise SetupError(f"pairqa simulate exited with {sim.code} (see {root / 'simulate.log'})")
        setup = Setup(root, 0.0)
        if self.w.remote:
            setup.service = Service(setup.truth, self.seed, root / "service.log")
            self.services.append(setup.service)
        if self.w.warm:
            setup.cold = self.run_pass(setup, setup.cache)
            if setup.cold.failed:
                raise SetupError(f"the cold pass failed on {setup.cold.failed} items (see {root})")
        setup.seconds = time.perf_counter() - start
        return setup

    def retire(self, setup: Setup) -> None:
        if setup.service is not None:
            setup.service.stop()
            self.services.remove(setup.service)

    # -- passes -----------------------------------------------------------

    def stage_argv(self, stage: str, setup: Setup, out: Path, cache: Path | None) -> list[str]:
        argv = [stage, "--dataset", str(setup.corpus), "--out", str(out)]
        if setup.service is not None:
            argv += [
                "--scorer.backend", "remote", "--scorer.url", f"{setup.service.url}/score",
                "--predictor.backend", "remote", "--predictor.url", f"{setup.service.url}/predict",
                "--cache_dir", str(cache),
            ]  # fmt: skip
        elif stage == "mine":
            argv += ["--predictor.truth", str(setup.truth)]
        return argv

    def run_pass(self, setup: Setup, cache: Path | None, traced: bool = False) -> PassResult:
        out = self.fresh_dir("pass")
        spans_dir = self.fresh_dir("spans") if traced else None
        before = setup.service.counts() if setup.service else {}
        stages: list[StageRun] = []
        start = time.perf_counter()
        for stage in self.w.stages:
            argv = self.stage_argv(stage, setup, out, cache)
            if traced:
                spans = spans_dir / f"{stage}.json"
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans)] + argv
            else:
                spans = None
                cmd = [sys.executable, "-m", "pairqa.cli"] + argv
            run = run_process(stage, cmd, out.parent / f"{out.name}.log", self.remaining())
            run.spans = spans
            stages.append(run)
            if run.code != 0:
                break
        wall = time.perf_counter() - start
        after = setup.service.counts() if setup.service else {}
        attempted = self.w.questions * len(self.w.stages)
        failed = self.w.questions * (len(self.w.stages) - len(stages))
        for run in stages:
            try:
                report = json.loads((out / f"{run.stage}_report.json").read_text(encoding="utf-8"))
                errors = len(report["errors"]) if run.code == 0 else self.w.questions
            except (OSError, ValueError, KeyError, TypeError):
                errors = self.w.questions
            failed += min(errors, self.w.questions)
        return PassResult(
            out=out,
            wall=wall,
            stages=stages,
            attempted=attempted,
            failed=failed,
            artifact_bytes=tree_bytes(out),
            cache_bytes=tree_bytes(cache, allocated=True) if cache is not None and cache.exists() else 0,
            requests={k: after.get(k, 0) - before.get(k, 0) for k in ("/score", "/predict")},
        )

    def passes(self, setup: Setup, traced_too: bool) -> tuple[list[PassResult], list[PassResult]]:
        """Repeat the stage sequence for ``seconds``, keeping the first pass
        and the latest one on disk. Untraced passes alternate with traced
        ones when ``traced_too`` is set."""
        plain: list[PassResult] = []
        traced: list[PassResult] = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for done, is_traced in ((plain, False), (traced, True))[: 2 if traced_too else 1]:
                cold = self.w.remote and not self.w.warm
                cache = self.fresh_dir("cache") if cold else setup.cache if self.w.remote else None
                result = self.run_pass(setup, cache, traced=is_traced)
                if cold:
                    shutil.rmtree(cache)
                done.append(result)
                self.attempted += result.attempted
                self.failed += result.failed
                if len(done) > 2:
                    shutil.rmtree(done[-2].out)
            round_s = time.perf_counter() - round_start
            elapsed = time.perf_counter() - start
            enough = len(plain) >= (1 if traced_too else 2)
            if enough and (elapsed + round_s > self.seconds or self.remaining() < 4 * round_s):
                return plain, traced

    # -- checks -----------------------------------------------------------

    def check_outputs(self, setup: Setup, first: PassResult, last: PassResult) -> None:
        truth = checks.load_ground_truth(setup.corpus, setup.truth)
        remote_seed = self.seed if self.w.remote else None
        self.check(
            f"matchings are valid assignments with scipy's optimal total ({len(truth)} questions)",
            checks.check_matchings, first.out / "matchings.jsonl", truth, remote_seed,
        )  # fmt: skip
        if "mine" in self.w.stages:
            self.check("mined labels agree with the simulator ground truth", checks.check_mined_labels, first.out, truth)
        if "analyze" in self.w.stages:
            self.check("conflicting rates and pair types agree with ground-truth counts", checks.check_conflicts, first.out, truth)
        self.check("two passes with one seed give equal content", checks.same_content, first.out, last.out)
        if setup.cold is not None:
            self.check("warm passes match the cold pass", checks.same_content, setup.cold.out, last.out)

    def check_call_budget(self, cold: list[PassResult]) -> None:
        """A pass over an empty cache sends each distinct model call at most
        once: N + M*N scorer calls and, with one pivot, 1 + N + 2M reader
        calls per question (mining's I and II calls repeat across kinds)."""
        w = self.w
        budget = {"/score": w.n + w.m * w.n, "/predict": 1 + w.n + 2 * w.m}
        over = [
            f"{path}: {p.requests.get(path, 0) / w.questions:g} per question, budget {limit}"
            for p in cold
            for path, limit in budget.items()
            if p.requests.get(path, 0) > limit * w.questions
        ]
        self.check("cold passes send each distinct model call at most once", lambda: over)

    # -- the two modes ----------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str, str]]:
        setups = []
        for _ in range(WARM_SETUPS if self.w.warm else SETUPS):
            if setups:
                self.retire(setups[-1])
            setups.append(self.setup())
        setup = setups[-1]

        def same_setup(a: Setup, b: Setup) -> list[str]:
            problems = [
                f"{p.name} differs"
                for p in (a.corpus, a.truth)
                if checks.read_records(p) != checks.read_records(b.root / p.name)
            ]
            return problems + (checks.same_content(a.cold.out, b.cold.out) if a.cold else [])

        for other in setups[:-1]:
            self.check("set-ups with one seed give equal inputs and cold passes", same_setup, other, setup)
            shutil.rmtree(other.root)
        plain, _ = self.passes(setup, traced_too=False)
        self.check_outputs(setup, plain[0], plain[-1])
        if self.w.remote:
            self.check_call_budget([s.cold for s in setups] if self.w.warm else plain)
        if self.w.warm:
            sent = sum(sum(p.requests.values()) for p in plain)
            self.check("warm passes send no requests", lambda: [f"{sent} requests sent"] if sent else [])
        return self.pass_metrics(plain, setups)

    def pass_metrics(self, plain: list[PassResult], setups: list[Setup]) -> dict[str, tuple[float, str, str]]:
        """The end-to-end metrics, then the per-question and cache figures."""
        setup = setups[-1]
        setup_times = [s.seconds for s in setups]
        walls = [p.wall for p in plain]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s", "median of set-ups " + _fmt_list(setup_times)),
            "pipeline_s": (statistics.median(walls), "s", "median of passes " + _fmt_list(walls)),
            "peak_rss_mb": (
                statistics.median(p.peak_rss_kb * 1024 / MB for p in plain),
                "MB",
                "largest stage peak RSS, median over passes",
            ),
            "artifact_mb": (statistics.median(p.artifact_bytes / MB for p in plain), "MB", "bytes written to --out"),
        }
        q = self.w.questions
        remote = "" if self.w.remote else "offline backends: no service, no cache"
        if self.w.warm:
            cache_bytes = tree_bytes(setup.cache, allocated=True)
        else:
            cache_bytes = statistics.median(p.cache_bytes for p in plain)
        attempted = sum(p.attempted for p in plain)
        return metrics | {
            "cache_mb": (cache_bytes / MB, "MB", remote or "allocated bytes under cache_dir"),
            "scorer_requests_per_q": (
                statistics.median(p.requests.get("/score", 0) / q for p in plain), "req/question", remote,
            ),
            "reader_requests_per_q": (
                statistics.median(p.requests.get("/predict", 0) / q for p in plain), "req/question", remote,
            ),
            "failed_fraction": (sum(p.failed for p in plain) / attempted, "ratio", f"of {attempted} stage items"),
        }  # fmt: skip

    def per_layer(self) -> tuple[dict[str, tuple[float, str, str]], list[str]]:
        setup = self.setup()
        plain, traced = self.passes(setup, traced_too=True)
        self.check_outputs(setup, plain[0], plain[-1])
        self.check("traced and untraced passes give equal content", checks.same_content, plain[0].out, traced[-1].out)
        if self.w.remote:
            self.check_call_budget([setup.cold] if self.w.warm else plain + traced)
        traces = []
        lost = [f"{r.stage} left no spans file" for p in traced for r in p.stages if not r.spans.exists()]
        self.check("every traced stage wrote its spans", lambda: lost)
        for result in traced:
            stages = [
                layers.TracedStage(run.stage, run.wall, run.cpu, run.t_spawn, json.loads(run.spans.read_text(encoding="utf-8")))
                for run in result.stages
                if run.spans.exists()
            ]
            traces.append(layers.PassTrace(stages))
        metrics = layers.layer_metrics(traces)
        sys.path.insert(0, str(SRC))
        solver, solver_failures = layers.solver_microbench(self.seed)
        metrics.update(solver)
        self.check("micro-bench totals equal scipy's optimum", lambda: solver_failures)
        cache, cache_failures = layers.cache_microbench(self.seed, self.fresh_dir("cachebench"))
        metrics.update(cache)
        self.check("cache micro-bench gets return what was put", lambda: cache_failures)
        untraced = statistics.median(p.wall for p in plain)
        traced_wall = statistics.median(p.wall for p in traced)
        for name, (value, unit, note) in metrics.items():
            if unit == "s" and value and not note:
                metrics[name] = (value, unit, f"{100 * value / traced_wall:.1f}% of the traced pass")
        metrics["trace.overhead_ratio"] = (
            traced_wall / untraced,
            "ratio",
            f"traced {traced_wall:.3f} s / untraced {untraced:.3f} s pipeline",
        )
        metrics.update(self.pass_metrics(plain, [setup]))
        return metrics, stage_table(traces[-1])


def _fmt_list(values) -> str:
    return "[" + " ".join(f"{v:.3f}" for v in values) + "]"


def stage_table(trace) -> list[str]:
    """Per-stage wall time, its split, and call and line counts."""
    columns = ("wall_s", "startup_s", "ingest_s", "compute_s", "write_s", "exit_s", "cpu_s")
    counts = {
        "scorer": lambda rec: rec["outer"].get("score", [0])[0],
        "reader": lambda rec: rec["outer"].get("predict", [0])[0],
        "http": lambda rec: rec["stats"].get("requests.Session.request", [0])[0],
        "c.get": lambda rec: rec["stats"].get("providers.ResponseCache.get", [0])[0],
        "c.put": lambda rec: rec["stats"].get("providers.ResponseCache.put", [0])[0],
        "lines_r": lambda rec: rec["stats"].get("lineio.read_jsonl", [0])[0],
        "lines_w": lambda rec: rec["values"].get("write_records", 0),
    }
    lines = [f"{'stage':<10}" + "".join(f"{c[:-2]:>9}" for c in columns) + "".join(f"{c:>9}" for c in counts)]
    totals = [0.0] * len(columns) + [0] * len(counts)
    for ts in trace.stages:
        row = [ts.breakdown()[c] for c in columns] + [fn(ts.record) for fn in counts.values()]
        totals = [a + b for a, b in zip(totals, row)]
        lines.append(_table_row(ts.stage, row, len(columns)))
    lines.append(_table_row("total", totals, len(columns)))
    return lines


def _table_row(label: str, row: list, timed: int) -> str:
    return f"{label:<10}" + "".join(f"{v:9.3f}" for v in row[:timed]) + "".join(f"{v:9d}" for v in row[timed:])


def machine_facts() -> dict:
    versions = {}
    for package in ("numpy", "scipy", "requests"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "packages": versions,
        "loadavg_at_start": list(os.getloadavg()),
    }


def _stop_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    facts = machine_facts()
    if not (SRC / "pairqa" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'pairqa'}; run from a checkout root", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        wanted = spec["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _stop_on_sigterm)

    w = WORKLOADS[args.workload]
    bench = Bench(w, args.seed, args.seconds)
    print(f"pairqa benchmark: workload {w.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print(
        f"inputs: {w.questions} questions, N={w.n} retrieved, M={w.m} generated, "
        f"{'single pivot' if w.single_pivot else f'p_retrieved_evidential={w.p_retrieved_evidential}'}; "
        f"{'stand-in service, ' + ('warm cache' if w.warm else 'fresh cache per pass') if w.remote else 'offline backends'}; "
        f"stages {' -> '.join(w.stages)}"
    )
    table: list[str] = []
    try:
        if args.trace:
            metrics, table = bench.per_layer()
        else:
            metrics = bench.end_to_end()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        bench.close()

    print("checks:")
    for line in bench.checks:
        print(f"  {line}")
    if table:
        print("per-stage breakdown of the last traced pass (seconds; call and line counts):")
        for line in table:
            print(f"  {line}")
    print("metrics:")
    for name in sorted(metrics):
        value, unit, note = metrics[name]
        print(f"  {name:<40}{value:>14.6g} {unit:<13}{note}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: BENCHMARK.json lists metrics this run does not compute: {missing}", file=sys.stderr)
        return 2
    correct = not bench.failures
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct and not bench.failed else 1


if __name__ == "__main__":
    sys.exit(main())
