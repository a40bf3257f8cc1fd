"""Traced entry point for one pipeline stage.

    python perfbench/traced_cli.py SPANS.json <pairqa arguments...>

Wraps public functions and backend methods of ``pairqa`` at every module
binding, then calls ``pairqa.cli.main`` with the remaining arguments. Spans
are kept in memory and written to SPANS.json when the stage ends.

Per-question calls (``build_matrix``, ``match_optimal``, mining,
serialization) are recorded as spans: name, start, end, parent and
``question_id``. Very hot leaf calls (scorer and reader backends, answer
checks, cache reads and writes, HTTP requests, decoded lines) are folded into
per-name aggregates: count, inclusive time and self time. Self time is the
duration minus the time of wrapped calls made inside it. Each wrapped call
can also belong to groups; a group's outer count and time skip calls made
inside another call of the same group, so that a caching backend around a
scorer counts as one scorer call. The ``cat:ingest`` and ``cat:write``
groups split a stage into ingest, compute and write.

A wrapped name that the program no longer has is listed as unmeasured.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

time_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [start, child_time, span_id or None]
        self.stats: dict[str, list] = {}  # name -> [count, total_s, self_s]
        self.outer: dict[str, list] = {}  # group -> [count, total_s]
        self.depth: Counter = Counter()
        self.values: Counter = Counter()
        self.spans: list[tuple] = []  # (id, name, start, end, parent_id, question_id)
        self.unmeasured: list[str] = []
        self.next_span_id = 0

    def enter(self, groups, span: bool) -> list:
        for g in groups:
            self.depth[g] += 1
        span_id = None
        if span:
            span_id = self.next_span_id
            self.next_span_id += 1
        frame = [time_now(), 0.0, span_id]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, name: str, stats: list, groups, question_id=None) -> None:
        end = time_now()
        self.stack.pop()
        duration = end - frame[0]
        if self.stack:
            self.stack[-1][1] += duration
        stats[0] += 1
        stats[1] += duration
        stats[2] += duration - frame[1]
        for g in groups:
            self.depth[g] -= 1
            if self.depth[g] == 0:
                agg = self.outer.setdefault(g, [0, 0.0])
                agg[0] += 1
                agg[1] += duration
        if frame[2] is not None:
            parent = next((f[2] for f in reversed(self.stack) if f[2] is not None), None)
            self.spans.append((frame[2], name, frame[0], end, parent, question_id))

    def wrap(self, name, fn, groups=(), span=False, qid=None, on_result=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(groups, span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.values[f"{name}:raised"] += 1
                raise
            finally:
                tracer.leave(frame, name, stats, groups, qid(args, kwargs) if qid else None)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def wrap_generator(self, name, fn, groups=()):
        """Time each step of a generator; the count is the items it yields."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def steps():
                try:
                    while True:
                        frame = tracer.enter(groups, False)
                        try:
                            item = next(inner)
                        except StopIteration:
                            stats[0] -= 1  # the last step yields nothing
                            return
                        finally:
                            tracer.leave(frame, name, stats, groups)
                        yield item
                finally:
                    inner.close()

            return steps()

        return wrapper

    def dump(self) -> dict:
        return {
            "stats": self.stats,
            "outer": self.outer,
            "values": dict(self.values),
            "spans": self.spans,
            "unmeasured": self.unmeasured,
        }


def _example_qid(args, kwargs):
    example = args[0] if args else kwargs.get("example")
    return getattr(example, "question_id", None)


def _match_qid(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("question_id")


def _count_hit(tracer, result):
    if result is not None:
        tracer.values["cache_hits"] += 1


def _count_written(tracer, result):
    if isinstance(result, int):
        tracer.values["write_records"] += result


def _count_labels(tracer, labels):
    tracer.values["labels"] += len(labels)
    tracer.values["decided"] += sum(
        getattr(label.verdict, "value", "undetermined") != "undetermined" for label in labels
    )


def _count_http_status(tracer, response):
    if getattr(response, "status_code", 200) >= 400:
        tracer.values["http_failures"] += 1


# (module, attribute, options). Module-level functions are replaced at every
# binding in every loaded pairqa module, because most are imported by name.
TARGETS = [
    ("pairqa.corpus", "read_examples", dict(groups=("cat:ingest",), span=True)),
    ("pairqa.corpus", "text_contains_answer", dict(groups=("answer",))),
    ("pairqa.corpus", "exact_match", dict(groups=("answer",))),
    ("pairqa.lineio", "read_jsonl", dict(groups=("cat:ingest",), generator=True)),
    ("pairqa.lineio", "write_jsonl", dict(groups=("cat:write",), span=True, on_result=_count_written)),
    ("pairqa.providers", "LexicalMockScorer.score", dict(groups=("score",))),
    ("pairqa.providers", "FileScoreStore.score", dict(groups=("score",))),
    ("pairqa.providers", "RemoteScorer.score", dict(groups=("score",))),
    ("pairqa.providers", "CachingBackend.score", dict(groups=("score",))),
    ("pairqa.providers", "RemotePredictor.predict", dict(groups=("predict",))),
    ("pairqa.providers", "CachingBackend.predict", dict(groups=("predict",))),
    ("pairqa.sim", "SimPredictor.predict", dict(groups=("predict",))),
    ("pairqa.providers", "ResponseCache.get", dict(on_result=_count_hit)),
    ("pairqa.providers", "ResponseCache.put", dict()),
    # Every HTTP call of requests, whether made by requests.post or by a session.
    ("requests", "Session.request", dict(on_result=_count_http_status)),
    ("pairqa.scoring", "build_matrix", dict(span=True, qid=_example_qid)),
    ("pairqa.scoring", "write_matrix_dump", dict(groups=("cat:write",), span=True)),
    ("pairqa.scoring", "load_matrix_dump", dict(groups=("cat:ingest",), span=True)),
    ("pairqa.matching", "match_optimal", dict(span=True, qid=_match_qid)),
    ("pairqa.readerio", "serialize_variant", dict(span=True, qid=_example_qid)),
    ("pairqa.readerio", "write_reader_examples", dict(groups=("cat:write",), span=True)),
    ("pairqa.mining", "mine_evidentiality", dict(span=True, qid=_example_qid, on_result=_count_labels)),
    ("pairqa.mining", "mine_consistency", dict(span=True, qid=_example_qid, on_result=_count_labels)),
    ("pairqa.mining", "emit_training_records", dict(groups=("cat:write",), span=True)),
    ("pairqa.analysis", "conflicting_rate", dict(span=True, qid=_example_qid)),
    ("pairqa.analysis", "pair_type_distribution", dict(span=True)),
    ("pairqa.sim", "load_truth", dict(groups=("cat:ingest",), span=True)),
    ("pairqa.cli", "load_matchings", dict(groups=("cat:ingest",), span=True)),
    ("pairqa.cli", "_write_report", dict(groups=("cat:write",), span=True)),
]


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "pairqa" or name.startswith("pairqa."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    for module_name, dotted, options in TARGETS:
        name = f"{module_name.removeprefix('pairqa.')}.{dotted}"
        options = dict(options)
        generator = options.pop("generator", False)
        try:
            module = importlib.import_module(module_name)
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            tracer.unmeasured.append(name)
            continue
        if generator:
            wrapped = tracer.wrap_generator(name, original, **options)
        else:
            wrapped = tracer.wrap(name, original, **options)
        if owner is module:
            _rebind(original, wrapped)
        else:
            setattr(owner, attr, wrapped)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import pairqa.cli

    t_ready = time.time()
    tracer = Tracer()
    install(tracer)
    t_main = time.time()
    start = time_now()
    code = 1
    try:
        code = pairqa.cli.main(argv)
    finally:
        record = tracer.dump()
        record.update(t_ready=t_ready, t_main=t_main, main_s=time_now() - start)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
