"""pairqa: pair retrieved and generated passages by compatibility, one stage per command.

usage: pairqa COMMAND [--config FILE] [--FIELD VALUE | --FIELD=VALUE]...   (or -h, --help)

    pairqa simulate --out runs/a --simulate.num_questions 100
    pairqa score --config run.json --dataset runs/a/sim_corpus.jsonl --out runs/a --strict

COMMAND, the one bare word, may stand anywhere: simulate, generate, score,
match, serialize, mine or analyze. A stage reads the files an earlier one
wrote to --out. --config FILE names a JSON object of fields, nested by
section ({"scorer": {"backend": "remote"}}). Each field takes a flag of its
dotted name; the defaults, then the config file, then the flags in argv
order apply, so the last one given wins. A flag's value is text: null for
null, JSON text for analyze.predictions. The flag of a true/false field
(--strict, --simulate.single_pivot) alone means true; it takes the next word
only if that is true, false, yes, no, on, off, 1 or 0, in any case (--strict
false, or --strict=false). Flags are never abbreviated. --strategy,
--scoring-mode, --variant and --budget are short for matching.strategy,
scoring.mode, serialize.variant and serialize.budget. The fields:
  dataset out workers seed strict cache_dir scoring.mode matching.strategy matching.matrices
  scorer.backend scorer.url scorer.token generator.url generator.token generator.n generator.mode
  predictor.backend predictor.url predictor.token predictor.truth analyze.predictions
  serialize.variant serialize.budget serialize.matchings analyze.annotations analyze.matrices
  simulate.num_questions simulate.n simulate.m simulate.p_retrieved_evidential
  simulate.p_llm_hallucinated simulate.single_pivot simulate.hop_type
Endpoint URLs and tokens can also come from PAIRQA_SCORER_URL,
PAIRQA_SCORER_TOKEN and the like for PREDICTOR and GENERATOR, or PAIRQA_TOKEN.

A bad command, flag or value exits 1 with one {"error", "message"} line on stderr.
A per-item failure is listed in <stage>_report.json and exits 1 only under --strict.
Given identical config, seeds and cached responses, every stage writes the same bytes.
"""

from __future__ import annotations

import atexit
import dataclasses
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Mapping, NoReturn, Sequence

from . import matching, readerio, scoring  # analysis, mining and sim: imported by the functions that use them
from .corpus import HopType, QAExample, named_chain, read_examples, write_examples
from .errors import ContractViolation, PipelineError
from .lineio import atomic_open, boolean, clipped, integer, member, number, quoted, read_keyed, read_records, string
from .lineio import write_jsonl
from .matching import load_matchings
from .providers import CachingBackend, GenerationMode, GenerationRequest, LexicalMockScorer
from .providers import RemoteGenerator, RemotePredictor, RemoteScorer, ResponseCache

logger = logging.getLogger(__name__)


@dataclass(slots=True)
class Kind:
    """What a config value must be (``what``, for the error); ``convert`` makes
    the config value of a JSON value, raising TypeError or ValueError for one
    of another kind, and ``parse`` makes a JSON value of a flag's text."""

    what: str
    convert: Callable[[Any], Any]
    parse: Callable[[str], Any] = str

    def or_null(self) -> "Kind":
        return Kind(f"{self.what} or null", lambda value: None if value is None else self.convert(value), self.parse)


def _checked(convert: Callable, ok: Callable[[Any], bool]) -> Callable:
    def check(value):
        value = convert(value)
        if not ok(value):
            raise ValueError(value)
        return value

    return check


def _enum(cls: type[Enum]) -> Kind:
    return Kind("one of " + ", ".join(e.value for e in cls), lambda value: cls(string(value)))


def _one_of(*names: str) -> Kind:
    return Kind("one of " + ", ".join(names), _checked(string, lambda value: value in names))


def _paths_by_method(value) -> dict[str, str]:
    if type(value) is not dict:
        raise TypeError(value)
    return {method: string(path) for method, path in sorted(value.items())}


_BOOLEAN_WORDS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}
_INTEGER = Kind("an integer", integer, int)
_BOOLEAN = Kind("true or false", boolean, lambda text: _BOOLEAN_WORDS.get(text.lower(), text))
_POSITIVE = Kind("an integer >= 1", _checked(integer, lambda value: value >= 1), int)
_PROBABILITY = Kind("a number in [0, 1]", _checked(number, lambda value: 0 <= value <= 1), float)  # NaN fails too
_PATH, _URL, _TOKEN = (Kind(what, string).or_null() for what in ("a path", "a URL", "a token"))

# Every config field, by dotted name: its default, as a config file spells
# it, and its kind. A value is converted by its kind whenever it is set, from
# this default, from the config file or from a dotted flag.
FIELDS: dict[str, tuple[Any, Kind]] = {
    "dataset": (None, Kind("an existing file", _checked(string, lambda path: Path(path).exists())).or_null()),
    "out": ("out", Kind("a path", lambda value: Path(string(value)))),
    "workers": (None, _POSITIVE.or_null()),
    "seed": (0, _INTEGER),
    "strict": (False, _BOOLEAN),
    "cache_dir": (None, Kind("a directory path", string).or_null()),
    "scorer.backend": ("lexical", _one_of("lexical", "remote")),
    "scorer.url": (None, _URL),
    "scorer.token": (None, _TOKEN),
    "predictor.backend": ("sim", _one_of("sim", "remote")),
    "predictor.url": (None, _URL),
    "predictor.token": (None, _TOKEN),
    "predictor.truth": (None, _PATH),
    "generator.url": (None, _URL),
    "generator.token": (None, _TOKEN),
    "generator.n": (10, _POSITIVE),
    "generator.mode": ("single_hop_background", _enum(GenerationMode)),
    "scoring.mode": ("cutoff", _enum(scoring.CombineMode)),
    "matching.strategy": ("optimal", _enum(matching.Strategy)),
    "matching.matrices": (None, _PATH),
    "serialize.variant": ("pairwise", _enum(readerio.Variant)),
    "serialize.budget": (None, _POSITIVE.or_null()),
    "serialize.matchings": (None, _PATH),
    "analyze.predictions": ({}, Kind("an object of file paths", _paths_by_method, json.loads)),
    "analyze.annotations": (None, _PATH),
    "analyze.matrices": (None, _PATH),
    "simulate.num_questions": (100, _POSITIVE),
    "simulate.n": (10, _POSITIVE),
    "simulate.m": (10, _POSITIVE),
    "simulate.p_retrieved_evidential": (0.5, _PROBABILITY),
    "simulate.p_llm_hallucinated": (0.5, _PROBABILITY),
    "simulate.single_pivot": (True, _BOOLEAN),
    "simulate.hop_type": ("single", _enum(HopType)),
}
_SECTIONS = {dotted.partition(".")[0] for dotted in FIELDS if "." in dotted}


class PipelineConfig(dict):
    """Every field of ``FIELDS`` by dotted name, with its converted value."""

    def __init__(self):
        super().__init__()
        for dotted, (default, _) in FIELDS.items():
            self.set(dotted, default)

    def set(self, dotted: str, value: Any, text: bool = False) -> None:
        """Set field ``dotted`` to ``value`` (a flag's text, if ``text``),
        converted by the field's kind. An unknown name, or a value the kind
        does not take, is a ContractViolation naming the field."""
        if dotted not in FIELDS:
            section, dot, _ = dotted.partition(".")
            if not dot and section in _SECTIONS:
                raise ContractViolation(f"config section {quoted(section)} must be an object of its fields")
            if dot and section not in _SECTIONS:
                raise ContractViolation(f"unknown config section {quoted(section)} in {clipped(dotted)}")
            raise ContractViolation(f"unknown config field {clipped(dotted)}")
        kind = FIELDS[dotted][1]
        try:
            if text:
                value = None if value == "null" else kind.parse(value)
            self[dotted] = kind.convert(value)
        # OverflowError: float() of a huge integer; RecursionError: JSON text nested too deep
        except (TypeError, ValueError, OverflowError, RecursionError):
            raise ContractViolation(f"{dotted} must be {kind.what}, got {quoted(value)}") from None


def derive_seed(base: int, item_key: str) -> int:
    """Stable per-item seed so parallel workers never share RNG streams."""
    digest = hashlib.sha256(f"{base}:{item_key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _service(cfg: PipelineConfig, service: str) -> tuple[str, str | None]:
    """The url and token of a remote backend: its config fields, else
    PAIRQA_<SERVICE>_URL and PAIRQA_<SERVICE>_TOKEN (or PAIRQA_TOKEN)."""
    env = f"PAIRQA_{service.upper()}"
    url = cfg[f"{service}.url"] or os.environ.get(f"{env}_URL")
    if not url:
        raise ContractViolation(f"{service} backend 'remote' needs a url (config or {env}_URL)")
    return url, cfg[f"{service}.token"] or os.environ.get(f"{env}_TOKEN") or os.environ.get("PAIRQA_TOKEN")


def _cached(cfg: PipelineConfig, backend, identity: str, source: str | None = None):
    """Route every call of ``backend`` through the response cache, if one is
    configured. ``identity`` names the backend in the cache keys; for a
    backend that answers from a file, ``source``, the file's digest is added,
    so a file rewritten in place never replays the old file's answers."""
    if not cfg["cache_dir"]:
        return backend
    if source is not None:
        identity += ":" + hashlib.sha256(Path(source).read_bytes()).hexdigest()
    return CachingBackend(backend, ResponseCache(cfg["cache_dir"]), identity)


def build_scorer(cfg: PipelineConfig, examples: Sequence[QAExample]):
    if cfg["scorer.backend"] == "lexical":
        return _cached(cfg, LexicalMockScorer.from_examples(examples), "scorer:lexical", cfg["dataset"])
    url, token = _service(cfg, "scorer")
    return _cached(cfg, RemoteScorer(url, token), f"scorer:remote:{url}")


def build_predictor(cfg: PipelineConfig, examples: Sequence[QAExample]):
    """The reader backend; the ``sim`` one first checks that its truth file fits every example."""
    if cfg["predictor.backend"] == "sim":
        from . import sim  # here: a remote mine never loads it
        truth_path = cfg["predictor.truth"]
        if not truth_path:
            raise ContractViolation("predictor backend 'sim' needs predictor.truth (a truth file)")
        truth = sim.load_truth(truth_path)
        truth.check(examples, truth_path)
        return _cached(cfg, sim.SimPredictor(truth), "predictor:sim", truth_path)
    url, token = _service(cfg, "predictor")
    return _cached(cfg, RemotePredictor(url, token), f"predictor:remote:{url}")


def worker_threads(cfg: PipelineConfig, stage: str) -> int:
    """The threads ``stage`` runs its questions on: ``--workers``, else 4 for
    ``score`` or ``mine`` with a remote backend, where each thread keeps one
    request in flight, and 1 for any other, which more threads only slow down.
    Four in flight stay within a listen backlog of 5 (http.server's), which
    drops a connection beyond it to be retried about 1 s later. ``generate``
    stays at 1: no workload measures its service under concurrent calls."""
    if cfg["workers"] is not None:
        return cfg["workers"]
    remote = {"score": cfg["scorer.backend"] == "remote", "mine": cfg["predictor.backend"] == "remote"}
    return 4 if remote.get(stage) else 1


def _per_item(cfg: PipelineConfig, stage: str, examples: Sequence[QAExample], errors: list[dict]) -> Callable:
    """``each(fn, *handoffs)``, the one per-item path of ``stage``. A handoff is a
    file an earlier stage wrote: (the error of a dataset question it lacks, or None;
    its records by question id). ``each`` joins the dataset to the handoffs by
    question id, the dataset's questions in dataset order, then those only a file
    has, in file order; with no handoff the join is the dataset itself. It returns
    ``fn(example, *records)`` of each joined question in join order, run on
    ``worker_threads`` threads. A question not in the dataset or lacking a record, like a
    failure of ``fn``, is an error under its question id; ``--strict`` makes it fatal."""

    workers = worker_threads(cfg, stage)

    def each(fn: Callable, *handoffs: tuple[str | None, Mapping[str, Any]]) -> list:
        by_id = {ex.question_id: ex for ex in examples}
        qids = dict.fromkeys([*by_id, *(qid for _, by_qid in handoffs for qid in by_qid)])

        def run(qid: str):
            try:
                if qid not in by_id:
                    raise PipelineError(f"{clipped(qid)}: not in dataset")
                missing = [no_record for no_record, by_qid in handoffs if no_record and qid not in by_qid]
                if missing:
                    raise PipelineError(f"{clipped(qid)}: {', '.join(missing)}")
                return True, fn(by_id[qid], *(by_qid.get(qid) for _, by_qid in handoffs))
            except (PipelineError, ContractViolation) as exc:
                return False, exc

        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor  # here: single-worker runs never load it

            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(run, qids))
        else:
            outcomes = [run(qid) for qid in qids]
        for qid, (ok, exc) in zip(qids, outcomes):
            if not ok:
                errors.append({"stage": stage, "question_id": qid, "error": str(exc)})
                logger.warning("%s: %s failed: %s", stage, clipped(qid), exc)
                if cfg["strict"]:
                    raise PipelineError(f"{stage} failed for {clipped(qid)}: {exc}") from exc
        return [result for ok, result in outcomes if ok]

    return each


def _handoff(cfg: PipelineConfig, dotted: str, load: Callable, optional: bool = False) -> dict | None:
    """The records of the file an earlier stage wrote, at config field ``dotted``,
    else at <out>/<field name>.jsonl; None for an ``optional`` file absent from
    that default path."""
    configured, key = cfg[dotted], dotted.partition(".")[2]
    path = Path(configured) if configured else cfg["out"] / f"{key}.jsonl"
    if path.exists():
        return load(path)
    if configured or not optional:
        raise ContractViolation(f"no {key} file at {path}")
    return None


def _write_report(cfg: PipelineConfig, stage: str, payload: dict) -> None:
    with atomic_open(cfg["out"] / f"{stage}_report.json") as fh:
        json.dump(payload, fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")


# Each dataset stage is one function of the config, the dataset's examples and
# ``each`` (``_per_item``): it reads its own inputs, runs its per-item function
# through ``each``, writes its outputs and returns the report fields and the
# summary line. It looks a handoff's loader up when it runs, so that a
# wrapper bound later to the module attribute sees the call.


def _generate(cfg: PipelineConfig, examples: Sequence[QAExample], each: Callable) -> tuple[dict, str]:
    client = RemoteGenerator(*_service(cfg, "generator"))

    def generate(example: QAExample) -> QAExample:
        passages = client.generate(GenerationRequest(example.question, cfg["generator.n"], cfg["generator.mode"]))
        chains = tuple(named_chain(f"{example.question_id}-g{k}", texts) for k, texts in enumerate(passages))
        return dataclasses.replace(example, generated=chains)

    updated = each(generate)
    out_path = cfg["out"] / "generated.jsonl"
    write_examples(out_path, updated)
    summary = f"generated passages for {len(updated)}/{len(examples)} questions -> {out_path}"
    return {"questions": len(examples), "generated": len(updated)}, summary


def _score(cfg: PipelineConfig, examples: Sequence[QAExample], each: Callable) -> tuple[dict, str]:
    scorer = build_scorer(cfg, examples)
    matrices = each(lambda example: scoring.build_matrix(example, scorer, cfg["scoring.mode"]))
    out_path = cfg["out"] / "matrices.jsonl"
    scoring.write_matrix_dump(out_path, matrices)
    summary = f"scored {len(matrices)}/{len(examples)} questions -> {out_path}"
    return {"questions": len(examples), "scored": len(matrices)}, summary


def _match(cfg: PipelineConfig, examples: Sequence[QAExample], each: Callable) -> tuple[dict, str]:
    strategy = cfg["matching.strategy"]

    def match(example: QAExample, matrix: scoring.CompatibilityMatrix) -> matching.PairMatching:
        return matching.match(strategy, example, matrix, derive_seed(cfg["seed"], example.question_id))

    results = each(match, ("no compatibility matrix", _handoff(cfg, "matching.matrices", scoring.load_matrix_dump)))
    out_path = cfg["out"] / "matchings.jsonl"
    write_jsonl(out_path, (r.to_record() for r in results))
    summary = f"matched {len(results)} questions ({strategy.value}) -> {out_path}"
    return {"strategy": strategy.value, "matched": len(results)}, summary


def _mine(cfg: PipelineConfig, examples: Sequence[QAExample], each: Callable) -> tuple[dict, str]:
    from . import mining  # here: every other stage never loads it
    predictor = build_predictor(cfg, examples)
    results = each(lambda example: (example.question_id, *mining.mine_question(example, predictor)))
    labels = [label for _, batch, _ in results for label in batch]
    counts = {}
    for kind in mining.LabelKind:
        kind_labels = [l for l in labels if l.kind is kind]
        out_path = cfg["out"] / f"labels.{kind.value}.jsonl"
        counts[kind.value] = dict(mining.emit_training_records(kind_labels, out_path, examples))
    write_jsonl(cfg["out"] / "mining_audit.jsonl", (mining.audit_record(qid, log) for qid, _, log in results))
    written = sum(sum(class_counts.values()) for class_counts in counts.values())
    undetermined = len(labels) - written  # emit_training_records drops these
    fields = {"questions": len(results), "labels": written, "undetermined": undetermined, "class_counts": counts}
    summary = f"mined {written} labels ({undetermined} undetermined) over {len(results)} questions -> {cfg['out']}"
    return fields, summary


def _serialize(cfg: PipelineConfig, examples: Sequence[QAExample], each: Callable) -> tuple[dict, str]:
    variant = cfg["serialize.variant"]

    def serialize(example: QAExample, m: matching.PairMatching) -> readerio.ReaderExample:
        budget = cfg["serialize.budget"] or readerio.default_budget(example, variant)
        return readerio.serialize_variant(example, m, variant, budget, derive_seed(cfg["seed"], example.question_id))

    reader_examples = each(serialize, ("no matching", _handoff(cfg, "serialize.matchings", load_matchings)))
    out_path = cfg["out"] / "reader_inputs.jsonl"
    readerio.write_reader_examples(out_path, reader_examples)
    summary = f"serialized {len(reader_examples)} questions ({variant.value}) -> {out_path}"
    return {"variant": variant.value, "serialized": len(reader_examples)}, summary


def _analyze(cfg: PipelineConfig, examples: Sequence[QAExample], each: Callable) -> tuple[dict, str]:
    from . import analysis  # here: every other stage never loads it
    # the handoffs: the matrix dump, if any, then one answer file per analyze.predictions method
    matrices = _handoff(cfg, "analyze.matrices", scoring.load_matrix_dump, optional=True)
    handoffs = [(None, {}) if matrices is None else ("no compatibility matrix", matrices)]
    answer = lambda rec: string(rec["answer"])
    for method, path in cfg["analyze.predictions"].items():
        handoffs.append((f"no prediction from {method}", read_keyed(path, "prediction", answer)))

    def analyze(example: QAExample, matrix: scoring.CompatibilityMatrix | None, *answers: str) -> tuple:
        return analysis.conflicting_rate(example), matrix and matrix.fitted(example), answers

    results = each(analyze, *handoffs)
    # the annotations too are read and checked, and --strict decided, before any file is written
    stats = [stat for stat, _, _ in results]
    methods = enumerate(cfg["analyze.predictions"])
    predictions = {method: {stat.question_id: answers[k] for stat, _, answers in results} for k, method in methods}
    bins = analysis.bin_report(stats, predictions, examples) if predictions else None
    fitted = [matrix for _, matrix, _ in results if matrix is not None]
    distribution = analysis.pair_type_distribution(fitted) if fitted else None

    annotations_file = cfg["analyze.annotations"]
    confusion = None
    if annotations_file:
        pair = lambda rec: (member(scoring.PairType, rec["predicted"]), member(scoring.PairType, rec["annotated"]))
        pairs = read_records(annotations_file, "annotation", pair)
        if not pairs:
            raise ContractViolation(f"{annotations_file}: no annotation records")
        confusion = analysis.label_confusion(*zip(*pairs))

    types = list(scoring.PairType)
    write_jsonl(cfg["out"] / "conflict_stats.jsonl", (s.to_record() for s in stats))
    mean_rate = math.fsum(s.conflicting_rate for s in stats) / len(stats) if stats else 0.0
    lines = [f"conflicting rate over {len(stats)} questions: mean {mean_rate:.4f}"]
    if bins is not None:
        lines.append(analysis.format_bin_report(bins))
        write_jsonl(cfg["out"] / "bin_report.jsonl", analysis.bin_report_rows(bins))
        analysis.write_bin_report_csv(cfg["out"] / "bin_report.csv", bins)
    if distribution is not None:
        lines += [f"pair type {t.value}: {100 * distribution[t]:.1f}%" for t in types]
        write_jsonl(cfg["out"] / "pair_types.jsonl", [{"type": t.value, "fraction": distribution[t]} for t in types])
    if confusion is not None:
        counts, accuracy = confusion
        lines.append(f"label confusion accuracy: {accuracy:.3f}")
        rows = [{"predicted": p.value, "annotated": a.value, "count": counts[p][a]} for p in types for a in types]
        write_jsonl(cfg["out"] / "confusion.jsonl", rows)
    return {"questions": len(stats), "mean_conflicting_rate": mean_rate}, "\n".join(lines)


STAGES: dict[str, Callable] = {
    "generate": _generate,
    "score": _score,
    "match": _match,
    "mine": _mine,
    "serialize": _serialize,
    "analyze": _analyze,
}


def run_stage(name: str, cfg: PipelineConfig) -> int:
    """Run one dataset stage: load the dataset, run the stage over it with its
    per-item path, then write the report and print the summary. Every input is
    read, and ``--strict`` decided, before the first file is written."""
    if not cfg["dataset"]:
        raise ContractViolation("this command needs --dataset (or config dataset)")
    examples, ingest_errors, warnings = read_examples(cfg["dataset"], expect_generated=name != "generate")
    for w in warnings:
        logger.warning("ingest line %d: %s", w.line, w.message)
    errors = [{"stage": "ingest", "line": e.line, "error": e.message} for e in ingest_errors]
    if cfg["strict"] and errors:
        raise PipelineError(f"{len(errors)} malformed dataset records")
    fields, summary = STAGES[name](cfg, examples, _per_item(cfg, name, examples, errors))
    _write_report(cfg, name, {**fields, "errors": errors})
    print(summary)
    return 0


def cmd_simulate(cfg: PipelineConfig) -> int:
    from . import sim  # here: only the commands that use sim load it
    fields = {dotted.removeprefix("simulate."): v for dotted, v in cfg.items() if dotted.startswith("simulate.")}
    examples, truth = sim.generate_corpus(sim.SynthSpec(seed=cfg["seed"], **fields))
    corpus_path = cfg["out"] / "sim_corpus.jsonl"
    truth_path = cfg["out"] / "sim_truth.jsonl"
    write_examples(corpus_path, examples)
    sim.write_truth(truth_path, truth)
    _write_report(cfg, "simulate", {"questions": len(examples)})
    print(f"synthesized {len(examples)} questions -> {corpus_path}")
    return 0


# short flags for four dotted config names
_FLAG_ALIASES = {
    "strategy": "matching.strategy",
    "scoring-mode": "scoring.mode",
    "variant": "serialize.variant",
    "budget": "serialize.budget",
}
_COMMANDS = sorted([*STAGES, "simulate"])


def load_config(argv: Sequence[str]) -> tuple[str, PipelineConfig]:
    """The command of a run, its one bare word, and its config: the defaults, then the
    ``--config`` file's fields, then every other ``--name value`` or ``--name=value`` flag
    in argv order. A true/false field's flag takes the next word only if it is a boolean word."""
    words, command, flags = list(argv), None, []
    while words:
        word = words.pop(0)
        name, eq, value = word[2:].partition("=")
        dotted = _FLAG_ALIASES.get(name, name)
        if not word.startswith("--"):
            if command is not None or word.startswith("-"):
                raise ContractViolation(f"unexpected argument {quoted(word)}")
            command = word
        elif eq:
            flags.append((dotted, value))
        elif FIELDS.get(dotted, (None, None))[1] is _BOOLEAN and not (words and words[0].lower() in _BOOLEAN_WORDS):
            flags.append((dotted, "true"))
        elif words:
            flags.append((dotted, words.pop(0)))
        else:
            raise ContractViolation(f"flag --{clipped(name)} is missing a value")
    if command not in _COMMANDS:
        raise ContractViolation(f"command must be one of {', '.join(_COMMANDS)}, got {quoted(command)}")
    config_file, settings = dict(flags).get("config"), []
    if config_file:
        try:
            document = json.loads(Path(config_file).read_bytes().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ContractViolation(f"config file {config_file} is not UTF-8: {exc}") from None
        # JSONDecodeError, an integer of more digits than int() takes, or JSON nested too deep
        except (ValueError, RecursionError) as exc:
            raise ContractViolation(f"config file {config_file} is not JSON: {exc}") from None
        if not isinstance(document, dict):
            raise ContractViolation(f"config file {config_file} must hold one JSON object")
        for key, value in document.items():
            # a top-level object that is not a field is a section: each of its members is one field
            section = isinstance(value, dict) and key not in FIELDS
            settings += [(f"{key}.{k}", v, False) for k, v in value.items()] if section else [(key, value, False)]
    settings += [(dotted, text, True) for dotted, text in flags if dotted != "config"]
    cfg = PipelineConfig()
    for dotted, value, text in settings:
        cfg.set(dotted, value, text)
    return command, cfg


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    if "-h" in argv or "--help" in argv:
        # python -OO strips docstrings
        sys.stdout.write(__doc__ or "usage: pairqa COMMAND [--config FILE] [--FIELD VALUE]...\n")
        return 0
    try:
        command, cfg = load_config(argv)
        return cmd_simulate(cfg) if command == "simulate" else run_stage(command, cfg)
    except (ContractViolation, PipelineError, OSError) as exc:
        summary = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(summary, ensure_ascii=False, sort_keys=True), file=sys.stderr)
        return 1


def exit_main() -> NoReturn:
    """``main`` as a process (``python -m pairqa.cli``, the ``pairqa`` script), ended without interpreter teardown."""
    code = main()
    atexit._run_exitfuncs()  # logging's flush, and each ResponseCache's close, which folds in its WAL
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    exit_main()
