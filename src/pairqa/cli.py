"""Pipeline orchestration: one subcommand per stage, file handoffs between
stages, a single nested config file with dotted-name flag overrides.

    pairqa score  --config run.json --dataset data/dev.jsonl --out runs/a
    pairqa match  --dataset data/dev.jsonl --strategy optimal --out runs/a
    pairqa serialize --dataset data/dev.jsonl --variant pairwise --budget 400 --out runs/a

Every field of the config document can be overridden on the command line
with a flag of the same dotted name, e.g. ``--scorer.backend remote``.
Endpoint URLs and auth tokens can also come from the environment
(PAIRQA_SCORER_URL, PAIRQA_SCORER_TOKEN, and likewise for PREDICTOR and
GENERATOR; PAIRQA_TOKEN is the shared fallback).

Per-item failures are collected into the stage report and never abort the
run unless ``--strict`` is set. Given identical config, seeds, and cached
provider responses, every stage writes byte-identical outputs.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from . import analysis, matching, mining, readerio, scoring, sim
from .corpus import HopType, PassageChain, QAExample, read_examples, write_examples
from .errors import ContractViolation, PipelineError
from .lineio import IngestionReport, atomic_open, read_jsonl, write_jsonl
from .matching import load_matchings
from .providers import CachingBackend, GenerationMode, GenerationRequest, LexicalMockScorer
from .providers import RemoteGenerator, RemotePredictor, RemoteScorer, ResponseCache

logger = logging.getLogger(__name__)

DEFAULT_CONFIG: dict[str, Any] = {
    "dataset": None,
    "out": "out",
    "workers": 1,
    "seed": 0,
    "strict": False,
    "cache_dir": None,
    "scorer": {"backend": "lexical", "url": None, "token": None, "store": None},
    "predictor": {"backend": "sim", "url": None, "token": None, "truth": None},
    "generator": {"url": None, "token": None, "n": 10, "mode": "single_hop_background"},
    "scoring": {"mode": "cutoff"},
    "matching": {"strategy": "optimal", "matrices": None},
    "serialize": {"variant": "pairwise", "budget": None, "matchings": None},
    "mine": {"kinds": ["evidentiality", "consistency"]},
    "analyze": {"predictions": {}, "annotations": None, "matrices": None},
    "simulate": {
        "num_questions": 100,
        "n": 10,
        "m": 10,
        "p_retrieved_evidential": 0.5,
        "p_llm_hallucinated": 0.5,
        "single_pivot": True,
        "hop_type": "single",
    },
}

_ENV_PREFIX = "PAIRQA"


@dataclass
class PipelineConfig:
    """Validated view over the merged config document."""

    raw: dict
    dataset: str | None
    out: Path
    workers: int
    seed: int
    strict: bool
    cache: ResponseCache | None
    scoring_mode: scoring.CombineMode
    strategy: matching.Strategy
    variant: readerio.Variant
    budget: int | None
    generation_mode: GenerationMode
    num_generated: int
    synth: sim.SynthSpec

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        sim_raw = raw["simulate"]
        try:
            mode = scoring.CombineMode(raw["scoring"]["mode"])
            strategy = matching.Strategy(raw["matching"]["strategy"])
            variant = readerio.Variant(raw["serialize"]["variant"])
            generation_mode = GenerationMode(raw["generator"]["mode"])
            num_generated = _integer(raw["generator"]["n"], "generator.n")
            workers = _integer(raw["workers"], "workers")
            seed = _integer(raw["seed"], "seed")
            strict = _boolean(raw["strict"], "strict")
            out = Path(raw["out"])
            budget = raw["serialize"]["budget"]
            budget = _integer(budget, "serialize.budget") if budget is not None else None
            synth = sim.SynthSpec(
                num_questions=_integer(sim_raw["num_questions"], "simulate.num_questions"),
                n=_integer(sim_raw["n"], "simulate.n"),
                m=_integer(sim_raw["m"], "simulate.m"),
                p_retrieved_evidential=float(sim_raw["p_retrieved_evidential"]),
                p_llm_hallucinated=float(sim_raw["p_llm_hallucinated"]),
                seed=seed,
                hop_type=HopType(sim_raw["hop_type"]),
                single_pivot=_boolean(sim_raw["single_pivot"], "simulate.single_pivot"),
            )
        except (TypeError, ValueError) as exc:
            raise ContractViolation(f"bad config value: {exc}") from None
        if workers < 1:
            raise ContractViolation("workers must be >= 1")
        if budget is not None and budget < 1:
            raise ContractViolation(f"serialize.budget must be >= 1, got {budget}")
        predictions = raw["analyze"]["predictions"]
        if not isinstance(predictions, dict) or not all(isinstance(path, str) for path in predictions.values()):
            raise ContractViolation(f"analyze.predictions must be an object of file paths, got {predictions!r}")
        dataset, cache_dir = raw["dataset"], raw["cache_dir"]
        if dataset is not None and not (isinstance(dataset, str) and Path(dataset).exists()):
            raise ContractViolation(f"dataset file does not exist: {dataset}")
        if cache_dir is not None and not isinstance(cache_dir, str):
            raise ContractViolation(f"cache_dir must be a directory path or null, got {cache_dir!r}")
        cache = ResponseCache(cache_dir) if cache_dir else None
        return cls(
            raw=raw, dataset=dataset, out=out, workers=workers, seed=seed, strict=strict, cache=cache,
            scoring_mode=mode, strategy=strategy, variant=variant, budget=budget,
            generation_mode=generation_mode, num_generated=num_generated, synth=synth,
        )


def _boolean(value, field: str) -> bool:
    """A config boolean must be a JSON boolean: ``bool("false")`` is True."""
    if not isinstance(value, bool):
        raise ContractViolation(f"{field} must be true or false, got {value!r}")
    return value


def _integer(value, field: str) -> int:
    """A config integer must be a JSON integer, or a string of one (a
    ``--section.field`` flag whose default is null): ``int(3.9)`` is 3 and
    ``int(True)`` is 1."""
    if isinstance(value, (bool, float)):
        raise ContractViolation(f"{field} must be an integer, got {value!r}")
    return int(value)


def derive_seed(base: int, item_key: str) -> int:
    """Stable per-item seed so parallel workers never share RNG streams."""
    digest = hashlib.sha256(f"{base}:{item_key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _coerce_like(current: Any, text: str) -> Any:
    if isinstance(current, bool):
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ContractViolation(f"expected a boolean, got {text!r}")
    if isinstance(current, int) and not isinstance(current, bool):
        return int(text)
    if isinstance(current, float):
        return float(text)
    if isinstance(current, (dict, list)):
        return json.loads(text)
    if text == "null":
        return None
    return text


def _field(config: dict, dotted: str) -> tuple[dict, str]:
    """The section that holds the config field ``dotted``, and the field's key
    in it. An unknown section or field, or a section named as a field, is a
    ContractViolation."""
    node, parts = config, dotted.split(".")
    for part in parts[:-1]:
        node = node.get(part)
        if not isinstance(node, dict):
            raise ContractViolation(f"unknown config section {part!r} in {dotted}")
    if parts[-1] not in node:
        raise ContractViolation(f"unknown config field {dotted}")
    if node is config and isinstance(config[dotted], dict):
        raise ContractViolation(f"config section {dotted!r} must be an object of its fields")
    return node, parts[-1]


def apply_dotted_overrides(config: dict, pairs: Sequence[tuple[str, str]]) -> dict:
    for dotted, text in pairs:
        node, leaf = _field(config, dotted)
        try:
            node[leaf] = _coerce_like(node[leaf], text)
        except ValueError as exc:
            raise ContractViolation(f"--{dotted}: {exc}") from None
    return config


def _parse_extra_flags(extras: Sequence[str]) -> list[tuple[str, str]]:
    """``--name value`` or ``--name=value`` pairs, with the short flags
    replaced by the dotted names they stand for."""
    pairs, args = [], iter(extras)
    for arg in args:
        if not arg.startswith("--"):
            raise ContractViolation(f"unexpected argument {arg!r}")
        name, eq, value = arg[2:].partition("=")
        if not eq:
            value = next(args, None)
            if value is None:
                raise ContractViolation(f"flag --{name} is missing a value")
        pairs.append((_FLAG_ALIASES.get(name, name), value))
    return pairs


def _env(name: str) -> str | None:
    return os.environ.get(f"{_ENV_PREFIX}_{name}")


def _backend_url(spec: dict, service: str) -> str:
    url = spec.get("url") or _env(f"{service.upper()}_URL")
    if not url:
        raise ContractViolation(
            f"{service} backend 'remote' needs a url (config or {_ENV_PREFIX}_{service.upper()}_URL)"
        )
    return url


def _backend_token(spec: dict, service: str) -> str | None:
    return spec.get("token") or _env(f"{service.upper()}_TOKEN") or _env("TOKEN")


def _cached(cfg: PipelineConfig, backend, identity: str, source: str | None = None):
    """Route every call of ``backend`` through the response cache, if one is
    configured. ``identity`` names the backend in the cache keys; for a
    backend that answers from a file, ``source``, the file's digest is added,
    so a file rewritten in place never replays the old file's answers."""
    if cfg.cache is None:
        return backend
    if source is not None:
        identity += ":" + hashlib.sha256(Path(source).read_bytes()).hexdigest()
    return CachingBackend(backend, cfg.cache, identity)


def build_scorer(cfg: PipelineConfig, examples: Sequence[QAExample]):
    spec = cfg.raw["scorer"]
    backend = spec["backend"]
    if backend == "lexical":
        return _cached(cfg, LexicalMockScorer.from_examples(examples), "scorer:lexical", cfg.dataset)
    if backend == "file":
        store = spec.get("store")
        if not store:
            raise ContractViolation("scorer backend 'file' needs scorer.store (a matrix dump path)")
        return _cached(cfg, scoring.load_score_store(store, examples), "scorer:file", store)
    if backend == "remote":
        url = _backend_url(spec, "scorer")
        return _cached(cfg, RemoteScorer(url, _backend_token(spec, "scorer")), f"scorer:remote:{url}")
    raise ContractViolation(f"unknown scorer backend {backend!r}")


def build_predictor(cfg: PipelineConfig):
    spec = cfg.raw["predictor"]
    backend = spec["backend"]
    if backend == "sim":
        truth_path = spec.get("truth")
        if not truth_path:
            raise ContractViolation("predictor backend 'sim' needs predictor.truth (a truth file)")
        predictor = sim.SimPredictor(sim.load_truth(truth_path))
        return _cached(cfg, predictor, "predictor:sim", truth_path)
    if backend == "remote":
        url = _backend_url(spec, "predictor")
        predictor = RemotePredictor(url, _backend_token(spec, "predictor"))
        return _cached(cfg, predictor, f"predictor:remote:{url}")
    raise ContractViolation(f"unknown predictor backend {backend!r}")


def _map_items(items: Sequence, fn: Callable, cfg: PipelineConfig, errors: list[dict], label: str) -> list:
    """Run fn over items (bounded pool), collecting per-item failures.

    This is every stage's one per-item error path: a failure is recorded in
    ``errors`` under its question id, and ``--strict`` makes it fatal. Items
    are examples, or tuples led by the question id.
    """

    def run(item):
        try:
            return ("ok", fn(item))
        except (PipelineError, ContractViolation) as exc:
            return ("err", (item, exc))

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(run, items))
    else:
        outcomes = [run(item) for item in items]
    results = []
    for status, payload in outcomes:
        if status == "ok":
            results.append(payload)
        else:
            item, exc = payload
            qid = item[0] if isinstance(item, tuple) else item.question_id
            errors.append({"stage": label, "question_id": qid, "error": str(exc)})
            logger.warning("%s: %s failed: %s", label, qid, exc)
            if cfg.strict:
                raise PipelineError(f"{label} failed for {qid}: {exc}") from exc
    return results


def _ingest_errors(cfg: PipelineConfig, report: IngestionReport, what: str, **where) -> list[dict]:
    """Stage-report entries for the lines an ingest rejected; ``--strict``
    makes any of them fatal."""
    errors = [{"stage": "ingest", **where, "line": e.line, "error": e.message} for e in report.errors]
    if cfg.strict and errors:
        raise PipelineError(f"{len(errors)} malformed {what} records")
    return errors


def _join(examples: Sequence[QAExample], records: Sequence) -> list[tuple]:
    """Join a handoff file's records to the dataset by question id:
    ``(question_id, example | None, record | None)`` for each dataset question
    in dataset order, then for each record whose question the dataset lacks,
    in file order."""
    by_id = {record.question_id: record for record in records}
    items = [(ex.question_id, ex, by_id.pop(ex.question_id, None)) for ex in examples]
    return items + [(qid, None, record) for qid, record in by_id.items()]


def _both_sides(fn: Callable, no_record: str) -> Callable:
    """``fn`` over joined items, failing an item that is on one side only: its
    question is not in the dataset, or the handoff file has no record for it
    (``no_record``)."""

    def both(item: tuple):
        qid, example, record = item
        if example is None:
            raise PipelineError(f"{qid}: not in dataset")
        if record is None:
            raise PipelineError(f"{qid}: {no_record}")
        return fn(item)

    return both


def _write_report(cfg: PipelineConfig, stage: str, payload: dict) -> None:
    with atomic_open(cfg.out / f"{stage}_report.json") as fh:
        json.dump(payload, fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")


# Each dataset stage is a builder, which reads the stage's own inputs and
# returns the per-item function, and a finisher, which writes the outputs and
# returns the report fields and the summary line.


def _build_generate(cfg: PipelineConfig, examples: Sequence[QAExample]) -> Callable:
    spec = cfg.raw["generator"]
    client = RemoteGenerator(_backend_url(spec, "generator"), _backend_token(spec, "generator"))

    def generate(example: QAExample) -> QAExample:
        chains = client.generate(GenerationRequest(example.question, cfg.num_generated, cfg.generation_mode))
        renamed = []
        for k, chain in enumerate(chains):
            name = f"{example.question_id}-g{k}"
            segments = tuple(
                dataclasses.replace(seg, id=name + (f".{s}" if len(chain.segments) > 1 else ""))
                for s, seg in enumerate(chain.segments)
            )
            renamed.append(PassageChain(segments=segments, source=chain.source))
        return dataclasses.replace(example, generated=tuple(renamed))

    return generate


def _finish_generate(cfg: PipelineConfig, examples, updated, errors) -> tuple[dict, str]:
    out_path = cfg.out / "generated.jsonl"
    write_examples(out_path, updated)
    summary = f"generated passages for {len(updated)}/{len(examples)} questions -> {out_path}"
    return {"questions": len(examples), "generated": len(updated)}, summary


def _build_score(cfg: PipelineConfig, examples: Sequence[QAExample]) -> Callable:
    scorer = build_scorer(cfg, examples)
    return lambda example: scoring.build_matrix(example, scorer, cfg.scoring_mode)


def _finish_score(cfg: PipelineConfig, examples, matrices, errors) -> tuple[dict, str]:
    out_path = cfg.out / "matrices.jsonl"
    scoring.write_matrix_dump(out_path, matrices)
    summary = f"scored {len(matrices)}/{len(examples)} questions -> {out_path}"
    return {"questions": len(examples), "scored": len(matrices)}, summary


def _build_match(cfg: PipelineConfig, examples: Sequence[QAExample]) -> Callable:
    def match(item) -> matching.PairMatching:
        qid, example, matrix = item
        return matching.match(cfg.strategy, example, matrix, derive_seed(cfg.seed, qid))

    return match


def _finish_match(cfg: PipelineConfig, examples, results, errors) -> tuple[dict, str]:
    out_path = cfg.out / "matchings.jsonl"
    write_jsonl(out_path, (r.to_record() for r in results))
    summary = f"matched {len(results)} questions ({cfg.strategy.value}) -> {out_path}"
    return {"strategy": cfg.strategy.value, "matched": len(results)}, summary


def _build_mine(cfg: PipelineConfig, examples: Sequence[QAExample]) -> Callable:
    predictor = build_predictor(cfg)
    try:
        kinds = {mining.LabelKind(kind) for kind in cfg.raw["mine"]["kinds"]}
    except ValueError as exc:
        raise ContractViolation(f"unknown mine kind: {exc}") from None
    return lambda example: mining.mine_question(example, predictor, kinds)


def _finish_mine(cfg: PipelineConfig, examples, label_lists, errors) -> tuple[dict, str]:
    labels = [label for batch in label_lists for label in batch]
    counts = {}
    for kind in sorted({mining.LabelKind(kind) for kind in cfg.raw["mine"]["kinds"]}, key=lambda k: k.value):
        kind_labels = [l for l in labels if l.kind is kind]
        out_path = cfg.out / f"labels.{kind.value}.jsonl"
        counts[kind.value] = dict(mining.emit_training_records(kind_labels, out_path, examples))
    write_jsonl(cfg.out / "mining_audit.jsonl", mining.audit_records(labels))
    fields = {"questions": len(label_lists), "labels": len(labels), "class_counts": counts}
    return fields, f"mined {len(labels)} labels over {len(label_lists)} questions -> {cfg.out}"


def _build_serialize(cfg: PipelineConfig, examples: Sequence[QAExample]) -> Callable:
    def serialize(item) -> readerio.ReaderExample:
        qid, example, m = item
        lps, rps = {i for i, _, _ in m.pairs}, {j for _, j, _ in m.pairs}
        if len(m.pairs) != max(example.m, example.n) or (lps, rps) != (set(range(example.m)), set(range(example.n))):
            raise PipelineError(
                f"{qid}: matching has {len(m.pairs)} pairs over {len(lps)} generated and"
                f" {len(rps)} retrieved passages, but the dataset has {example.m}x{example.n}"
            )
        budget = cfg.budget if cfg.budget is not None else readerio.default_budget(example.hop_type, cfg.variant)
        return readerio.serialize_variant(example, m, cfg.variant, budget, seed=derive_seed(cfg.seed, qid))

    return serialize


def _finish_serialize(cfg: PipelineConfig, examples, reader_examples, errors) -> tuple[dict, str]:
    out_path = cfg.out / "reader_inputs.jsonl"
    readerio.write_reader_examples(out_path, reader_examples)
    summary = f"serialized {len(reader_examples)} questions ({cfg.variant.value}) -> {out_path}"
    return {"variant": cfg.variant.value, "serialized": len(reader_examples)}, summary


def _build_analyze(cfg: PipelineConfig, examples: Sequence[QAExample]) -> Callable:
    return lambda item: (analysis.conflicting_rate(item[1]), item[2])


def _finish_analyze(cfg: PipelineConfig, examples, results, errors) -> tuple[dict, str]:
    # the corpus-wide inputs too are read and checked, and --strict decided, before any file is written
    stats = [stat for stat, _ in results]
    predictions = {}
    for method, path in sorted(cfg.raw["analyze"]["predictions"].items()):
        ingest = IngestionReport()
        predictions[method] = readerio.ingest_predictions(path, ingest)
        errors += _ingest_errors(cfg, ingest, f"{method} prediction", file=str(path))

    def predicted_by_every_method(stat: analysis.ConflictStats) -> None:
        missing = [method for method in predictions if stat.question_id not in predictions[method]]
        if missing:
            raise PipelineError(f"{stat.question_id}: no prediction from {', '.join(missing)}")

    # the bin report leaves these questions out; this records each one
    _map_items(stats, predicted_by_every_method, cfg, errors, "analyze")
    report = analysis.bin_report(stats, predictions, examples) if predictions else None
    matrices = [matrix for _, matrix in results if matrix is not None]
    distribution = analysis.pair_type_distribution(matrices) if matrices else None

    annotations_file = cfg.raw["analyze"]["annotations"]
    confusion = None
    if annotations_file:
        predicted, annotated = [], []
        for lineno, rec in read_jsonl(annotations_file):
            try:
                predicted.append(scoring.PairType(rec["predicted"]))
                annotated.append(scoring.PairType(rec["annotated"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ContractViolation(f"{annotations_file} line {lineno}: bad annotation record: {exc}") from None
        confusion = analysis.label_confusion(predicted, annotated)

    types = list(scoring.PairType)
    write_jsonl(cfg.out / "conflict_stats.jsonl", (s.to_record() for s in stats))
    mean_rate = sum(s.conflicting_rate for s in stats) / len(stats) if stats else 0.0
    lines = [f"conflicting rate over {len(stats)} questions: mean {mean_rate:.4f}"]
    if report is not None:
        lines.append(analysis.format_bin_report(report))
        write_jsonl(cfg.out / "bin_report.jsonl", analysis.bin_report_rows(report))
        analysis.write_bin_report_csv(cfg.out / "bin_report.csv", report)
    if distribution is not None:
        lines += [f"pair type {t.value}: {100 * distribution[t]:.1f}%" for t in types]
        write_jsonl(cfg.out / "pair_types.jsonl", [{"type": t.value, "fraction": distribution[t]} for t in types])
    if confusion is not None:
        counts, accuracy = confusion
        lines.append(f"label confusion accuracy: {accuracy:.3f}")
        rows = [{"predicted": p.value, "annotated": a.value, "count": counts[p][a]} for p in types for a in types]
        write_jsonl(cfg.out / "confusion.jsonl", rows)
    return {"questions": len(stats), "mean_conflicting_rate": mean_rate}, "\n".join(lines)


# A handoff is a file an earlier stage wrote, joined to the dataset by question
# id: (config section, key, loader, the per-item error of a dataset question the
# file lacks, whether the default path may be absent). Its path is
# <section>.<key>, else <out>/<key>.jsonl. A loader looks its function up when
# called, so that a wrapper bound later to the module attribute sees the call.
_MATRICES = ("matrices", lambda path: scoring.load_matrix_dump(path), "no compatibility matrix")
_MATCHINGS = ("matchings", lambda path: load_matchings(path), "no matching")

# name -> (builder, finisher, handoff or None)
STAGES: dict[str, tuple[Callable, Callable, tuple | None]] = {
    "generate": (_build_generate, _finish_generate, None),
    "score": (_build_score, _finish_score, None),
    "match": (_build_match, _finish_match, ("matching", *_MATRICES, False)),
    "mine": (_build_mine, _finish_mine, None),
    "serialize": (_build_serialize, _finish_serialize, ("serialize", *_MATCHINGS, False)),
    "analyze": (_build_analyze, _finish_analyze, ("analyze", *_MATRICES, True)),
}


def run_stage(name: str, cfg: PipelineConfig) -> int:
    """Run one dataset stage: load the dataset and the stage's handoff file,
    run the per-item function over the examples (or over the join of the two),
    then write the outputs, the report and the summary. Every input is read,
    and ``--strict`` decided, before the first file is written."""
    build, finish, handoff = STAGES[name]
    if not cfg.dataset:
        raise ContractViolation("this command needs --dataset (or config dataset)")
    examples, ingest = read_examples(cfg.dataset)
    for w in ingest.warnings:
        logger.warning("ingest line %d: %s", w.line, w.message)
    errors = _ingest_errors(cfg, ingest, "dataset")
    items, work = examples, build(cfg, examples)
    if handoff is not None:
        section, key, load, no_record, optional = handoff
        configured = cfg.raw[section][key]
        path = Path(configured) if configured else cfg.out / f"{key}.jsonl"
        if path.exists():
            items, work = _join(examples, load(path)), _both_sides(work, no_record)
        elif configured or not optional:
            raise ContractViolation(f"no {key} file at {path}")
        else:
            items = _join(examples, [])
    results = _map_items(items, work, cfg, errors, name)
    fields, summary = finish(cfg, examples, results, errors)
    _write_report(cfg, name, {**fields, "errors": errors})
    print(summary)
    return 0


def cmd_simulate(cfg: PipelineConfig) -> int:
    examples, truth = sim.generate_corpus(cfg.synth)
    corpus_path = cfg.out / "sim_corpus.jsonl"
    truth_path = cfg.out / "sim_truth.jsonl"
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairqa",
        description="Compatibility-guided pairing of retrieved and generated passages. Any config field is set"
        " with a flag of its dotted name (--dataset PATH, --out DIR, --seed INT, --workers INT,"
        " --scorer.backend remote); --strategy, --scoring-mode, --variant and --budget are short for"
        " matching.strategy, scoring.mode, serialize.variant and serialize.budget.",
    )
    parser.add_argument("command", choices=sorted([*STAGES, "simulate"]))
    parser.add_argument("--config", help="JSON config file (nested object)")
    parser.add_argument("--strict", action="store_true", help="make any per-item failure fatal")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def load_config(args: argparse.Namespace, extras: Sequence[str]) -> PipelineConfig:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            document = json.load(fh)
        if not isinstance(document, dict):
            raise ContractViolation("config file must hold one JSON object")
        for key, value in document.items():
            # a top-level object is a section: each of its members is one field
            members = [(f"{key}.{k}", v) for k, v in value.items()] if isinstance(value, dict) else [(key, value)]
            for dotted, field_value in members:
                node, leaf = _field(config, dotted)
                node[leaf] = field_value
    if args.strict:
        config["strict"] = True
    apply_dotted_overrides(config, _parse_extra_flags(extras))
    return PipelineConfig.from_dict(config)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args, extras)
        return cmd_simulate(cfg) if args.command == "simulate" else run_stage(args.command, cfg)
    except (ContractViolation, PipelineError, OSError, json.JSONDecodeError) as exc:
        summary = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(summary, ensure_ascii=False, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
