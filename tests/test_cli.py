from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import pairqa
from pairqa.cli import FIELDS, STAGES, load_config, main, worker_threads
from pairqa.corpus import HopType, read_examples, text_contains_answer, write_examples
from pairqa.lineio import clipped, read_keyed
from pairqa.matching import Strategy
from pairqa.sim import SynthSpec, generate_corpus, load_truth, write_truth

from conftest import cache_db


@pytest.fixture
def sim_workspace(tmp_path):
    """A small single-pivot corpus plus its truth file on disk."""
    spec = SynthSpec(
        num_questions=8,
        n=4,
        m=3,
        seed=5,
        single_pivot=True,
        p_retrieved_evidential=0.5,
        p_llm_hallucinated=0.5,
        hop_type=HopType.SINGLE_HOP,
    )
    examples, truth = generate_corpus(spec)
    dataset = tmp_path / "corpus.jsonl"
    truth_path = tmp_path / "truth.jsonl"
    write_examples(dataset, examples)
    write_truth(truth_path, truth)
    return tmp_path, dataset, truth_path


@pytest.fixture
def scorer_service(http_service, monkeypatch):
    """PAIRQA_SCORER_URL names a remote scorer that answers 0.5, and a 400,
    which is not retried, to a question that begins with "reject " (``_rejected``)."""

    def score(body):
        return (400, {}) if body["question"].startswith("reject ") else {"probability": 0.5}

    http_service.responses["/score"] = score
    monkeypatch.setenv("PAIRQA_SCORER_URL", http_service.url("/score"))


def run(*argv) -> int:
    return main([str(a) for a in argv])


def _tree(root) -> dict[str, bytes]:
    """Every file under ``root``, by its path relative to ``root``."""
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(Path(root).rglob("*")) if path.is_file()}


def _copy_with_first_record(src, dst, edit) -> dict:
    """Copy a line-delimited JSON file, applying ``edit`` to its first record
    (a record ``edit`` returns as None is dropped); returns that record as read."""
    lines = src.read_text().splitlines()
    first = json.loads(lines[0])
    edited = edit(json.loads(lines[0]))
    lines[0] = json.dumps(edited) if edited is not None else ""
    dst.write_text("".join(line + "\n" for line in lines if line))
    return first


def _drop(record):
    return None


def _no_generated(record):
    record["generated"] = []
    return record


def _one_retrieved(record):
    record["retrieved"] = record["retrieved"][:1]
    return record


def _serialize_not_in_dataset(tmp, dataset, truth):
    out = tmp / "out"
    assert run("score", "--dataset", dataset, "--out", out) == 0
    assert run("match", "--dataset", dataset, "--out", out) == 0
    smaller = tmp / "smaller.jsonl"
    qid = _copy_with_first_record(dataset, smaller, _drop)["question_id"]
    return ["serialize", "--dataset", smaller, "--out", out], qid, "not in dataset"


def _match_not_in_dataset(tmp, dataset, truth):
    out = tmp / "out"
    assert run("score", "--dataset", dataset, "--out", out) == 0
    smaller = tmp / "smaller.jsonl"
    qid = _copy_with_first_record(dataset, smaller, _drop)["question_id"]
    return ["match", "--dataset", smaller, "--out", out], qid, "not in dataset"


def _match_shape_differs(tmp, dataset, truth):
    assert run("score", "--dataset", dataset, "--out", tmp / "lexical") == 0
    stored = tmp / "stored.jsonl"
    qid = _copy_with_first_record(tmp / "lexical" / "matrices.jsonl", stored, _one_retrieved_fewer)["question_id"]
    argv = ["match", "--dataset", dataset, "--out", tmp / "out", "--matching.matrices", stored]
    return argv, qid, "matrix is 3x3 but the dataset has 3x4"


def _analyze_shape_differs(tmp, dataset, truth):
    argv, qid, message = _match_shape_differs(tmp, dataset, truth)
    return ["analyze", "--dataset", dataset, "--out", tmp / "out", "--analyze.matrices", argv[-1]], qid, message


def _match_no_matrix(tmp, dataset, truth):
    out = tmp / "out"
    assert run("score", "--dataset", dataset, "--out", out) == 0
    dump = out / "matrices.jsonl"
    qid = _copy_with_first_record(dump, dump, _drop)["question_id"]
    return ["match", "--dataset", dataset, "--out", out, "--strategy", "random"], qid, "no compatibility matrix"


def _rejected(record):
    record["question"] = "reject " + record["question"]
    return record


def _score_scorer_failure(tmp, dataset, truth):
    """The remote scorer of ``scorer_service`` rejects the first question."""
    edited = tmp / "edited.jsonl"
    qid = _copy_with_first_record(dataset, edited, _rejected)["question_id"]
    return ["score", "--dataset", edited, "--out", tmp / "out", "--scorer.backend", "remote"], qid, "status 400; not retried"


def _score_empty_pool(tmp, dataset, truth):
    edited = tmp / "edited.jsonl"
    qid = _copy_with_first_record(dataset, edited, _no_generated)["question_id"]
    return ["score", "--dataset", edited, "--out", tmp / "out"], qid, "M >= 1"


def _analyze_empty(pool):
    """Analyze a dataset whose first question has an empty ``pool``."""

    def case(tmp, dataset, truth):
        edited = tmp / "edited.jsonl"
        qid = _copy_with_first_record(dataset, edited, lambda record: {**record, pool: []})["question_id"]
        return ["analyze", "--dataset", edited, "--out", tmp / "out"], qid, f"empty {pool} pool"

    return case


def _analyze_no_matrix(tmp, dataset, truth):
    out = tmp / "out"
    assert run("score", "--dataset", dataset, "--out", out) == 0
    dump = out / "matrices.jsonl"
    qid = _copy_with_first_record(dump, dump, _drop)["question_id"]
    return ["analyze", "--dataset", dataset, "--out", out], qid, "no compatibility matrix"


def _analyze_not_in_dataset(tmp, dataset, truth):
    out = tmp / "out"
    assert run("score", "--dataset", dataset, "--out", out) == 0
    smaller = tmp / "smaller.jsonl"
    qid = _copy_with_first_record(dataset, smaller, _drop)["question_id"]
    return ["analyze", "--dataset", smaller, "--out", out], qid, "not in dataset"


def _analyze_with_predictions(tmp, dataset, lines):
    """The argv of analyze with one method, whose predictions file holds ``lines``."""
    predictions = tmp / "predictions.jsonl"
    predictions.write_text("".join(line + "\n" for line in lines))
    argv = ["analyze", "--dataset", dataset, "--out", tmp / "out"]
    return [*argv, "--analyze.predictions", json.dumps({"oracle": str(predictions)})]


def _gold_predictions(dataset) -> list[str]:
    """One prediction line per question of ``dataset``: its first gold answer."""
    records = [json.loads(line) for line in dataset.read_text().splitlines()]
    return [json.dumps({"question_id": rec["question_id"], "answer": rec["answers"][0]}) for rec in records]


def _analyze_missing_prediction(tmp, dataset, truth):
    return _analyze_with_predictions(tmp, dataset, _gold_predictions(dataset)[:1])


def _analyze_prediction_not_in_dataset(tmp, dataset, truth):
    smaller = tmp / "smaller.jsonl"
    qid = _copy_with_first_record(dataset, smaller, _drop)["question_id"]
    return _analyze_with_predictions(tmp, smaller, _gold_predictions(dataset)), qid, "not in dataset"


def _bad_predictions(last_line, problem, question_id=None):
    """A predictions file of every dataset question, then ``last_line`` (None:
    the first line again); ``question_id``, if given, replaces the first question's id."""

    def case(tmp, dataset, truth):
        lines = _gold_predictions(dataset)
        if question_id is not None:
            lines[0] = json.dumps({**json.loads(lines[0]), "question_id": question_id})
        lines.append(last_line if last_line is not None else lines[0])
        return _analyze_with_predictions(tmp, dataset, lines), f"predictions.jsonl line {len(lines)}: {problem}"

    return case


def _analyze_bad_annotation(tmp, dataset, truth):
    annotations = tmp / "annotations.jsonl"
    annotations.write_text(json.dumps({"predicted": "bogus", "annotated": "compatible"}) + "\n")
    return ["analyze", "--dataset", dataset, "--out", tmp / "out", "--analyze.annotations", annotations]


def _analyze_ragged_matrix(tmp, dataset, truth):
    assert run("score", "--dataset", dataset, "--out", tmp / "scored") == 0
    dump = tmp / "ragged.jsonl"
    _copy_with_first_record(tmp / "scored" / "matrices.jsonl", dump, _ragged)
    return ["analyze", "--dataset", dataset, "--out", tmp / "out", "--analyze.matrices", dump]


def _argv_of(case):
    """The argv of a per-item failure case, without its question and message."""
    return lambda tmp, dataset, truth: case(tmp, dataset, truth)[0]


# stage -> (the flag that names its handoff file, the file's default name in --out)
_HANDOFF_FLAGS = {
    "match": ("--matching.matrices", "matrices.jsonl"),
    "serialize": ("--serialize.matchings", "matchings.jsonl"),
    "analyze": ("--analyze.matrices", "matrices.jsonl"),
}


def _mine_one_retrieved(tmp, dataset, truth):
    edited = tmp / "edited.jsonl"
    qid = _copy_with_first_record(dataset, edited, _one_retrieved)["question_id"]
    return ["mine", "--dataset", edited, "--out", tmp / "out", "--predictor.truth", truth], qid, "N >= 2"


def _truth_without_chains(tmp, dataset, truth):
    bad = tmp / "bad_truth.jsonl"
    _copy_with_first_record(truth, bad, lambda rec: {k: v for k, v in rec.items() if k != "chains"})
    return ["mine", "--dataset", dataset, "--out", tmp / "out", "--predictor.truth", bad], "bad_truth.jsonl line 1"


def _append_edited_first_record(path, edit) -> int:
    """Append ``edit`` of the file's first record; returns the new line's number."""
    lines = path.read_text().splitlines()
    lines.append(json.dumps(edit(json.loads(lines[0]))))
    path.write_text("".join(line + "\n" for line in lines))
    return len(lines)


def _matchings_repeated_question(tmp, dataset, truth):
    out = tmp / "out"
    assert run("score", "--dataset", dataset, "--out", out) == 0
    assert run("match", "--dataset", dataset, "--out", out) == 0
    lineno = _append_edited_first_record(out / "matchings.jsonl", lambda rec: {**rec, "pairs": rec["pairs"][::-1]})
    return ["serialize", "--dataset", dataset, "--out", out], f"matchings.jsonl line {lineno}: bad matching record: repeated"


def _truth_repeated_text(tmp, dataset, truth):
    bad = tmp / "bad_truth.jsonl"
    records = [json.loads(line) for line in truth.read_text().splitlines()]
    records[1]["question"] = records[0]["question"]
    bad.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    argv = ["mine", "--dataset", dataset, "--out", tmp / "out", "--predictor.truth", bad]
    return argv, "bad_truth.jsonl line 2: bad truth record: question_id 'q00001' has the question text of 'q00000'"


def _matchings_question_id_a_number(tmp, dataset, truth):
    out = tmp / "out"
    assert run("score", "--dataset", dataset, "--out", out) == 0
    assert run("match", "--dataset", dataset, "--out", out) == 0
    _copy_with_first_record(out / "matchings.jsonl", out / "matchings.jsonl", lambda rec: {**rec, "question_id": 5})
    return ["serialize", "--dataset", dataset, "--out", out], "matchings.jsonl line 1: bad matching record: 5 is not a string"


def _truth_repeated_question(tmp, dataset, truth):
    bad = tmp / "bad_truth.jsonl"
    bad.write_text(truth.read_text())
    lineno = _append_edited_first_record(bad, lambda rec: {**rec, "gold": rec["distractor"], "distractor": rec["gold"]})
    argv = ["mine", "--dataset", dataset, "--out", tmp / "out", "--predictor.truth", bad]
    return argv, f"bad_truth.jsonl line {lineno}: bad truth record: repeated"


def _bad_stored_dump(edit, where):
    """``match`` from a stored copy of a scored dump whose first record is edited."""

    def case(tmp, dataset, truth):
        assert run("score", "--dataset", dataset, "--out", tmp / "lexical") == 0
        stored = tmp / "stored.jsonl"
        _copy_with_first_record(tmp / "lexical" / "matrices.jsonl", stored, edit)
        return ["match", "--dataset", dataset, "--out", tmp / "out", "--matching.matrices", stored], where

    return case


def _per_cell(record):
    """The first cell of a record in the per-pair format the dump had before."""
    ev, cons = record["evidentiality"][0], record["consistency"][0][0]
    return {"question_id": record["question_id"], "i": 0, "j": 0, "evidentiality": ev, "consistency": cons, "combined": cons}


def _one_retrieved_fewer(record):
    """The record without its last retrieved passage; a cutoff row holds that
    passage's cell, as its last value, only if the passage is evidential."""
    if record["evidentiality"].pop() > 0.5 or record["mode"] == "product":
        for row in record["consistency"]:
            row.pop()
    return record


def _ragged(record):
    record["consistency"][1] = record["consistency"][1][:-1]
    return record


def _first_column_open_then(fields):
    """An edit that opens only the first of four columns, then sets ``fields``."""
    return lambda record: {**record, "mode": "cutoff", "evidentiality": [1.0, 0.0, 0.0, 0.0], **fields}


def _without(field):
    return lambda record: {k: v for k, v in record.items() if k != field}


def _consistency_text(record):
    record["consistency"][0][0] = "0.0"
    return record


def _huge_evidentiality(record):
    record["evidentiality"][0] = 10**400  # a JSON integer no float holds
    return record


def _bad_probability(field, value):
    """A stored dump whose first probability of ``field`` is ``value``."""

    def edit(record):
        row = record[field] if field == "evidentiality" else record[field][0]
        row[0] = value
        return record

    return _bad_stored_dump(edit, where=f"stored.jsonl line 1: bad matrix record: {field} {value!r} outside [0,1]")


def _cache_not_a_database(tmp, dataset, truth):
    cache = tmp / "cache"
    cache.mkdir()
    (cache / "responses.sqlite3").write_text("not a database\n" * 100)
    argv = ["score", "--dataset", dataset, "--out", tmp / "out", "--cache_dir", cache]
    return argv, f"response cache {cache / 'responses.sqlite3'}: file is not a database"


def _bad_matchings(edit, where):
    """``serialize`` from the matchings of the workspace, their first record edited."""

    def case(tmp, dataset, truth):
        out = tmp / "out"
        assert run("score", "--dataset", dataset, "--out", out) == 0
        assert run("match", "--dataset", dataset, "--out", out) == 0
        _copy_with_first_record(out / "matchings.jsonl", out / "matchings.jsonl", edit)
        return ["serialize", "--dataset", dataset, "--out", out], f"matchings.jsonl line 1: bad matching record: {where}"

    return case


def _bad_truth_record(edit, problem):
    """A truth file whose first record is edited by ``edit``."""

    def case(tmp, dataset, truth):
        bad = tmp / "bad_truth.jsonl"
        _copy_with_first_record(truth, bad, edit)
        argv = ["mine", "--dataset", dataset, "--out", tmp / "out", "--predictor.truth", bad]
        return argv, f"bad_truth.jsonl line 1: bad truth record: {problem}"

    return case


def _bad_truth(field, value, problem):
    """A truth file whose first record holds ``value`` for ``field``, a field
    of the record or, as ``chains.<name>``, of its first chain."""

    def edit(record):
        target = record["chains"][0] if field.startswith("chains.") else record
        target[field.removeprefix("chains.")] = value
        return record

    return _bad_truth_record(edit, problem)


def _dump_line_not_utf8(tmp, dataset, truth):
    out = tmp / "out"
    assert run("score", "--dataset", dataset, "--out", out) == 0
    with open(out / "matrices.jsonl", "ab") as fh:
        fh.write(b'{"question_id": "q\xff"}\n')
    return ["match", "--dataset", dataset, "--out", out], "matrices.jsonl line 9: not UTF-8"


def _bad_annotation(record, where=""):
    def case(tmp, dataset, truth):
        annotations = tmp / "annotations.jsonl"
        annotations.write_text(json.dumps(record) + "\n")
        argv = ["analyze", "--dataset", dataset, "--out", tmp / "out", "--analyze.annotations", annotations]
        return argv, f"annotations.jsonl line 1{where}"

    return case


def _empty_annotations(tmp, dataset, truth):
    annotations = tmp / "annotations.jsonl"
    annotations.write_text("")
    argv = ["analyze", "--dataset", dataset, "--out", tmp / "out", "--analyze.annotations", annotations]
    return argv, f"{annotations}: no annotation records"


def _unparsable_override(tmp, dataset, truth):
    return ["simulate", "--out", tmp / "out", "--simulate.n", "abc"], "simulate.n must be an integer >= 1, got 'abc'"


def _unknown_strategy(tmp, dataset, truth):
    return ["match", "--dataset", dataset, "--out", tmp / "o", "--matching.strategy", "psychic"], "psychic"


def _unknown_hop_type(tmp, dataset, truth):
    return ["simulate", "--out", tmp / "o", "--simulate.hop_type", "bogus"], "bogus"


def _unknown_generation_mode(tmp, dataset, truth):
    return ["generate", "--dataset", dataset, "--out", tmp / "o", "--generator.mode", "bogus"], "bogus"


def _bad_config(command, document, value):
    """Run ``command`` with a config file holding ``document``; the summary
    must name ``value``."""

    def case(tmp, dataset, truth):
        config = tmp / "config.json"
        config.write_text(json.dumps(document))
        argv = [command, "--out", tmp / "o", "--config", config]
        return (argv if command == "simulate" else [*argv, "--dataset", dataset]), value

    return case


def _out_null(tmp, dataset, truth):
    config = tmp / "config.json"
    config.write_text(json.dumps({"out": None}))
    return ["simulate", "--config", config], "out must be a path, got None"


def _config_file(content, problem):
    """Run simulate with a config file of ``content``; the summary must name
    the file and ``problem``."""

    def case(tmp, dataset, truth):
        config = tmp / "config.json"
        config.write_bytes(content)
        return ["simulate", "--out", tmp / "o", "--config", config], f"config file {config} {problem}"

    return case


def _bad_flag(command, flag, value, message=None):
    """Run ``command`` with ``flag value``; the summary must hold ``message``, else name the value."""

    def case(tmp, dataset, truth):
        return [command, "--dataset", dataset, "--out", tmp / "o", flag, value], message or repr(value)

    return case


def _long_unknown_flag(name, message):
    """Run ``score`` with the unknown flag ``--name 1``; the summary must hold ``message``."""

    def case(tmp, dataset, truth):
        return ["score", "--dataset", dataset, "--out", tmp / "o", f"--{name}", "1"], message

    return case


def _flag_without_value(name):
    """Run ``score`` ending in ``--name`` with no value."""

    def case(tmp, dataset, truth):
        return ["score", "--dataset", dataset, "--out", tmp / "o", f"--{name}"], f"flag --{clipped(name)} is missing a value"

    return case


def _bad_words(*words, message):
    """Run ``words`` followed by the dataset and an out directory; the summary must hold ``message``."""

    def case(tmp, dataset, truth):
        return [*words, "--dataset", dataset, "--out", tmp / "o"], message

    return case


_BAD_COMMAND = "command must be one of analyze, generate, match, mine, score, serialize, simulate"


def _audit_calls(path) -> dict[str, int]:
    """The reader calls of each question in a mining audit, which loads as a
    question-keyed handoff: one record per question, its five lists of one length."""
    lists = ("config", "lp_index", "rp_index", "prediction", "correct")

    def calls(rec: dict) -> int:
        assert set(rec) == {"question_id", *lists}
        (length,) = {len(rec[key]) for key in lists}
        return length

    return read_keyed(path, "audit", calls)


def _loaded(*argv):
    """The config ``serialize`` would run with, given ``argv``."""
    return load_config(["serialize", *map(str, argv)])[1]


class _InFlight:
    """A reply callable for the HTTP fixture: ``reply(body)`` after 5 ms, counting
    the calls in flight at once; ``peak`` is the most seen."""

    def __init__(self, reply):
        self.reply, self.lock, self.count, self.peak = reply, threading.Lock(), 0, 0

    def __call__(self, body):
        with self.lock:
            self.count += 1
            self.peak = max(self.peak, self.count)
        time.sleep(0.005)
        with self.lock:
            self.count -= 1
        return self.reply(body)


# past about 1000 levels json.loads raises RecursionError, not ValueError
_DEEP = "[" * 100000 + "]" * 100000


def _deep_dataset_line(tmp, dataset, truth):
    with open(dataset, "a") as fh:
        fh.write(_DEEP + "\n")
    return ["score", "--dataset", dataset, "--out", tmp / "out"], 0, "invalid JSON: maximum recursion depth"


def _deep_handoff_line(tmp, dataset, truth):
    assert run("score", "--dataset", dataset, "--out", tmp / "out") == 0
    with open(tmp / "out" / "matrices.jsonl", "a") as fh:
        fh.write(_DEEP + "\n")
    return ["match", "--dataset", dataset, "--out", tmp / "out"], 1, f"{tmp / 'out' / 'matrices.jsonl'} line 9: invalid JSON"


def _deep_config_file(tmp, dataset, truth):
    config = tmp / "config.json"
    config.write_text(_DEEP)
    return ["score", "--dataset", dataset, "--out", tmp / "out", "--config", config], 1, f"config file {config} is not JSON"


def _deep_predictions_flag(tmp, dataset, truth):
    argv = ["analyze", "--dataset", dataset, "--out", tmp / "out", "--analyze.predictions", _DEEP]
    return argv, 1, "analyze.predictions must be an object of file paths, got '[[["


# a string whose escape is half a surrogate pair: valid JSON, whose value no UTF-8 file can hold
_LONE = "q\ud800x"


def _with_lone_question_id(record):
    record["question_id"] = _LONE
    return record


def _lone_dataset_line(tmp, dataset, truth, service):
    _copy_with_first_record(dataset, dataset, _with_lone_question_id)
    line_one = lambda report: [(e["stage"], e["line"]) for e in report["errors"]] == [("ingest", 1)]
    return ["score", "--dataset", dataset, "--out", tmp / "out"], 0, "invalid JSON: lone surrogate", line_one


def _lone_handoff_line(tmp, dataset, truth, service):
    out = tmp / "out"
    assert run("score", "--dataset", dataset, "--out", out) == run("match", "--dataset", dataset, "--out", out) == 0
    _copy_with_first_record(out / "matchings.jsonl", out / "matchings.jsonl", _with_lone_question_id)
    where = f"{out / 'matchings.jsonl'} line 1: invalid JSON: lone surrogate"
    return ["serialize", "--dataset", dataset, "--out", out], 1, where, None


def _lone_config_file(tmp, dataset, truth, service):
    config = tmp / "config.json"
    config.write_text(json.dumps({"out": str(tmp / _LONE)}))
    argv = ["score", "--dataset", dataset, "--config", config]
    return argv, 1, f"config file {config} is not JSON: lone surrogate", None


def _lone_predictions_flag(tmp, dataset, truth, service):
    argv = ["analyze", "--dataset", dataset, "--out", tmp / "out", "--analyze.predictions", json.dumps({"m": _LONE})]
    return argv, 1, "analyze.predictions must be an object of file paths", None


def _lone_predict_reply(tmp, dataset, truth, service):
    """Each question's first reader call fails, once, so every label is undetermined."""
    service.responses["/predict"] = json.dumps({"answer": _LONE}).encode()
    questions = len(read_examples(dataset)[0])

    def undetermined(report):
        sent = len(service.requests["/predict"])  # not retried
        audited = (tmp / "out" / "mining_audit.jsonl").exists()
        return (report["labels"], report["errors"], sent, audited) == (0, [], questions, True)

    remote = ["--predictor.backend", "remote", "--predictor.url", service.url("/predict")]
    return ["mine", "--dataset", dataset, "--out", tmp / "out", *remote], 0, "response is not JSON: lone surrogate", undetermined


def _lone_cache_entry(tmp, dataset, truth, service):
    argv = ["mine", "--dataset", dataset, "--predictor.truth", truth, "--out", tmp / "out", "--cache_dir", tmp / "cache"]
    assert run(*argv) == 0
    with cache_db(tmp / "cache") as db:
        (key,) = db.execute("SELECT min(key) FROM responses").fetchone()
        db.execute("UPDATE responses SET response = ? WHERE key = ?", (json.dumps({"answer": _LONE}), key))
    where = f"corrupt cache entry {tmp / 'cache' / 'responses.sqlite3'} key {key}: lone surrogate"
    return argv, 0, where, lambda report: len(report["errors"]) == 1


def _score_argv(dataset, truth):
    return ["score", "--dataset", dataset]


def _mine_argv(dataset, truth):
    return ["mine", "--dataset", dataset, "--predictor.truth", truth]


_LAZY_MODULES = ("requests", "urllib.request", "http.client", "concurrent.futures")
_STAGE_MODULES = ("pairqa.analysis", "pairqa.mining", "pairqa.sim")
_REPORT_LOADED_MODULES = (
    "import json, sys\n"
    "from pairqa.cli import main\n"
    "modules = json.loads(sys.argv[1])\n"
    "code = main(sys.argv[2:]) if len(sys.argv) > 2 else None\n"
    "print(json.dumps({'exit': code, 'loaded': [m for m in modules if m in sys.modules]}))\n"
)


def _in_new_interpreter(*argv, modules=_LAZY_MODULES) -> dict:
    """Import ``pairqa.cli`` in a new interpreter, under another string-hash seed than
    this one's (an output in hash() order differs), run ``main(argv)`` if argv is
    given, and report its exit code and which of ``modules`` got loaded."""
    env = {**os.environ, "PYTHONPATH": str(Path(pairqa.__file__).resolve().parents[1])}
    env["PYTHONHASHSEED"] = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_LOADED_MODULES, json.dumps(modules), *map(str, argv)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _run_in_new_interpreter(*argv) -> int:
    """``run`` in a new interpreter, under another string-hash seed than this one's."""
    return _in_new_interpreter(*argv, modules=[])["exit"]


class TestScoreMatchSerialize:
    def test_full_pipeline_with_lexical_scorer(self, sim_workspace):
        tmp, dataset, _ = sim_workspace
        out = tmp / "run"
        assert run("score", "--dataset", dataset, "--out", out) == 0
        assert (out / "matrices.jsonl").exists()
        assert run("match", "--dataset", dataset, "--out", out, "--strategy", "optimal") == 0
        matchings = [json.loads(l) for l in (out / "matchings.jsonl").read_text().splitlines()]
        assert len(matchings) == 8
        for record in matchings:
            assert record["strategy"] == "optimal"
            scores = [s for _, _, s in record["pairs"]]
            assert scores == sorted(scores, reverse=True)
            assert {j for _, j, _ in record["pairs"]} == {0, 1, 2, 3}
        assert run("serialize", "--dataset", dataset, "--out", out, "--variant", "pairwise") == 0
        blocks = [json.loads(l) for l in (out / "reader_inputs.jsonl").read_text().splitlines()]
        assert len(blocks) == 8
        assert all(b["blocks"] for b in blocks)
        assert "generated passage:" in blocks[0]["blocks"][0]
        # a copy of the matrix dump at another path, as stored probabilities, gives the same matchings
        stored = tmp / "stored.jsonl"
        stored.write_bytes((out / "matrices.jsonl").read_bytes())
        assert run("match", "--dataset", dataset, "--out", tmp / "from-stored", "--matching.matrices", stored) == 0
        assert (tmp / "from-stored" / "matchings.jsonl").read_bytes() == (out / "matchings.jsonl").read_bytes()

    def test_bridge_corpus_through_five_stages_reruns_byte_identical(self, tmp_path):
        """The rerun runs each stage in a new interpreter under another string-hash seed."""
        trees = []
        for name, stage_run in (("first", run), ("rerun", _run_in_new_interpreter)):
            out = tmp_path / name
            assert stage_run("simulate", "--out", out, "--simulate.num_questions", 8, "--simulate.hop_type", "bridge") == 0
            data = ["--dataset", out / "sim_corpus.jsonl", "--out", out, "--predictor.truth", out / "sim_truth.jsonl"]
            for stage in ("score", "match", "serialize", "mine", "analyze"):
                assert stage_run(stage, *data) == 0
            trees.append(_tree(out))
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("strategy", ["greedy", "random", "same-answer"])
    def test_other_strategies(self, sim_workspace, strategy):
        tmp, dataset, _ = sim_workspace
        out = tmp / f"run_{strategy}"
        assert run("score", "--dataset", dataset, "--out", out) == 0
        assert run("match", "--dataset", dataset, "--out", out, "--strategy", strategy) == 0
        matchings = [json.loads(l) for l in (out / "matchings.jsonl").read_text().splitlines()]
        assert all(m["strategy"] == strategy for m in matchings)

    def test_shared_cache_dir_keeps_backends_apart(self, sim_workspace, http_service):
        tmp, dataset, _ = sim_workspace
        http_service.responses["/score"] = {"probability": 0.25}
        remote = ["--scorer.backend", "remote", "--scorer.url", http_service.url("/score")]

        def probabilities(*flags) -> set[float]:
            out = tmp / "out"
            assert run("score", "--dataset", dataset, "--out", out, "--cache_dir", tmp / "cache", *flags) == 0
            records = [json.loads(l) for l in (out / "matrices.jsonl").read_text().splitlines()]
            return {p for r in records for p in [*r["evidentiality"], *(p for row in r["consistency"] for p in row)]}

        assert probabilities() == {0.0, 1.0}
        assert probabilities(*remote) == {0.25}
        sent = len(http_service.requests["/score"])
        # the lexical scorer's source is rewritten in place: no passage holds an answer any more
        records = [json.loads(line) for line in dataset.read_text().splitlines()]
        dataset.write_text("".join(json.dumps({**rec, "answers": ["nowhere"]}) + "\n" for rec in records))
        assert probabilities() == {0.0}
        assert probabilities(*remote) == {0.25}
        assert len(http_service.requests["/score"]) == sent  # the remote bodies are unchanged, so they replay

    @pytest.mark.parametrize("hop_type", [None, "unknown"])
    def test_two_segment_chains_get_the_multi_hop_budget(self, tmp_path, hop_type):
        """400 tokens per pair block for single-hop, 1000 for multi-hop: chains
        of two 302-token segments are multi-hop without a multi-hop type."""

        def chains(tag):
            return [[{"text": " ".join(f"{tag}{c}.{s}.{k}" for k in range(302))} for s in range(2)] for c in range(2)]

        record = {"question_id": "q1", "question": "who won", "answers": ["Don Shula"]}
        record.update(retrieved=chains("r"), generated=chains("g"), **({"hop_type": hop_type} if hop_type else {}))
        dataset, out = tmp_path / "data.jsonl", tmp_path / "out"
        dataset.write_text(json.dumps(record) + "\n")
        for stage in ("score", "match", "serialize"):
            assert run(stage, "--dataset", dataset, "--out", out, "--strict") == 0
        (reader,) = [json.loads(line) for line in (out / "reader_inputs.jsonl").read_text().splitlines()]
        assert [len(block.split()) for block in reader["blocks"]] == [1000, 1000]

    def test_a_loader_bound_after_import_sees_every_handoff_read(self, sim_workspace, monkeypatch):
        """A stage looks its handoff loader up when it runs, so a wrapper bound later to
        ``pairqa.scoring.load_matrix_dump`` or ``pairqa.cli.load_matchings`` sees each read."""
        tmp, dataset, _ = sim_workspace
        out = tmp / "out"
        assert run("score", "--dataset", dataset, "--out", out) == 0
        calls = []
        for module, name in ((pairqa.scoring, "load_matrix_dump"), (pairqa.cli, "load_matchings")):

            def counted(path, load=getattr(module, name), name=name):
                calls.append(name)
                return load(path)

            monkeypatch.setattr(module, name, counted)
        reads = {}
        for stage in ("match", "serialize", "analyze"):
            assert run(stage, "--dataset", dataset, "--out", out) == 0
            reads[stage], calls[:] = list(calls), []
        assert reads == {"match": ["load_matrix_dump"], "serialize": ["load_matchings"], "analyze": ["load_matrix_dump"]}


def _cache_rows(cache_dir) -> int:
    with cache_db(cache_dir) as db:
        return db.execute("SELECT count(*) FROM responses").fetchone()[0]


class TestCacheDir:
    _OUTPUTS = ("matrices.jsonl", "labels.evidentiality.jsonl", "labels.consistency.jsonl", "mining_audit.jsonl", "mine_report.json")

    @staticmethod
    def _score_and_mine(tmp, dataset, truth, out, *flags):
        assert run("score", "--dataset", dataset, "--out", out, *flags) == 0
        assert run("mine", "--dataset", dataset, "--out", out, "--predictor.truth", truth, *flags) == 0

    def test_questions_sharing_texts_keep_their_own_verdicts(self, tmp_path):
        """Two questions with one question text and the same passages but other
        answers: the lexical scorer's verdicts differ, so a cached run must not
        replay the first question's for the second."""
        passages = [{"text": "the city is paris"}, {"text": "the city is lyon"}]
        records = [
            {"question_id": qid, "question": "which city", "answers": [answer], "retrieved": passages, "generated": passages}
            for qid, answer in (("q1", "paris"), ("q2", "lyon"))
        ]
        dataset = tmp_path / "shared.jsonl"
        dataset.write_text("".join(json.dumps(record) + "\n" for record in records))
        assert run("score", "--dataset", dataset, "--out", tmp_path / "plain") == 0
        plain = (tmp_path / "plain" / "matrices.jsonl").read_bytes()
        assert [json.loads(line)["evidentiality"] for line in plain.splitlines()] == [[1.0, 0.0], [0.0, 1.0]]
        for name in ("cold", "warm"):
            assert run("score", "--dataset", dataset, "--out", tmp_path / name, "--cache_dir", tmp_path / "cache") == 0
            assert (tmp_path / name / "matrices.jsonl").read_bytes() == plain, name

    def test_cache_replays_the_uncached_run_and_refills_an_old_layout(self, sim_workspace):
        """A cold pass at --workers 4 then a warm one into one cache write the outputs of an uncached
        --workers 1 run, and the warm one adds no row. A directory of ``<key>.json`` entries, as earlier
        versions wrote, is not read: each of its keys is asked again and stored."""
        tmp, dataset, truth = sim_workspace
        self._score_and_mine(tmp, dataset, truth, tmp / "plain")
        plain = [(tmp / "plain" / name).read_bytes() for name in self._OUTPUTS]
        rows = []
        for name, workers in (("cold", 4), ("warm", 1)):
            self._score_and_mine(tmp, dataset, truth, tmp / name, "--cache_dir", tmp / "fill-cache", "--workers", workers)
            assert [(tmp / name / output).read_bytes() for output in self._OUTPUTS] == plain, name
            rows.append(_cache_rows(tmp / "fill-cache"))
        assert rows[0] == rows[1]
        with cache_db(tmp / "fill-cache") as db:
            keys = [key for (key,) in db.execute("SELECT key FROM responses")]
        old = tmp / "old-cache"
        old.mkdir()
        for key in keys:  # answers that would change every output if they were replayed
            (old / f"{key}.json").write_text('{"answer":"nobody","probability":0.25}')
        self._score_and_mine(tmp, dataset, truth, tmp / "old", "--cache_dir", old)
        assert [(tmp / "old" / output).read_bytes() for output in self._OUTPUTS] == plain
        assert _cache_rows(old) == len(keys)

    def test_cold_two_workers_then_warm_one_worker(self, sim_workspace, http_service):
        tmp, dataset, truth = sim_workspace
        http_service.responses["/score"] = lambda body: {"probability": len(body["retrieved"]) % 7 / 7}
        cache = tmp / "cache"
        flags = ["--scorer.backend", "remote", "--scorer.url", http_service.url("/score"), "--cache_dir", cache]
        self._score_and_mine(tmp, dataset, truth, tmp / "cold", *flags, "--workers", 2)
        rows = _cache_rows(cache)
        # one row per remote score request, and one per reader call, each an entry of the mining audit
        calls = sum(_audit_calls(tmp / "cold" / "mining_audit.jsonl").values())
        assert rows == len(http_service.requests["/score"]) + calls
        assert calls == 8 * (1 + 4 + 2 * 3)
        http_service.close()  # from here on any request fails, so the warm pass must send none
        self._score_and_mine(tmp, dataset, truth, tmp / "warm", *flags, "--workers", 1, "--strict")
        for name in self._OUTPUTS:
            assert (tmp / "warm" / name).read_bytes() == (tmp / "cold" / name).read_bytes(), name
        assert _cache_rows(cache) == rows

    def test_a_product_run_fills_the_cache_a_cutoff_run_replays(self, sim_workspace, http_service):
        """Cache keys name the request, not the combine mode: a product run asks
        every cell, so a cutoff run over its cache sends nothing and writes the
        dump of an uncached cutoff run."""
        tmp, dataset, _ = sim_workspace
        http_service.responses["/score"] = lambda body: {"probability": len(body["retrieved"]) % 7 / 7}
        remote = ["--dataset", dataset, "--scorer.backend", "remote", "--scorer.url", http_service.url("/score")]
        assert run("score", *remote, "--out", tmp / "plain", "--strict") == 0
        gated = len(http_service.requests["/score"])
        cached = [*remote, "--cache_dir", tmp / "cache", "--strict"]
        assert run("score", *cached, "--out", tmp / "product", "--scoring.mode", "product") == 0
        assert len(http_service.requests["/score"]) - gated == 8 * (4 + 3 * 4) > gated
        http_service.close()  # from here on any request fails
        assert run("score", *cached, "--out", tmp / "cutoff") == 0
        assert (tmp / "cutoff" / "matrices.jsonl").read_bytes() == (tmp / "plain" / "matrices.jsonl").read_bytes()

    def test_remote_score_keeps_one_request_in_flight_per_thread(self, sim_workspace, http_service):
        """--workers N keeps at most N requests in flight, the default at most 4;
        every run writes the matrices and cache rows of a --workers 1 run."""
        tmp, dataset, _ = sim_workspace
        in_flight = _InFlight(lambda body: {"probability": len(body["retrieved"]) % 7 / 7})
        http_service.responses["/score"] = in_flight
        outputs, peaks = {}, {}
        for workers in (1, 2, 6, None):
            in_flight.peak = 0
            out, cache = tmp / f"w{workers}", tmp / f"cache-w{workers}"
            flags = ["--scorer.backend", "remote", "--scorer.url", http_service.url("/score"), "--cache_dir", cache]
            flags += ["--workers", workers] if workers else []
            assert run("score", "--dataset", dataset, "--out", out, *flags) == 0
            peaks[workers] = in_flight.peak
            with cache_db(cache) as db:
                rows = sorted(db.execute("SELECT key, response FROM responses"))
            outputs[workers] = (out / "matrices.jsonl").read_bytes(), rows
        assert peaks[1] == 1 and 1 < peaks[2] <= 2 and 1 < peaks[6] <= 6 and 1 < peaks[None] <= 4
        # N evidentiality rows per question, then M consistency rows per column the cutoff leaves open
        opened = [sum(len(rp.text()) % 7 / 7 > 0.5 for rp in ex.retrieved) for ex in read_examples(dataset)[0]]
        assert 0 < sum(opened) < 8 * 4
        assert len(outputs[1][1]) == sum(4 + 3 * k for k in opened)
        assert all(output == outputs[1] for output in outputs.values())


class TestStartup:
    """The HTTP modules cost a stage process tens of milliseconds to import:
    only a request that is actually sent may load them; ``requests`` is never
    loaded. The thread pool (``concurrent.futures``) is loaded by a stage that
    runs on more than one thread, as a remote stage does by default, warm or
    cold, and an offline one does not. Each test checks all of
    ``_LAZY_MODULES``. ``sqlite3`` is loaded only by a run with a ``cache_dir``.
    Of ``_STAGE_MODULES``, a command loads only those its own work calls:
    ``mining`` for ``mine``, ``analysis`` for ``analyze`` and ``sim`` for
    ``simulate`` and for the ``sim`` reader."""

    def test_import_leaves_requests_unloaded(self):
        modules = (*_LAZY_MODULES, "sqlite3", *_STAGE_MODULES)
        assert _in_new_interpreter(modules=modules) == {"exit": None, "loaded": []}

    def test_each_command_loads_only_its_own_stage_modules(self, sim_workspace, http_service):
        tmp, dataset, truth = sim_workspace
        http_service.responses["/predict"] = {"answer": "nobody"}
        stage = ["--dataset", dataset, "--out", tmp / "out"]
        remote = ["--predictor.backend", "remote", "--predictor.url", http_service.url("/predict")]
        expected = [
            (["score", *stage], []),
            (["score", *stage, "--simulate.n", 5], []),
            (["match", *stage], []),
            (["serialize", *stage], []),
            (["mine", *stage, "--predictor.truth", truth], ["pairqa.mining", "pairqa.sim"]),
            (["mine", *stage, *remote], ["pairqa.mining"]),
            (["analyze", *stage], ["pairqa.analysis"]),
            (["simulate", "--out", tmp / "sim", "--simulate.num_questions", 2], ["pairqa.sim"]),
        ]
        loaded = [(argv[0], _in_new_interpreter(*argv, modules=_STAGE_MODULES)) for argv, _ in expected]
        assert loaded == [(argv[0], {"exit": 0, "loaded": modules}) for argv, modules in expected]
        assert http_service.requests["/predict"]

    @pytest.mark.parametrize("argv", [_score_argv, _mine_argv], ids=["score", "mine"])
    def test_offline_stage_leaves_requests_and_threads_unloaded(self, sim_workspace, argv):
        tmp, dataset, truth = sim_workspace
        result = _in_new_interpreter(*argv(dataset, truth), "--out", tmp / "out")
        assert result == {"exit": 0, "loaded": []}

    def test_only_a_cached_score_loads_sqlite3(self, sim_workspace):
        tmp, dataset, _ = sim_workspace
        argv = ["score", "--dataset", dataset, "--out", tmp / "out"]
        assert _in_new_interpreter(*argv, modules=["sqlite3"]) == {"exit": 0, "loaded": []}
        cached = _in_new_interpreter(*argv, "--cache_dir", tmp / "cache", modules=["sqlite3"])
        assert cached == {"exit": 0, "loaded": ["sqlite3"]}

    @staticmethod
    def _remote_score(tmp, dataset, http_service):
        http_service.responses["/score"] = {"probability": 0.5}
        url = http_service.url("/score")
        argv = ["score", "--dataset", dataset, "--scorer.backend", "remote", "--scorer.url", url]
        return argv + ["--cache_dir", tmp / "cache"]

    def test_cold_remote_score_loads_urllib_not_requests(self, sim_workspace, http_service):
        tmp, dataset, _ = sim_workspace
        argv = self._remote_score(tmp, dataset, http_service)
        result = _in_new_interpreter(*argv, "--out", tmp / "cold", "--strict")
        assert result == {"exit": 0, "loaded": ["urllib.request", "http.client", "concurrent.futures"]}
        assert http_service.requests["/score"]

    def test_warm_remote_rerun_leaves_requests_unloaded(self, sim_workspace, http_service):
        tmp, dataset, _ = sim_workspace
        argv = self._remote_score(tmp, dataset, http_service)
        assert run(*argv, "--out", tmp / "cold") == 0
        http_service.close()  # from here on any request fails, so the rerun must send none
        warm = _in_new_interpreter(*argv, "--out", tmp / "warm", "--strict")
        assert warm == {"exit": 0, "loaded": ["concurrent.futures"]}
        assert (tmp / "warm" / "matrices.jsonl").read_bytes() == (tmp / "cold" / "matrices.jsonl").read_bytes()


def _stage_process(*argv) -> subprocess.CompletedProcess:
    """``python -m pairqa.cli *argv`` in a new process, with stdout and stderr piped and
    PYTHONUNBUFFERED unset, so that output the process leaves unflushed is lost."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(pairqa.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "pairqa.cli", *map(str, argv)]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)


class TestStageProcess:
    """``python -m pairqa.cli`` and the ``pairqa`` script end in ``exit_main``, which
    runs the exit handlers, flushes stdout and stderr and skips the interpreter's
    teardown; ``main`` called in process never takes that path."""

    def test_cached_score_with_a_failure_leaves_only_the_database(self, sim_workspace, scorer_service, http_service):
        """A failed question's traceback keeps the cache open until exit: only its
        exit handler folds the WAL into the database, and a new process reads it all."""
        tmp, dataset, _ = sim_workspace
        rejected = _copy_with_first_record(dataset, dataset, lambda rec: {**rec, "question": "reject " + rec["question"]})
        argv = ["score", "--dataset", dataset, "--scorer.backend", "remote", "--cache_dir", tmp / "cache"]
        cold = _stage_process(*argv, "--out", tmp / "cold")
        assert cold.returncode == 0, cold.stderr
        assert "scored 7/8 questions" in cold.stdout and rejected["question_id"] in cold.stderr
        assert os.listdir(tmp / "cache") == ["responses.sqlite3"]
        sent = len(http_service.requests["/score"])
        warm = _stage_process(*argv, "--out", tmp / "warm")
        assert warm.returncode == 0, warm.stderr
        assert os.listdir(tmp / "cache") == ["responses.sqlite3"]
        # the rerun asks the service again for the rejected question only
        assert [body["question"][:7] for body in http_service.requests["/score"][sent:]] == ["reject "]
        assert (tmp / "warm" / "matrices.jsonl").read_bytes() == (tmp / "cold" / "matrices.jsonl").read_bytes()

    def test_summary_reaches_a_piped_stdout(self, sim_workspace):
        tmp, dataset, _ = sim_workspace
        proc = _stage_process("score", "--dataset", dataset, "--out", tmp / "out")
        summary = f"scored 8/8 questions -> {tmp / 'out' / 'matrices.jsonl'}\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, summary, "")

    def test_error_run_exits_1_with_one_json_line_on_stderr(self, tmp_path):
        proc = _stage_process("score", "--dataset", tmp_path / "missing.jsonl", "--out", tmp_path / "out")
        assert (proc.returncode, proc.stdout) == (1, "")
        [line] = proc.stderr.splitlines()
        message = f"dataset must be an existing file or null, got {str(tmp_path / 'missing.jsonl')!r}"
        assert json.loads(line) == {"error": "ContractViolation", "message": message}

    def test_the_pairqa_script_ends_in_exit_main(self):
        import tomllib

        pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
        assert pyproject["project"]["scripts"] == {"pairqa": "pairqa.cli:exit_main"}


def _other_seed_truth(tmp, truth_path):
    """The truth file of a corpus like the workspace's but of another seed: every question text
    is the same, since it depends only on the question's index, but chain texts differ."""
    other = tmp / "other"
    shape = ["--simulate.num_questions", 8, "--simulate.n", 4, "--simulate.m", 3]
    assert run("simulate", "--out", other, "--seed", 6, *shape) == 0
    return other / "sim_truth.jsonl"


def _truth_first_question_dropped(tmp, truth_path):
    bad = tmp / "bad_truth.jsonl"
    _copy_with_first_record(truth_path, bad, _drop)
    return bad


def _long_question_id_not_in_truth(tmp, truth_path):
    """The workspace's truth, for a dataset whose first question has a 100000-character
    id and a question text that no truth record holds."""
    dataset = tmp / "corpus.jsonl"
    _copy_with_first_record(dataset, dataset, lambda rec: {**rec, "question_id": "q" * 100000, "question": "who?"})
    return truth_path


class TestMine:
    def test_mine_with_sim_predictor(self, sim_workspace, capsys):
        tmp, dataset, truth_path = sim_workspace
        out = tmp / "mine"
        code = run(
            "mine",
            "--dataset",
            dataset,
            "--out",
            out,
            "--predictor.truth",
            truth_path,
        )
        assert code == 0
        assert (out / "labels.evidentiality.jsonl").exists()
        assert (out / "labels.consistency.jsonl").exists()
        audit = _audit_calls(out / "mining_audit.jsonl")
        assert list(audit) == [ex.question_id for ex in read_examples(dataset)[0]]
        # one entry per reader call: I, II per retrieved passage, III and IV per generated one
        assert sum(audit.values()) == 8 * (1 + 4 + 2 * 3)
        report = json.loads((out / "mine_report.json").read_text())
        assert report["questions"] == 8
        cons = [
            json.loads(l) for l in (out / "labels.consistency.jsonl").read_text().splitlines()
        ]
        # one decided label per pivot and per (generated, pivot) pair; the other slots are not written
        written = len((out / "labels.evidentiality.jsonl").read_text().splitlines()) + len(cons)
        assert (report["labels"], report["undetermined"]) == (written, 8 * (4 + 3 * 4) - written) == (32, 96)
        assert capsys.readouterr().out.startswith("mined 32 labels (96 undetermined) over 8 questions")
        assert cons and all(set(r) == {"question", "generated", "retrieved", "label"} for r in cons)

    def test_remote_mine_keeps_up_to_four_predict_requests_in_flight(self, sim_workspace, http_service):
        """At the default, remote mine runs on 4 threads, each with one reader call
        in flight, and writes the labels and audit of a --workers 1 run."""
        tmp, dataset, _ = sim_workspace
        answers = {ex.question: ex.answers for ex in read_examples(dataset)[0]}

        def predict(body):
            gold = answers[body["question"]]
            found = any(text_contains_answer(text, gold) for text in body["passages"])
            return {"answer": gold[0] if found else "nobody"}

        in_flight = _InFlight(predict)
        http_service.responses["/predict"] = in_flight
        remote = ["--dataset", dataset, "--predictor.backend", "remote", "--predictor.url", http_service.url("/predict")]
        names = ("labels.evidentiality.jsonl", "labels.consistency.jsonl", "mining_audit.jsonl")
        outputs, peaks = {}, {}
        for workers in (None, 1):
            in_flight.peak = 0
            out = tmp / f"w{workers}"
            assert run("mine", *remote, "--out", out, "--strict", *(["--workers", workers] if workers else [])) == 0
            peaks[workers] = in_flight.peak
            outputs[workers] = [(out / name).read_bytes() for name in names]
        assert 1 < peaks[None] <= 4 and peaks[1] == 1
        assert outputs[None] == outputs[1] and all(outputs[1])

    def test_a_question_whose_every_reader_call_fails_keeps_an_audit_record(self, sim_workspace, http_service):
        """The reader refuses the first question, so its I call fails and no other call is made:
        the audit still names it, in dataset order, with a record of five empty lists."""
        tmp, dataset, _ = sim_workspace
        examples = read_examples(dataset)[0]
        refused = examples[0]

        def predict(body):
            return (400, {}) if body["question"] == refused.question else {"answer": "nobody"}

        http_service.responses["/predict"] = predict
        out = tmp / "refused"
        remote = ["--predictor.backend", "remote", "--predictor.url", http_service.url("/predict")]
        assert run("mine", "--dataset", dataset, "--out", out, *remote) == 0
        audit = _audit_calls(out / "mining_audit.jsonl")
        assert list(audit) == [ex.question_id for ex in examples]
        # five empty lists for the refused question; I and each II for the others, whose I is wrong
        assert audit[refused.question_id] == 0 and all(audit[ex.question_id] == 1 + ex.n for ex in examples[1:])
        assert json.loads((out / "mine_report.json").read_text())["questions"] == len(examples)

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    @pytest.mark.parametrize(
        "make_truth",
        [_other_seed_truth, _truth_first_question_dropped, _long_question_id_not_in_truth],
        ids=["other-seed", "question-missing", "long-question-id"],
    )
    def test_a_truth_file_that_does_not_fit_stops_the_run_up_front(self, sim_workspace, make_truth, strict, capsys):
        """One ContractViolation naming the truth file, the first question it does not
        fit and how many, before any reader call, with or without --strict."""
        tmp, dataset, truth_path = sim_workspace
        truth = make_truth(tmp, truth_path)
        known = {qt.question: {ct.text for ct in qt.chains.values()} for qt in load_truth(truth).questions.values()}
        examples, _, _ = read_examples(dataset)
        misfits = [
            ex.question_id
            for ex in examples
            if not {c.text() for c in ex.retrieved + ex.generated} <= known.get(ex.question, set())
        ]
        assert misfits
        out = tmp / "out"
        capsys.readouterr()
        assert run("mine", "--dataset", dataset, "--out", out, "--predictor.truth", truth, *["--strict"] * strict) == 1
        err = capsys.readouterr().err
        summary = json.loads(err)
        assert summary == {
            "error": "ContractViolation",
            "message": f"truth file {truth} does not match {len(misfits)} of 8 dataset questions (first {clipped(misfits[0])})",
        }
        assert len(err.encode()) < 1000  # a question id read from outside is clipped
        assert not out.exists()


class TestAnalyze:
    def test_reports(self, sim_workspace, capsys):
        tmp, dataset, truth = sim_workspace
        assert run("score", "--dataset", dataset, "--out", tmp / "scored") == 0
        # the prediction handoffs of two methods: each question's gold answer, and its distractor
        records = [json.loads(line) for line in truth.read_text().splitlines()]
        predictions = {method: str(tmp / f"{method}.jsonl") for method in ("gold", "distractor")}
        for method, path in predictions.items():
            Path(path).write_text("".join(json.dumps({"question_id": r["question_id"], "answer": r[method]}) + "\n" for r in records))
        flags = ["--analyze.predictions", json.dumps(predictions), "--analyze.matrices", tmp / "scored" / "matrices.jsonl"]
        trees = []
        for name, stage_run in (("analyze", run), ("rerun", _run_in_new_interpreter)):
            assert stage_run("analyze", *flags, "--dataset", dataset, "--out", tmp / name) == 0
            trees.append(_tree(tmp / name))
        captured = capsys.readouterr().out
        assert "conflicting rate" in captured and "EM(gold)" in captured and "EM(distractor)" in captured
        assert {"conflict_stats.jsonl", "bin_report.csv", "pair_types.jsonl"} <= set(trees[0])
        assert trees[0] == trees[1]

    def test_annotations_give_the_label_confusion(self, sim_workspace, capsys):
        tmp, dataset, _ = sim_workspace
        annotations = tmp / "annotations.jsonl"
        agree = json.dumps({"predicted": "compatible", "annotated": "compatible"})
        differ = json.dumps({"predicted": "conflicting", "annotated": "non_evidential"})
        annotations.write_text(f"{agree}\n\n{differ}\n")
        trees = []
        for name, stage_run in (("analyze", run), ("rerun", _run_in_new_interpreter)):
            assert stage_run("analyze", "--dataset", dataset, "--out", tmp / name, "--analyze.annotations", annotations) == 0
            trees.append(_tree(tmp / name))
        assert "label confusion accuracy: 0.500\n" in capsys.readouterr().out
        rows = [json.loads(line) for line in trees[0]["confusion.jsonl"].splitlines()]
        assert len(rows) == 9
        counts = {(row["predicted"], row["annotated"]): row["count"] for row in rows}
        assert counts == {
            (p, a): int((p, a) in {("compatible", "compatible"), ("conflicting", "non_evidential")})
            for p in ("compatible", "conflicting", "non_evidential")
            for a in ("compatible", "conflicting", "non_evidential")
        }
        assert trees[0] == trees[1]

    def _analyze(self, sim_workspace, predictions, *extra):
        """Run analyze with one predictions file per method, each given as
        its lines; returns the exit code, the report and the files."""
        tmp, dataset, _ = sim_workspace
        files = {}
        for method, lines in predictions.items():
            files[method] = tmp / f"{method}.jsonl"
            files[method].write_text("".join(line + "\n" for line in lines))
        config = tmp / "config.json"
        config.write_text(json.dumps({"analyze": {"predictions": {m: str(f) for m, f in files.items()}}}))
        out = tmp / "analyze"
        code = run("analyze", "--config", config, "--dataset", dataset, "--out", out, *extra)
        report = json.loads((out / "analyze_report.json").read_text()) if code == 0 else None
        return code, report, files

    @staticmethod
    def _answers(skip=()):
        return [json.dumps({"question_id": f"q{k:05d}", "answer": f"gold{k:05d}"}) for k in range(8) if k not in skip]

    def test_question_missing_a_prediction_is_a_per_item_error(self, sim_workspace, capsys):
        predictions = {"full": self._answers(), "partial": self._answers(skip=(3,))}
        code, report, _ = self._analyze(sim_workspace, predictions)
        assert code == 0
        assert [(e["stage"], e["question_id"]) for e in report["errors"]] == [("analyze", "q00003")]
        assert "partial" in report["errors"][0]["error"] and "full" not in report["errors"][0]["error"]
        # the question drops out of every output, so the methods are compared on the other questions
        assert "questions: 7\n" in capsys.readouterr().out
        assert report["questions"] == 7
        assert self._analyze(sim_workspace, predictions, "--strict")[0] == 1


def test_scripts_run_and_the_demo_reruns_byte_identical(tmp_path):
    """Both scripts, each in its own interpreter, the two demo runs under two string-hash
    seeds; the hallucination sweep's exit code checks its trend."""
    demos = [(seed, "demo_pipeline.py", "--out", tmp_path / seed, "--questions", 8) for seed in ("1", "2")]
    for seed, script, *args in [*demos, ("1", "sweep_hallucination.py", "--questions", 20, "--n", 4, "--m", 4)]:
        argv = [sys.executable, Path(__file__).resolve().parents[1] / "scripts" / script, *map(str, args)]
        proc = subprocess.run(argv, env={**os.environ, "PYTHONHASHSEED": seed}, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert _tree(tmp_path / "1") == _tree(tmp_path / "2")


def test_sweep_script_stops_on_an_out_of_range_value():
    script = Path(__file__).resolve().parents[1] / "scripts" / "sweep_hallucination.py"
    argv = [sys.executable, str(script), "--questions", "2", "--sweep", "0.5", "1.5"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "--sweep: simulate.p_llm_hallucinated must be a number in [0, 1], got 1.5" in proc.stderr
    assert proc.stdout == ""


def _every_stage(tmp, lines, truth, *flags) -> dict[str, bytes]:
    """``_tree`` of tmp/out after every stage over ``lines``, with match and serialize by each strategy."""
    dataset, out = tmp / "dataset.jsonl", tmp / "out"
    dataset.write_text("".join(line + "\n" for line in lines))
    for stage in ("score", "mine", "analyze"):
        assert run(stage, "--dataset", dataset, "--out", out, "--predictor.truth", truth, *flags) == 0
    for strategy in Strategy:
        argv = ["--dataset", dataset, "--out", out / strategy.value, "--strategy", strategy.value, *flags]
        assert run("match", *argv, "--matching.matrices", out / "matrices.jsonl") == 0
        assert run("serialize", *argv) == 0
    return _tree(out)


def _by_question(tree) -> dict[tuple[str, str | None], list[bytes]]:
    """The lines of ``tree``'s JSON-lines files, by file and then question in file order: a record's
    question_id, else its question text (a label), else None (a row over all questions)."""
    grouped = {}
    for name, data in tree.items():
        for line in data.splitlines() if name.endswith(".jsonl") else ():
            record = json.loads(line)
            grouped.setdefault((name, record.get("question_id", record.get("question"))), []).append(line)
    return grouped


@pytest.fixture(scope="module")
def forty_questions(tmp_path_factory):
    """The dataset lines of a 40-question corpus (seed 3), its truth file, and ``_every_stage`` over it."""
    tmp = tmp_path_factory.mktemp("forty")
    assert run("simulate", "--out", tmp, "--seed", 3, "--simulate.num_questions", 40, "--simulate.single_pivot", "false") == 0
    lines = (tmp / "sim_corpus.jsonl").read_text().splitlines()
    return lines, tmp / "sim_truth.jsonl", _every_stage(tmp, lines, tmp / "sim_truth.jsonl")


@pytest.mark.parametrize("seed", [None, 0], ids=["reversed", "shuffled"])
def test_shuffled_dataset_reorders_the_records_and_keeps_every_report(forty_questions, seed, tmp_path):
    """At --workers 4 too: records follow the dataset's order, not the order the workers finish in."""
    lines, truth, full = forty_questions
    shuffled = lines[::-1] if seed is None else random.Random(seed).sample(lines, len(lines))
    tree = _every_stage(tmp_path, shuffled, truth, "--workers", 4)
    records = _by_question(tree)
    rank = {record[key]: k for k, record in enumerate(map(json.loads, shuffled)) for key in ("question_id", "question")}
    assert list(records) == sorted(records, key=lambda key: (key[0], rank.get(key[1], -1)))
    assert records == _by_question(full)
    reports = lambda files: {name: data for name, data in files.items() if not name.endswith(".jsonl")}
    assert reports(tree) == reports(full)


def test_dropped_questions_leave_every_other_questions_records(forty_questions, tmp_path):
    lines, truth, full = forty_questions
    kept = [line for k, line in enumerate(lines) if k % 3]  # the first and the last question go too
    keys = {record[key] for record in map(json.loads, kept) for key in ("question_id", "question")}
    subset = {key: group for key, group in _by_question(_every_stage(tmp_path, kept, truth)).items() if key[1] is not None}
    assert subset == {key: group for key, group in _by_question(full).items() if key[1] in keys}


class TestSimulate:
    def test_simulate_passes_and_writes(self, tmp_path, capsys):
        out = tmp_path / "sim"
        argv = ["simulate", "--out", out, "--seed", 11, "--simulate.num_questions", 12]
        assert run(*argv, "--simulate.n", 4, "--simulate.m", 3) == 0
        assert (out / "sim_corpus.jsonl").exists()
        assert (out / "sim_truth.jsonl").exists()
        assert json.loads((out / "simulate_report.json").read_text()) == {"questions": 12}
        # the self-checks and their knobs are gone
        assert run(*argv, "--simulate.check_questions", 6) == 1
        assert "check_questions" in capsys.readouterr().err


class TestGenerate:
    def test_generate_merges_chains(self, tmp_path, http_service, monkeypatch):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            json.dumps(
                {
                    "question_id": "q1",
                    "question": "who won",
                    "answers": ["Don Shula"],
                    "retrieved": [[{"id": "r0", "text": "Don Shula won"}]],
                    "generated": [],
                }
            )
            + "\n"
        )
        http_service.responses["/generate"] = {"passages": [["alpha"], ["beta"]]}
        monkeypatch.setenv("PAIRQA_GENERATOR_URL", http_service.url("/generate"))
        out = tmp_path / "gen"
        assert run("generate", "--dataset", dataset, "--out", out, "--generator.n", 2) == 0
        record = json.loads((out / "generated.jsonl").read_text())
        assert [c[0]["text"] for c in record["generated"]] == ["alpha", "beta"]
        assert [c[0]["id"] for c in record["generated"]] == ["q1-g0", "q1-g1"]

    def test_generated_chains_are_numbered_as_kept(self, tmp_path, http_service, monkeypatch):
        dataset = tmp_path / "data.jsonl"
        record = {"question_id": "q1", "question": "who won", "answers": ["Don Shula"], "retrieved": [{"text": "Don Shula won"}]}
        dataset.write_text(json.dumps(record) + "\n")
        # the first passage lacks its second document and is skipped
        passages = [["Document 1: only one"], ["Document 1: Shula coached\n\nDocument 2: the Dolphins won"]]
        http_service.responses["/generate"] = {"passages": passages}
        monkeypatch.setenv("PAIRQA_GENERATOR_URL", http_service.url("/generate"))
        out = tmp_path / "gen"
        argv = ["generate", "--dataset", dataset, "--out", out, "--generator.mode", "multi_hop_chain", "--generator.n", 2]
        assert run(*argv) == 0
        generated = json.loads((out / "generated.jsonl").read_text())["generated"]
        assert generated == [[{"id": "q1-g0.0", "text": "Shula coached"}, {"id": "q1-g0.1", "text": "the Dolphins won"}]]

    def test_only_generate_expects_an_empty_generated_pool(self, tmp_path, http_service, monkeypatch, caplog):
        dataset = tmp_path / "data.jsonl"
        record = {"question_id": "q1", "question": "who won", "answers": ["Don Shula"], "retrieved": [{"text": "Don Shula won"}]}
        dataset.write_text(json.dumps(record) + "\n")
        http_service.responses["/generate"] = {"passages": [["alpha"]]}
        monkeypatch.setenv("PAIRQA_GENERATOR_URL", http_service.url("/generate"))
        warning = "ingest line 1: q1: empty generated pool"
        with caplog.at_level("WARNING"):
            assert run("generate", "--dataset", dataset, "--out", tmp_path / "gen", "--generator.n", 1) == 0
            assert warning not in caplog.messages
            assert run("score", "--dataset", dataset, "--out", tmp_path / "score") == 0
            assert warning in caplog.messages


class TestErrorHandling:
    def test_fatal_error_is_machine_readable(self, tmp_path, capsys):
        code = run("score", "--dataset", tmp_path / "missing.jsonl", "--out", tmp_path / "o")
        assert code == 1
        err = capsys.readouterr().err.strip()
        summary = json.loads(err)
        assert summary["error"] == "ContractViolation"
        assert "missing.jsonl" in summary["message"]

    def test_malformed_line_tolerated_without_strict(self, sim_workspace):
        tmp, dataset, _ = sim_workspace
        with open(dataset, "a") as fh:
            fh.write("{broken json\n")
        out = tmp / "tolerant"
        assert run("score", "--dataset", dataset, "--out", out) == 0
        report = json.loads((out / "score_report.json").read_text())
        assert any(e["stage"] == "ingest" for e in report["errors"])

    def test_dataset_line_not_utf8_is_an_ingest_error(self, sim_workspace):
        tmp, dataset, _ = sim_workspace
        lines = dataset.read_bytes().splitlines(keepends=True)
        dataset.write_bytes(b"".join([lines[0], b'{"question_id": "q\xff"}\n', *lines[1:]]))
        out = tmp / "out"
        assert run("score", "--dataset", dataset, "--out", out) == 0
        report = json.loads((out / "score_report.json").read_text())
        assert report["scored"] == 8
        assert [(e["stage"], e["line"]) for e in report["errors"]] == [("ingest", 2)]
        assert "not UTF-8" in report["errors"][0]["error"]
        assert run("score", "--dataset", dataset, "--out", tmp / "strict", "--strict") == 1

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rec: {**rec, "hop_type": "h" * 100000}, "unknown hop_type 'hhh"),
            (
                lambda rec: {**rec, "retrieved": [{"id": "p" * 100000, "text": "Don Shula won"}] * 2},
                "duplicate passage id 'ppp",
            ),
        ],
        ids=["long-hop-type", "repeated-long-passage-id"],
    )
    def test_long_dataset_value_is_quoted_cut_short(self, tmp_path, edit, message):
        record = {"question_id": "q1", "question": "who won", "answers": ["Don Shula"], "retrieved": [{"text": "Don Shula won"}]}
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(json.dumps(edit({**record, "generated": [{"text": "Don Shula led"}]})) + "\n")
        assert run("score", "--dataset", dataset, "--out", tmp_path / "out") == 0
        text = (tmp_path / "out" / "score_report.json").read_text()
        [error] = json.loads(text)["errors"]
        assert (error["stage"], error["line"]) == ("ingest", 1)
        assert message in error["error"] and len(error["error"]) < 300
        assert len(text) < 1000

    def test_long_question_id_is_clipped_in_every_message(self, tmp_path):
        """Every stderr line of a stage process stays short; the report holds the id once, as the failed question's."""
        qid = "q" * 100000
        record = {"question_id": qid, "question": "who won", "answers": ["Don Shula"], "retrieved": []}
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(json.dumps({**record, "generated": [{"text": "Don Shula led"}]}) + "\n")
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(pairqa.__file__).resolve().parents[1])}
        argv = [sys.executable, "-m", "pairqa.cli", "score", "--dataset", dataset, "--out", out]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[:2000]
        lines = proc.stderr.splitlines()
        assert "empty retrieved pool" in lines[0] and "score: qqq" in lines[1]
        assert max(len(line.encode()) for line in lines) < 1000
        text = (out / "score_report.json").read_text()
        assert text.count(qid) == 1
        assert [e["question_id"] for e in json.loads(text)["errors"]] == [qid]

    def test_truncated_dump_is_a_per_item_error(self, sim_workspace):
        tmp, dataset, _ = sim_workspace
        out = tmp / "truncated"
        assert run("score", "--dataset", dataset, "--out", out) == 0
        lines = (out / "matrices.jsonl").read_text().splitlines()
        last = json.loads(lines[-1])
        # drop the last consistency row of the last question: it loads as (m-1) x n
        last["consistency"].pop()
        lines[-1] = json.dumps(last)
        (out / "matrices.jsonl").write_text("\n".join(lines) + "\n")
        assert run("match", "--dataset", dataset, "--out", out) == 0
        report = json.loads((out / "match_report.json").read_text())
        assert report["matched"] == 7
        assert [e["question_id"] for e in report["errors"]] == [last["question_id"]]
        assert "2x4" in report["errors"][0]["error"]
        assert run("match", "--dataset", dataset, "--out", out, "--strict") == 1

    @pytest.mark.parametrize("strategy", ["optimal", "greedy", "random", "same-answer"])
    def test_match_needs_the_dataset(self, sim_workspace, strategy, capsys):
        tmp, dataset, _ = sim_workspace
        out = tmp / "no-dataset"
        assert run("score", "--dataset", dataset, "--out", out) == 0
        capsys.readouterr()
        assert run("match", "--out", out, "--strategy", strategy) == 1
        summary = json.loads(capsys.readouterr().err)
        assert summary["error"] == "ContractViolation"
        assert "--dataset" in summary["message"]
        assert not (out / "matchings.jsonl").exists()

    def _matched(self, sim_workspace, name):
        tmp, dataset, _ = sim_workspace
        out = tmp / name
        assert run("score", "--dataset", dataset, "--out", out) == 0
        assert run("match", "--dataset", dataset, "--out", out) == 0
        return dataset, out, (out / "matchings.jsonl").read_text().splitlines()

    def test_question_without_matching_is_a_per_item_error(self, sim_workspace):
        dataset, out, lines = self._matched(sim_workspace, "unmatched")
        (out / "matchings.jsonl").write_text("\n".join(lines[1:]) + "\n")
        assert run("serialize", "--dataset", dataset, "--out", out) == 0
        report = json.loads((out / "serialize_report.json").read_text())
        assert report["serialized"] == 7
        assert [e["question_id"] for e in report["errors"]] == [json.loads(lines[0])["question_id"]]
        assert "no matching" in report["errors"][0]["error"]
        assert run("serialize", "--dataset", dataset, "--out", out, "--strict") == 1

    def test_matching_short_of_the_pools_is_a_per_item_error(self, sim_workspace):
        dataset, out, lines = self._matched(sim_workspace, "short")
        record = json.loads(lines[2])
        record["pairs"] = record["pairs"][:1]
        lines[2] = json.dumps(record)
        (out / "matchings.jsonl").write_text("\n".join(lines) + "\n")
        assert run("serialize", "--dataset", dataset, "--out", out) == 0
        report = json.loads((out / "serialize_report.json").read_text())
        assert report["serialized"] == 7
        assert [e["question_id"] for e in report["errors"]] == [record["question_id"]]
        assert "3x4" in report["errors"][0]["error"]
        assert run("serialize", "--dataset", dataset, "--out", out, "--strict") == 1

    @pytest.mark.parametrize(
        "flag", [("--budget", "0"), ("--budget", "-5"), ("--serialize.budget", "0")], ids=["zero", "negative", "dotted"]
    )
    def test_serialize_budget_below_one_rejected(self, sim_workspace, flag, capsys):
        dataset, out, _ = self._matched(sim_workspace, "budget")
        capsys.readouterr()
        assert run("serialize", "--dataset", dataset, "--out", out, *flag) == 1
        summary = json.loads(capsys.readouterr().err)
        message = f"serialize.budget must be an integer >= 1 or null, got {flag[1]}"
        assert summary == {"error": "ContractViolation", "message": message}
        assert not (out / "reader_inputs.jsonl").exists()

    def test_dotted_budget_string_reads_as_the_integer(self, sim_workspace):
        # serialize.budget defaults to null, so --serialize.budget arrives as a string
        dataset, out, _ = self._matched(sim_workspace, "dotted")
        assert run("serialize", "--dataset", dataset, "--out", out, "--serialize.budget", "12") == 0
        dotted = (out / "reader_inputs.jsonl").read_bytes()
        assert run("serialize", "--dataset", dataset, "--out", out, "--budget", "12") == 0
        assert (out / "reader_inputs.jsonl").read_bytes() == dotted
        assert run("serialize", "--dataset", dataset, "--out", out) == 0
        assert (out / "reader_inputs.jsonl").read_bytes() != dotted

    def test_garbled_handoff_line_is_fatal(self, sim_workspace, capsys):
        dataset, out, lines = self._matched(sim_workspace, "garbled")
        lines[1] = lines[1][:-5]
        (out / "matchings.jsonl").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("serialize", "--dataset", dataset, "--out", out) == 1
        summary = json.loads(capsys.readouterr().err)
        assert summary["error"] == "ContractViolation"
        assert "matchings.jsonl line 2" in summary["message"]
        assert not (out / "reader_inputs.jsonl").exists()

    @pytest.mark.parametrize(
        "case",
        [
            _match_not_in_dataset,
            _match_no_matrix,
            _match_shape_differs,
            _serialize_not_in_dataset,
            _score_scorer_failure,
            _score_empty_pool,
            _analyze_empty("generated"),
            _analyze_empty("retrieved"),
            _analyze_no_matrix,
            _analyze_shape_differs,
            _analyze_not_in_dataset,
            _analyze_prediction_not_in_dataset,
            _mine_one_retrieved,
        ],
        ids=[
            "match-not-in-dataset",
            "match-no-matrix",
            "match-shape-differs",
            "serialize-not-in-dataset",
            "score-scorer-failure",
            "score-empty-pool",
            "analyze-empty-pool",
            "analyze-empty-retrieved-pool",
            "analyze-no-matrix",
            "analyze-shape-differs",
            "analyze-not-in-dataset",
            "analyze-prediction-not-in-dataset",
            "mine-n-1",
        ],
    )
    @pytest.mark.usefixtures("scorer_service")
    def test_per_item_failure_is_reported_and_strict_exits_1(self, sim_workspace, case):
        tmp = sim_workspace[0]
        argv, qid, message = case(*sim_workspace)
        stage = argv[0]
        assert run(*argv) == 0
        report = json.loads((tmp / "out" / f"{stage}_report.json").read_text())
        assert [(e["stage"], e["question_id"]) for e in report["errors"]] == [(stage, qid)]
        assert message in report["errors"][0]["error"]
        if stage == "score":
            matrices = (tmp / "out" / "matrices.jsonl").read_text().splitlines()
            assert qid not in {json.loads(line)["question_id"] for line in matrices}
        assert run(*argv, "--strict") == 1

    @pytest.mark.parametrize(
        "case",
        [
            _truth_without_chains,
            _truth_repeated_question,
            _matchings_repeated_question,
            _bad_stored_dump(_per_cell, where="stored.jsonl line 1: bad matrix record: expected string question_id"),
            _bad_stored_dump(
                _ragged, where="stored.jsonl line 1: bad matrix record: consistency row of 0 values for 4 columns, 1 open"
            ),
            _bad_stored_dump(
                _first_column_open_then({"consistency": [[1.0, 1.0], [1.0], [1.0]]}),
                where="stored.jsonl line 1: bad matrix record: consistency row of 2 values for 4 columns, 1 open",
            ),
            _bad_stored_dump(
                _first_column_open_then({"consistency": [[None], [1.0], [1.0]]}),
                where="stored.jsonl line 1: bad matrix record: consistency None is not a number",
            ),
            _bad_stored_dump(
                _first_column_open_then({"mode": "product", "consistency": [[1.0, 1.0, 1.0, None]] + [[1.0] * 4] * 2}),
                where="stored.jsonl line 1: bad matrix record: consistency None is not a number",
            ),
            _bad_stored_dump(
                _without("question_id"), where="stored.jsonl line 1: bad matrix record: missing field 'question_id'"
            ),
            _bad_matchings(_without("pairs"), "missing field 'pairs'"),
            _bad_truth_record(_without("question"), "missing field 'question'"),
            _bad_predictions(json.dumps({"question_id": "q-extra"}), "bad prediction record: missing field 'answer'"),
            _bad_annotation({"predicted": "compatible"}, ": bad annotation record: missing field 'annotated'"),
            _bad_stored_dump(lambda rec: {**rec, "mode": "bogus"}, where="stored.jsonl line 1: bad matrix record: 'bogus'"),
            _bad_stored_dump(
                lambda rec: {**rec, "question_id": "q00001"}, where="stored.jsonl line 2: bad matrix record: repeated"
            ),
            _bad_probability("evidentiality", float("nan")),
            _bad_probability("consistency", 7.5),
            _bad_probability("evidentiality", -0.1),
            _bad_stored_dump(_huge_evidentiality, where="stored.jsonl line 1: bad matrix record: int too large to convert"),
            _bad_stored_dump(
                _consistency_text, where="stored.jsonl line 1: bad matrix record: consistency '0.0' is not a number"
            ),
            _bad_stored_dump(
                lambda rec: {**rec, "evidentiality": "x" * 100000}, where="stored.jsonl line 1: bad matrix record: 'xxx"
            ),
            _bad_stored_dump(
                lambda rec: {**rec, "mode": "m" * 100000}, where="stored.jsonl line 1: bad matrix record: 'mmm"
            ),
            _bad_stored_dump(
                lambda rec: {**rec, "k" * 100000: 1},
                where="stored.jsonl line 1: bad matrix record: expected string question_id and fields"
                " ['consistency', 'evidentiality', 'mode', 'question_id'], got ['consistency', 'evidentiality', 'kkk",
            ),
            _bad_matchings(lambda rec: {**rec, "pairs": [[2.7, 2, 1.0]]}, "2.7 is not an integer"),
            _bad_matchings(lambda rec: {**rec, "strategy": "psychic"}, "'psychic' is not a valid Strategy"),
            _bad_matchings(lambda rec: {**rec, "strategy": "s" * 100000}, "'sss"),
            _bad_truth("chains.supports", "false", "'false' is not true or false"),
            _bad_truth("chains.text", 5, "5 is not a string"),
            _bad_truth("gold", 5, "5 is not a string"),
            _bad_truth("chains.source", "fiction", "'fiction' is not a valid Source"),
            _bad_truth("chains.source", "s" * 100000, "'sss"),
            _dump_line_not_utf8,
            _bad_annotation({"predicted": "bogus", "annotated": "compatible"}),
            _bad_annotation({"predicted": "compatible"}),
            _bad_annotation({"predicted": "p" * 100000, "annotated": "compatible"}, ": bad annotation record: 'ppp"),
            _empty_annotations,
            _unparsable_override,
            _cache_not_a_database,
            _bad_predictions(None, "bad prediction record: repeated question_id 'q00000'"),
            _bad_predictions(json.dumps({"question_id": 7, "answer": "gold00007"}), "bad prediction record: 7 is not a string"),
            _bad_predictions("{broken json", "invalid JSON"),
            _bad_predictions(None, "bad prediction record: repeated question_id 'qqq", question_id="q" * 100000),
            _matchings_question_id_a_number,
            _truth_repeated_text,
        ],
        ids=[
            "truth-without-chains",
            "truth-repeated-question",
            "matchings-repeated-question",
            "store-per-cell-record",
            "store-ragged-row",
            "store-cutoff-row-of-neither-length",
            "store-null-in-an-open-column",
            "store-null-in-a-product-dump",
            "store-missing-field",
            "matchings-missing-field",
            "truth-missing-field",
            "prediction-missing-field",
            "annotation-missing-field",
            "store-unknown-mode",
            "store-repeated-question",
            "store-nan-probability",
            "store-probability-above-1",
            "store-probability-below-0",
            "store-probability-a-huge-integer",
            "store-probability-a-string",
            "store-evidentiality-a-long-string",
            "store-long-mode",
            "store-long-extra-key",
            "matchings-index-not-an-integer",
            "matchings-unknown-strategy",
            "matchings-long-strategy",
            "truth-supports-a-string",
            "truth-text-a-number",
            "truth-gold-a-number",
            "truth-unknown-source",
            "truth-long-source",
            "dump-line-not-utf8",
            "annotation-bogus-type",
            "annotation-missing-key",
            "annotation-long-predicted",
            "annotations-empty",
            "override-not-an-int",
            "cache-not-a-database",
            "predictions-repeated-question",
            "prediction-question-id-a-number",
            "prediction-line-not-json",
            "predictions-repeated-long-question",
            "matchings-question-id-a-number",
            "truth-repeated-text",
        ],
    )
    def test_malformed_handoff_record_stops_with_summary(self, sim_workspace, case, capsys):
        argv, where = case(*sim_workspace)
        capsys.readouterr()
        assert run(*argv) == 1
        summary = json.loads(capsys.readouterr().err)
        assert set(summary) == {"error", "message"}
        assert summary["error"] == "ContractViolation"
        assert where in summary["message"]
        assert len(summary["message"]) < 500  # a value read from outside is quoted cut short

    @pytest.mark.parametrize(
        "case",
        [
            _argv_of(_score_scorer_failure),
            _argv_of(_score_empty_pool),
            _argv_of(_match_not_in_dataset),
            _argv_of(_match_no_matrix),
            _argv_of(_serialize_not_in_dataset),
            _argv_of(_mine_one_retrieved),
            _argv_of(_analyze_empty("generated")),
            _argv_of(_analyze_no_matrix),
            _analyze_missing_prediction,
            _analyze_bad_annotation,
            _analyze_ragged_matrix,
            _argv_of(_cache_not_a_database),
        ],
        ids=[
            "score-scorer-failure",
            "score-empty-pool",
            "match-not-in-dataset",
            "match-no-matrix",
            "serialize-not-in-dataset",
            "mine-n-1",
            "analyze-empty-pool",
            "analyze-no-matrix",
            "analyze-missing-prediction",
            "analyze-bad-annotation",
            "analyze-ragged-matrix",
            "cache-not-a-database",
        ],
    )
    @pytest.mark.usefixtures("scorer_service")
    def test_failure_writes_no_file(self, sim_workspace, case):
        """A failed run under --strict leaves a fresh --out empty; the handoff
        file is taken from where the case wrote it."""
        tmp = sim_workspace[0]
        argv = case(*sim_workspace)
        at = argv.index("--out")
        written, fresh = Path(argv[at + 1]), tmp / "fresh"
        argv[at + 1] = fresh
        flag, name = _HANDOFF_FLAGS.get(argv[0], (None, None))
        if flag and flag not in argv and (written / name).exists():
            argv += [flag, written / name]
        assert run(*argv, "--strict") == 1
        assert not fresh.exists() or not any(fresh.iterdir())

    @pytest.mark.parametrize(
        "stage, flag",
        [
            ("match", None),
            ("serialize", None),
            ("match", "--matching.matrices"),
            ("serialize", "--serialize.matchings"),
            ("analyze", "--analyze.matrices"),
        ],
        ids=["match-default", "serialize-default", "match-configured", "serialize-configured", "analyze-configured"],
    )
    def test_missing_handoff_file_is_fatal(self, sim_workspace, stage, flag, capsys):
        tmp, dataset, _ = sim_workspace
        out = tmp / "out"
        argv = [stage, "--dataset", dataset, "--out", out]
        if flag is None:
            missing = out / _HANDOFF_FLAGS[stage][1]
        else:
            missing = tmp / "missing.jsonl"
            argv += [flag, missing]
        capsys.readouterr()
        assert run(*argv) == 1
        summary = json.loads(capsys.readouterr().err)
        assert summary["error"] == "ContractViolation"
        assert str(missing) in summary["message"]
        assert not out.exists() or not any(out.iterdir())

    def test_long_reply_is_quoted_cut_short(self, sim_workspace, http_service):
        tmp, dataset, _ = sim_workspace
        http_service.responses["/score"] = {"probability": "x" * 100000}
        assert run("score", "--dataset", dataset, "--out", tmp / "out", "--scorer.backend", "remote", "--scorer.url", http_service.url("/score")) == 0
        errors = json.loads((tmp / "out" / "score_report.json").read_text())["errors"]
        assert len(errors) == 8 and all("not a number: 'xxx" in e["error"] and len(e["error"]) < 300 for e in errors)

    def test_strict_mode_aborts(self, sim_workspace):
        tmp, dataset, _ = sim_workspace
        with open(dataset, "a") as fh:
            fh.write("{broken json\n")
        assert run("score", "--dataset", dataset, "--out", tmp / "strict", "--strict") == 1

    def test_unknown_dotted_override_rejected(self, sim_workspace, capsys):
        tmp, dataset, _ = sim_workspace
        code = run("score", "--dataset", dataset, "--out", tmp / "o", "--scorer.nonsense", "x")
        assert code == 1
        assert "nonsense" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case",
        [
            _unknown_strategy,
            _unknown_hop_type,
            _unknown_generation_mode,
            _bad_config("score", {"workers": "two"}, "'two'"),
            _bad_config("simulate", {"simulate": {"num_questions": "many"}}, "'many'"),
            _bad_config("simulate", {"simulate": {"n": "ten"}}, "'ten'"),
            _bad_config("simulate", {"simulate": {"m": [10]}}, "simulate.m must be an integer >= 1, got [10]"),
            _bad_config("simulate", {"simulate": {"p_retrieved_evidential": "half"}}, "'half'"),
            _bad_config("simulate", {"simulate": {"p_llm_hallucinated": None}}, "simulate.p_llm_hallucinated must be a number in [0, 1], got None"),
            _bad_config("generate", {"generator": {"n": "five"}}, "'five'"),
            _bad_config("generate", {"generator": {"n": 0}}, "generator.n must be an integer >= 1, got 0"),
            _bad_config("score", {"strict": "false"}, "strict must be true or false, got 'false'"),
            _bad_config("simulate", {"simulate": {"single_pivot": "false"}}, "simulate.single_pivot must be"),
            _bad_config("simulate", {"simulate": {"n": 3.9}}, "simulate.n must be an integer >= 1, got 3.9"),
            _bad_config("score", {"workers": True}, "workers must be an integer >= 1 or null, got True"),
            _bad_config("score", {"workers": {"a": 1}}, "workers must be an integer >= 1 or null, got {'a': 1}"),
            _bad_config("serialize", {"serialize": {"budget": 0}}, "serialize.budget must be an integer >= 1 or null, got 0"),
            _bad_config("simulate", {"matchng": {"strategy": "greedy"}}, "unknown config section 'matchng'"),
            _bad_config("score", {"scorer": "remote"}, "config section 'scorer' must be an object"),
            _bad_config("analyze", {"analyze": {"predictions": ["x"]}}, "analyze.predictions must be an object"),
            _bad_config("score", {"cache_dir": 5}, "cache_dir must be a directory path or null, got 5"),
            _bad_config("simulate", {"dataset": 5}, "dataset must be an existing file or null, got 5"),
            _out_null,
            _bad_config("score", {"scorer": {"backend": "remote", "url": 5}}, "scorer.url must be a URL or null, got 5"),
            _bad_config("mine", {"predictor": {"truth": 5}}, "predictor.truth must be a path or null, got 5"),
            _bad_config("analyze", {"analyze": {"annotations": 7}}, "analyze.annotations must be a path or null, got 7"),
            _bad_config("match", {"matching": {"matrices": ["a"]}}, "matching.matrices must be a path or null, got ['a']"),
            _bad_config("serialize", {"serialize": {"matchings": 5}}, "serialize.matchings must be a path or null, got 5"),
            _bad_config("score", {"scorer": {"backend": "file"}}, "scorer.backend must be one of lexical, remote, got 'file'"),
            _bad_config("score", {"scorer": {"store": "matrices.jsonl"}}, "unknown config field scorer.store"),
            _config_file(b'{"seed": "\xff"}', "is not UTF-8"),
            _config_file(b'{"seed": 1', "is not JSON"),
            _config_file(b"[1]", "must hold one JSON object"),
            _bad_config("simulate", {"simulate": {"p_llm_hallucinated": 10**400 - 1}}, "simulate.p_llm_hallucinated must be a number in [0, 1], got 999"),
            _bad_flag("match", "--strategy", "psychic"),
            _bad_flag("score", "--scoring-mode", "sum"),
            _bad_flag("serialize", "--variant", "jumbled"),
            _bad_flag("serialize", "--budget", "many"),
            _bad_flag("score", "--workers", "two"),
            _bad_flag("score", "--seed", "1.5"),
            _bad_flag("score", "--simulate.n", "0", "simulate.n must be an integer >= 1, got 0"),
            _bad_flag("score", "--simulate.p_llm_hallucinated", "1.5", "simulate.p_llm_hallucinated must be a number in [0, 1], got 1.5"),
            _bad_flag("score", "--simulate.p_retrieved_evidential", "-0.1", "p_retrieved_evidential must be a number in [0, 1], got -0.1"),
            _bad_flag("score", "--simulate.p_retrieved_evidential", "nan", "p_retrieved_evidential must be a number in [0, 1], got nan"),
            _bad_config("score", {"simulate": {"m": 0}}, "simulate.m must be an integer >= 1, got 0"),
            _bad_config("score", {"simulate.num_questions": 0}, "simulate.num_questions must be an integer >= 1, got 0"),
            _long_unknown_flag("scorer." + "z" * 100000, "unknown config field scorer.zzz"),
            _long_unknown_flag("z" * 100000 + ".x", "unknown config section 'zzz"),
            _flag_without_value("seed"),
            _flag_without_value("z" * 100000),
            _bad_flag("score", "stray", "1", "unexpected argument 'stray'"),
            _bad_flag("score", "--scorer.backend", "remote", "scorer backend 'remote' needs a url (config or PAIRQA_SCORER_URL)"),
            _bad_flag("mine", "--predictor.truth", "null", "predictor backend 'sim' needs predictor.truth"),
            _bad_flag("score", "--conf", "config.json", "unknown config field conf"),
            _bad_flag("score", "--str", "true", "unknown config field str"),
            _bad_words("-v", "score", message="unexpected argument '-v'"),
            _bad_words("bogus", message=f"{_BAD_COMMAND}, got 'bogus'"),
            _bad_words(message=f"{_BAD_COMMAND}, got None"),
        ],
        ids=[
            "matching-strategy",
            "simulate-hop-type",
            "generator-mode",
            "config-workers",
            "simulate-num-questions",
            "simulate-n",
            "simulate-m",
            "simulate-p-retrieved-evidential",
            "simulate-p-llm-hallucinated",
            "generator-n",
            "generator-n-zero",
            "config-strict-not-a-boolean",
            "simulate-single-pivot-not-a-boolean",
            "config-float-integer",
            "config-boolean-integer",
            "config-workers-an-object",
            "serialize-budget-zero",
            "config-unknown-section",
            "config-section-not-an-object",
            "config-predictions-not-an-object",
            "config-cache-dir-not-a-path",
            "config-dataset-not-a-path",
            "config-out-null",
            "config-scorer-url-not-a-string",
            "config-predictor-truth-not-a-string",
            "config-analyze-annotations-not-a-string",
            "config-matching-matrices-not-a-string",
            "config-serialize-matchings-not-a-string",
            "config-scorer-backend-file",
            "config-scorer-store",
            "config-not-utf8",
            "config-not-json",
            "config-not-an-object",
            "config-number-too-large-for-a-float",
            "flag-strategy",
            "flag-scoring-mode",
            "flag-variant",
            "flag-budget",
            "flag-workers",
            "flag-seed",
            "score-simulate-n-zero",
            "score-simulate-p-above-one",
            "score-simulate-p-below-zero",
            "score-simulate-p-nan",
            "score-config-simulate-m-zero",
            "score-config-dotted-simulate-num-questions-zero",
            "flag-long-unknown-field",
            "flag-long-unknown-section",
            "flag-without-value",
            "flag-long-without-value",
            "stray-positional-argument",
            "remote-scorer-without-url",
            "sim-mine-without-truth",
            "config-flag-abbreviated",
            "strict-flag-abbreviated",
            "short-verbose-flag",
            "unknown-command",
            "no-command",
        ],
    )
    def test_bad_enum_value_rejected(self, sim_workspace, case, capsys):
        argv, value = case(*sim_workspace)
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        summary = json.loads(err)
        assert set(summary) == {"error", "message"}
        assert summary["error"] == "ContractViolation"
        assert value in summary["message"]
        assert len(err.encode()) < 1000  # a name read from outside is clipped

    @pytest.mark.parametrize(
        "stage_argv, corruption, message",
        [
            (_score_argv, "[]", "not a JSON object"),
            (_score_argv, '{"probab', "Unterminated string"),
            (_score_argv, "{}", "no number 'probability'"),
            (_mine_argv, '{"answer": null}', "no string 'answer'"),
            (_score_argv, _DEEP, "maximum recursion depth"),
        ],
        ids=["score-not-an-object", "score-truncated", "score-no-probability", "mine-no-answer", "score-nested-too-deep"],
    )
    def test_corrupt_cache_entry_is_a_per_item_error(self, sim_workspace, stage_argv, corruption, message):
        tmp, dataset, truth = sim_workspace
        argv = [*stage_argv(dataset, truth), "--out", tmp / "out", "--cache_dir", tmp / "cache"]
        assert run(*argv) == 0
        with cache_db(tmp / "cache") as db:
            (key,) = db.execute("SELECT min(key) FROM responses").fetchone()
            db.execute("UPDATE responses SET response = ? WHERE key = ?", (corruption, key))
        entry = f"{tmp / 'cache' / 'responses.sqlite3'} key {key}"
        assert run(*argv) == 0
        report = json.loads((tmp / "out" / f"{argv[0]}_report.json").read_text())
        assert len(report["errors"]) == 1
        assert f"corrupt cache entry {entry}" in report["errors"][0]["error"]
        assert message in report["errors"][0]["error"]
        assert run(*argv, "--strict") == 1

    @pytest.mark.parametrize(
        "case",
        [_deep_dataset_line, _deep_handoff_line, _deep_config_file, _deep_predictions_flag],
        ids=["dataset-line", "handoff-line", "config-file", "predictions-flag"],
    )
    def test_deeply_nested_json_is_a_bad_value(self, sim_workspace, case, capsys):
        """JSON nested too deep for ``json.loads`` is the decode site's usual error: an
        ingest error (exit 0), or one summary line naming the file or field (exit 1)."""
        argv, code, where = case(*sim_workspace)
        capsys.readouterr()
        assert run(*argv) == code
        if code:
            err = capsys.readouterr().err
            assert len(err.encode()) < 1000
            assert where in json.loads(err)["message"]
        else:
            errors = json.loads((sim_workspace[0] / "out" / "score_report.json").read_text())["errors"]
            assert len(errors) == 1 and errors[0]["stage"] == "ingest" and where in errors[0]["error"]

    @pytest.mark.parametrize(
        "case",
        [
            _lone_dataset_line,
            _lone_handoff_line,
            _lone_config_file,
            _lone_predictions_flag,
            _lone_predict_reply,
            _lone_cache_entry,
        ],
        ids=["dataset-line", "handoff-line", "config-file", "predictions-flag", "predict-reply", "cache-entry"],
    )
    def test_lone_surrogate_is_a_bad_value(self, sim_workspace, http_service, case, capsys, caplog):
        """A lone surrogate escape is the decode site's usual error, where the value enters: an
        ingest error, a per-item error or a logged failed reader call (exit 0, with every output
        and the report written), or one summary line naming the file or field (exit 1)."""
        argv, code, where, check = case(*sim_workspace, http_service)
        capsys.readouterr()
        with caplog.at_level("WARNING"):
            assert run(*argv) == code
        if code:
            err = capsys.readouterr().err
            assert where in json.loads(err)["message"]
        else:
            report = json.loads((sim_workspace[0] / "out" / f"{argv[0]}_report.json").read_text())
            texts = [e["error"] for e in report["errors"]] or [caplog.text]  # a failed reader call is logged
            assert check(report) and all(where in text for text in texts)


class TestConfigMerging:
    def test_dotted_override_changes_mode(self, sim_workspace):
        tmp, dataset, _ = sim_workspace
        out_cut, out_prod = tmp / "cut", tmp / "prod"
        assert run("score", "--dataset", dataset, "--out", out_cut) == 0
        assert run("score", "--dataset", dataset, "--out", out_prod, "--scoring.mode", "product") == 0
        # product and cutoff agree on 0/1 lexical scores, so compare via flag echo
        cut = json.loads((out_cut / "score_report.json").read_text())
        prod = json.loads((out_prod / "score_report.json").read_text())
        assert cut["scored"] == prod["scored"] == 8

    def test_flag_beats_config_file(self, sim_workspace):
        tmp, dataset, _ = sim_workspace
        config = tmp / "config.json"
        config.write_text(json.dumps({"matching": {"strategy": "random"}, "seed": 1}))
        out = tmp / "flagwin"
        assert run("score", "--dataset", dataset, "--out", out, "--config", config) == 0
        assert (
            run("match", "--dataset", dataset, "--out", out, "--config", config, "--strategy", "greedy")
            == 0
        )
        matchings = [json.loads(l) for l in (out / "matchings.jsonl").read_text().splitlines()]
        assert all(m["strategy"] == "greedy" for m in matchings)

    def test_the_last_config_flag_names_the_one_file_read(self, tmp_path):
        first, last = tmp_path / "first.json", tmp_path / "last.json"
        first.write_text(json.dumps({"seed": 1, "simulate": {"n": 4}}))
        last.write_text(json.dumps({"seed": 2}))
        assert _loaded("--config", first, "--config", last) == _loaded("--seed", 2)
        assert _loaded(f"--config={last}", "--config", first) == _loaded("--seed", 1, "--simulate.n", 4)

    @pytest.mark.parametrize("flag", [["--config", ""], ["--config="]], ids=["two-words", "equals"])
    def test_an_empty_config_name_is_an_error_not_the_defaults(self, tmp_path, flag, capsys):
        assert run("simulate", "--out", tmp_path / "o", *flag) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ContractViolation", "message": "--config must name a file"}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag", [["--strict", "false"], ["--strict=false"], ["--strict", "Off"]], ids=["two-words", "equals", "any-case"]
    )
    def test_strict_flag_beats_config_file(self, sim_workspace, flag):
        tmp, dataset, _ = sim_workspace
        with open(dataset, "a") as fh:
            fh.write("{broken json\n")
        config = tmp / "config.json"
        config.write_text(json.dumps({"strict": True}))
        assert run("score", "--config", config, "--dataset", dataset, "--out", tmp / "o", *flag) == 0
        report = json.loads((tmp / "o" / "score_report.json").read_text())
        assert [e["stage"] for e in report["errors"]] == ["ingest"]

    @pytest.mark.parametrize("at", [0, 1, 5], ids=["before-command", "before-flag", "last"])
    def test_bare_strict_flag_means_true(self, sim_workspace, at, capsys):
        tmp, dataset, _ = sim_workspace
        with open(dataset, "a") as fh:
            fh.write("{broken json\n")
        argv = ["score", "--dataset", dataset, "--out", tmp / "o"]
        argv.insert(at, "--strict")
        capsys.readouterr()
        assert run(*argv) == 1
        summary = json.loads(capsys.readouterr().err)
        assert summary == {"error": "PipelineError", "message": "1 malformed dataset records"}

    def test_bare_boolean_flag_takes_no_other_word(self):
        assert _loaded("--simulate.single_pivot") == _loaded("--simulate.single_pivot", "true")
        flipped = _loaded("--simulate.single_pivot", "false", "--simulate.single_pivot", "--seed", 3)
        assert flipped == _loaded("--seed", 3) != _loaded("--simulate.single_pivot", "off", "--seed", 3)

    @pytest.mark.parametrize("argv", [["-h"], ["score", "--help"]], ids=["short", "long"])
    def test_help_prints_the_usage_text(self, argv, capsys):
        assert run(*argv) == 0
        out = capsys.readouterr().out
        assert out == pairqa.cli.__doc__
        assert set(FIELDS) <= set(out.split())  # it lists every field

    def test_help_without_docstrings_prints_the_usage_line(self):
        env = {**os.environ, "PYTHONPATH": str(Path(pairqa.__file__).resolve().parents[1])}
        argv = [sys.executable, "-OO", "-m", "pairqa.cli", "-h"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: pairqa COMMAND [--config FILE]")

    def test_workers_null_runs_at_the_default(self, sim_workspace):
        tmp, dataset, _ = sim_workspace
        config = tmp / "config.json"
        config.write_text(json.dumps({"workers": None}))
        for name, flags in (("default", []), ("config", ["--config", config]), ("flag", ["--workers", "null"])):
            assert run("score", "--dataset", dataset, "--out", tmp / name, *flags) == 0
        dumps = {(tmp / name / "matrices.jsonl").read_bytes() for name in ("default", "config", "flag")}
        assert len(dumps) == 1

    def test_workers_null_is_four_threads_for_remote_score_and_mine(self):
        def threads(*argv):
            cfg = _loaded(*argv)
            return {stage: worker_threads(cfg, stage) for stage in STAGES}

        one = dict.fromkeys(STAGES, 1)
        assert threads() == one
        assert threads("--scorer.backend", "remote") == {**one, "score": 4}
        assert threads("--predictor.backend", "remote") == {**one, "mine": 4}
        assert threads("--scorer.backend", "remote", "--workers", 2) == dict.fromkeys(STAGES, 2)

    @pytest.mark.parametrize("dotted", [*FIELDS, None], ids=[*FIELDS, "every-field"])
    def test_field_spelled_at_its_default_changes_nothing(self, tmp_path, dotted):
        document = {}
        for field in [dotted] if dotted else FIELDS:
            section, dot, name = field.partition(".")
            (document.setdefault(section, {}) if dot else document)[name or section] = FIELDS[field][0]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        assert _loaded("--config", config) == _loaded()

    def test_dotted_key_holding_an_object_is_one_field(self, tmp_path):
        """A top-level key that names a field sets it, an object value included, as its section does."""
        predictions = {"m": "p.jsonl"}
        dotted, nested = tmp_path / "dotted.json", tmp_path / "nested.json"
        dotted.write_text(json.dumps({"analyze.predictions": predictions}))
        nested.write_text(json.dumps({"analyze": {"predictions": predictions}}))
        cfg = _loaded("--config", dotted)
        assert cfg["analyze.predictions"] == predictions
        assert cfg == _loaded("--config", nested) != _loaded()

    @pytest.mark.parametrize("dotted", list(FIELDS))
    def test_field_value_of_another_json_type_rejected(self, tmp_path, dotted, capsys):
        default, kind = FIELDS[dotted]
        wrong = "false" if isinstance(default, bool) else False
        section, dot, name = dotted.partition(".")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({section: {name: wrong}} if dot else {dotted: wrong}))
        capsys.readouterr()
        assert run("simulate", "--config", config, "--out", tmp_path / "o") == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        message = f"{dotted} must be {kind.what}, got {wrong!r}"
        assert json.loads(lines[0]) == {"error": "ContractViolation", "message": message}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "short, dotted",
        [
            (["--strategy", "greedy"], ["--matching.strategy", "greedy"]),
            (["--scoring-mode=product"], ["--scoring.mode", "product"]),
            (["--variant", "linearized"], ["--serialize.variant=linearized"]),
            (["--budget", "12"], ["--serialize.budget", "12"]),
        ],
        ids=["strategy", "scoring-mode", "variant", "budget"],
    )
    def test_short_flags_alias_dotted_names(self, short, dotted):
        assert _loaded(*short) == _loaded(*dotted) != _loaded()
