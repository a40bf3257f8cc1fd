from __future__ import annotations

import json
import os
import re
import socket
import stat
import sys
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from pairqa import providers
from pairqa.corpus import text_contains_answer
from pairqa.errors import ContractViolation, ProtocolError, TransportError
from pairqa.lineio import write_jsonl
from pairqa.providers import (
    CachingBackend,
    GenerationMode,
    GenerationRequest,
    LexicalMockScorer,
    PredictRequest,
    RemoteGenerator,
    RemotePredictor,
    RemoteScorer,
    ResponseCache,
    ScoreKind,
    ScoreRequest,
    split_two_documents,
)
from pairqa.scoring import CombineMode, build_matrix

from conftest import cache_db, make_example


def evid_request(**overrides):
    fields = dict(
        kind=ScoreKind.EVIDENTIALITY,
        question="who won",
        retrieved_text="Don Shula won",
        question_id="q1",
    )
    fields.update(overrides)
    return ScoreRequest(**fields)


@pytest.fixture
def no_backoff(monkeypatch):
    """Retries wait no time between attempts."""
    monkeypatch.setattr(providers._ServiceClient, "backoff", 0.0)


class TestRequestContracts:
    def test_wire_bodies(self):
        req = evid_request()
        assert req.wire_body() == {
            "kind": "evidentiality",
            "question": "who won",
            "retrieved": "Don Shula won",
            "generated": None,
        }
        assert PredictRequest(question="q", passages=("a", "b")).wire_body() == {
            "question": "q",
            "passages": ["a", "b"],
        }
        assert GenerationRequest("q", 3, GenerationMode.MULTI_HOP_CHAIN).wire_body() == {
            "question": "q",
            "n": 3,
            "mode": "multi_hop_chain",
        }


@pytest.mark.usefixtures("no_backoff")
class TestRemoteScorer:
    def test_scores_and_records_wire_shape(self, http_service):
        http_service.responses["/score"] = {"probability": 0.73}
        scorer = RemoteScorer(http_service.url("/score"))
        assert scorer.score(evid_request()) == 0.73
        sent = http_service.requests["/score"][0]
        assert set(sent) == {"kind", "question", "retrieved", "generated"}

    def test_retries_then_succeeds(self, http_service):
        http_service.responses["/score"] = [(500, {}), (500, {}), (200, {"probability": 0.5})]
        scorer = RemoteScorer(http_service.url("/score"))
        scorer.max_retries = 3
        assert scorer.score(evid_request()) == 0.5
        assert len(http_service.requests["/score"]) == 3

    def test_client_error_is_not_retried(self, http_service):
        # the fixture answers 404 on a path with no response set
        scorer = RemoteScorer(http_service.url("/missing"))
        scorer.max_retries = 3
        with pytest.raises(TransportError, match="404; not retried"):
            scorer.score(evid_request())
        assert len(http_service.requests["/missing"]) == 1

    @pytest.mark.parametrize("status", [408, 429])
    def test_timeout_and_rate_limit_are_retried(self, http_service, status):
        http_service.responses["/score"] = [(status, {}), (200, {"probability": 0.5})]
        scorer = RemoteScorer(http_service.url("/score"))
        scorer.max_retries = 3
        assert scorer.score(evid_request()) == 0.5
        assert len(http_service.requests["/score"]) == 2

    def test_connection_refused_is_a_transport_error(self):
        scorer = RemoteScorer("http://127.0.0.1:9")
        scorer.max_retries = 0
        with pytest.raises(TransportError, match="failed after 1 attempts"):
            scorer.score(evid_request())

    def test_retry_budget_exhausted(self, http_service):
        http_service.responses["/score"] = [(500, {})] * 10
        scorer = RemoteScorer(http_service.url("/score"))
        scorer.max_retries = 2
        with pytest.raises(TransportError, match="failed after 3 attempts"):
            scorer.score(evid_request())
        assert len(http_service.requests["/score"]) == 3

    def test_out_of_range_probability_clamped(self, http_service, caplog):
        http_service.responses["/score"] = {"probability": 1.7}
        scorer = RemoteScorer(http_service.url("/score"))
        with caplog.at_level("WARNING"):
            assert scorer.score(evid_request()) == 1.0
        assert any("clamping" in r.message for r in caplog.records)

    @pytest.mark.parametrize("sign,clamped", [("", 1.0), ("-", 0.0)], ids=["huge", "huge-negative"])
    def test_integer_too_large_for_a_float_is_clamped(self, http_service, tmp_path, caplog, sign, clamped):
        # float() of it raises OverflowError: the reply and a cache entry holding it are clamped like 1e400
        huge = f'{{"probability": {sign}{"9" * 400}}}'
        http_service.responses["/score"] = huge.encode()
        url = http_service.url("/score")
        cache = ResponseCache(tmp_path / "cache")
        scorer = CachingBackend(RemoteScorer(url), cache, url)
        with caplog.at_level("WARNING"):
            assert scorer.score(evid_request()) == clamped
        body = {**evid_request().wire_body(), "question_id": "q1"}
        with cache_db(tmp_path / "cache") as db:
            db.execute("UPDATE responses SET response = ? WHERE key = ?", (huge, cache.key(url, body)))
        with caplog.at_level("WARNING"):
            assert scorer.score(evid_request()) == clamped
        assert len(http_service.requests["/score"]) == 1
        clamps = [r.message for r in caplog.records if "clamping" in r.message]
        assert len(clamps) == 2 and clamps[0].startswith(url) and clamps[1].startswith("scorer cache")
        assert all(len(clamp) < 200 for clamp in clamps)  # not all 400 digits

    def test_missing_probability_is_protocol_error(self, http_service):
        http_service.responses["/score"] = {"p": 0.5}
        scorer = RemoteScorer(http_service.url("/score"))
        with pytest.raises(ProtocolError):
            scorer.score(evid_request())

    def test_cache_replays_without_calls(self, http_service, tmp_path):
        http_service.responses["/score"] = {"probability": 0.25}
        url = http_service.url("/score")
        scorer = CachingBackend(RemoteScorer(url), ResponseCache(tmp_path / "cache"), url)
        first = scorer.score(evid_request())
        second = scorer.score(evid_request())
        assert first == second == 0.25
        assert len(http_service.requests["/score"]) == 1
        # a fresh client with the same cache never touches the service
        other = CachingBackend(RemoteScorer(url), ResponseCache(tmp_path / "cache"), url)
        assert other.score(evid_request()) == 0.25
        assert len(http_service.requests["/score"]) == 1

    def test_nan_probability_is_a_protocol_error_and_never_cached(self, http_service, tmp_path):
        # Python's json reads NaN, and NaN fails no range test
        http_service.responses["/score"] = b'{"probability": NaN}'
        url = http_service.url("/score")
        scorer = CachingBackend(RemoteScorer(url), ResponseCache(tmp_path / "cache"), url)
        with pytest.raises(ProtocolError, match="not a number: nan"):
            scorer.score(evid_request())
        with cache_db(tmp_path / "cache") as db:
            assert db.execute("SELECT count(*) FROM responses").fetchone() == (0,)

    def test_nan_cache_entry_is_corrupt_and_named(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        scorer = CachingBackend(LexicalMockScorer.from_examples([make_example()]), cache, "scorer:lexical")
        assert scorer.score(evid_request()) == 1.0  # cached
        body = {**evid_request().wire_body(), "question_id": "q1"}
        key = cache.key("scorer:lexical", body)
        with cache_db(tmp_path / "cache") as db:
            db.execute("UPDATE responses SET response = ? WHERE key = ?", ('{"probability":NaN}', key))
        entry = f"{tmp_path / 'cache' / 'responses.sqlite3'} key {key}"
        assert cache.path("scorer:lexical", body) == entry
        with pytest.raises(ContractViolation, match=re.escape(f"corrupt cache entry {entry}")):
            scorer.score(evid_request())

    def test_blob_cache_entry_is_corrupt_and_named(self, tmp_path):
        # sqlite returns a blob as bytes, which json.loads would decode with surrogatepass
        cache = ResponseCache(tmp_path / "cache")
        scorer = CachingBackend(LexicalMockScorer.from_examples([make_example()]), cache, "scorer:lexical")
        scorer.score(evid_request())
        key = cache.key("scorer:lexical", {**evid_request().wire_body(), "question_id": "q1"})
        with cache_db(tmp_path / "cache") as db:
            db.execute("UPDATE responses SET response = ? WHERE key = ?", (b'{"probability":0.5}', key))
        with pytest.raises(ContractViolation, match=f"corrupt cache entry .* key {key}: JSON text must be a str, not bytes"):
            scorer.score(evid_request())


def ten_by_ten_example():
    return make_example(
        retrieved_texts=tuple(f"retrieved {j}" for j in range(10)),
        generated_texts=tuple(f"generated {i}" for i in range(10)),
    )


def make_requests(example):
    """Every score request of ``example``: N evidentiality, then M*N consistency."""
    retrieved = [chain.text() for chain in example.retrieved]
    requests = [ScoreRequest(ScoreKind.EVIDENTIALITY, example.question, r, None, example.question_id) for r in retrieved]
    generated = [chain.text() for chain in example.generated]
    consistency = (ScoreKind.CONSISTENCY, example.question)
    return requests + [ScoreRequest(*consistency, r, g, example.question_id) for g in generated for r in retrieved]


def request_bodies(example, columns=None):
    """The bodies of ``build_matrix``'s requests, in request order: N evidentiality,
    then the consistency of ``columns`` (default all N) by generated passage."""
    retrieved = [chain.text() for chain in example.retrieved]
    columns = range(len(retrieved)) if columns is None else columns
    body = lambda kind, r, g: {"kind": kind, "question": example.question, "retrieved": r, "generated": g}
    evidentiality = [body("evidentiality", r, None) for r in retrieved]
    return evidentiality + [body("consistency", retrieved[j], g.text()) for g in example.generated for j in columns]


@pytest.mark.usefixtures("no_backoff")
class TestBuildMatrixRequests:
    """``build_matrix`` scores a question one ``score`` call per request, the
    evidentiality then the consistency of the columns the combine mode reads;
    no request follows a failed one."""

    @pytest.mark.parametrize("mode", list(CombineMode), ids=[m.value for m in CombineMode])
    def test_answers_come_in_request_order_when_replies_do_not(self, http_service, mode):
        def probability(body):
            return zlib.crc32(json.dumps(body, sort_keys=True).encode()) % 1000 / 1000

        def score(body):
            time.sleep(0.001 * (9 - int(body["retrieved"].split()[-1])))  # later passages answer sooner
            return {"probability": probability(body)}

        http_service.responses["/score"] = score
        example = ten_by_ten_example()
        matrix = build_matrix(example, RemoteScorer(http_service.url("/score")), mode)
        evidentiality = [probability(body) for body in request_bodies(example, columns=[])]
        columns = [j for j, e in enumerate(evidentiality) if mode is CombineMode.PRODUCT or e > 0.5]
        assert len(columns) == 10 if mode is CombineMode.PRODUCT else 0 < len(columns) < 10
        bodies = request_bodies(example, columns)
        scored = [*matrix.evidentiality, *(row[j] for row in matrix.consistency for j in columns)]
        assert scored == [probability(body) for body in bodies]
        assert {row[j] for row in matrix.consistency for j in range(10) if j not in columns} <= {None}
        sent = http_service.requests["/score"]
        assert len(sent) == 10 + 10 * len(columns)
        assert sorted(map(json.dumps, sent)) == sorted(map(json.dumps, bodies))

    def test_a_failed_evidentiality_request_sends_no_consistency_request(self, http_service):
        def score(body):
            return (500, {}) if body["retrieved"] == "retrieved 7" else {"probability": 0.75}

        http_service.responses["/score"] = score
        scorer = RemoteScorer(http_service.url("/score"))
        scorer.max_retries = 0
        with pytest.raises(TransportError):
            build_matrix(ten_by_ten_example(), scorer, CombineMode.CUTOFF)
        time.sleep(0.05)  # a consistency request sent late would be counted
        assert {body["kind"] for body in http_service.requests["/score"]} == {"evidentiality"}

    def test_a_question_whose_requests_all_fail_sends_one_with_its_retries(self, http_service):
        http_service.responses["/score"] = lambda body: (500, {})
        scorer = RemoteScorer(http_service.url("/score"))
        scorer.max_retries = 1
        with pytest.raises(TransportError, match="after 2 attempts"):
            build_matrix(ten_by_ten_example(), scorer, CombineMode.CUTOFF)
        time.sleep(0.05)  # a request sent late would be counted
        assert len(http_service.requests["/score"]) == 1 + scorer.max_retries

    @pytest.mark.parametrize("cached", [False, True])
    def test_every_call_before_the_failing_one_is_made_and_answered(self, http_service, tmp_path, cached):
        """A question whose last call fails: every call before it is made and
        answered; none is skipped, answered None or stored as null."""
        example = ten_by_ten_example()
        bodies = request_bodies(example)
        http_service.responses["/score"] = lambda body: (404, {}) if body == bodies[-1] else {"probability": 0.25}
        remote = RemoteScorer(http_service.url("/score"))
        remote.max_retries = 0
        scorer = CachingBackend(remote, ResponseCache(tmp_path / "cache"), "scorer") if cached else remote
        answers = []
        with pytest.raises(TransportError, match="status 404"):
            for request in make_requests(example):
                answers.append(scorer.score(request))
        assert len(http_service.requests["/score"]) == len(bodies)
        if cached:
            with cache_db(tmp_path / "cache") as db:
                assert sorted(db.execute("SELECT response FROM responses")) == [('{"probability":0.25}',)] * 109
        else:
            assert answers == [0.25] * 109

    def test_a_cache_put_that_fails_stops_the_questions_requests(self, http_service, tmp_path):
        """A cache put that raises ends the question at once: no request follows the
        first, although the error, and with it the calling frame, is still held."""
        http_service.responses["/score"] = {"probability": 0.25}
        cache = ResponseCache(tmp_path / "cache")
        scorer = CachingBackend(RemoteScorer(http_service.url("/score")), cache, "scorer")

        def put(service, body, response):
            raise ContractViolation("disk full")

        cache.put = put
        with pytest.raises(ContractViolation, match="disk full") as held:
            build_matrix(ten_by_ten_example(), scorer, CombineMode.CUTOFF)
        time.sleep(0.05)  # a request sent late would be counted
        assert len(http_service.requests["/score"]) == 1
        assert held.value is not None

    def test_threads_sharing_one_client_get_their_own_answers(self, http_service):
        """Eight threads start their first request at once on one client, as a
        stage's threads do: each question gets its own answers, in order."""
        http_service.responses["/score"] = lambda body: {"probability": len(body["retrieved"]) / 100}
        scorer = RemoteScorer(http_service.url("/score"))
        examples = [make_example(f"q{k}", retrieved_texts=("r" * (k + 1), "other"), generated_texts=("g",)) for k in range(8)]
        start = threading.Barrier(len(examples))
        results = {}

        def work(example):
            start.wait()
            results[example.question_id] = build_matrix(example, scorer, CombineMode.PRODUCT).evidentiality

        threads = [threading.Thread(target=work, args=(example,)) for example in examples]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {f"q{k}": ((k + 1) / 100, 0.05) for k in range(8)}

    def test_cache_keeps_every_answer_before_the_failing_request(self, http_service, tmp_path):
        example = ten_by_ten_example()
        bodies = request_bodies(example)
        failing = bodies.index({**bodies[0], "kind": "consistency", "retrieved": "retrieved 3", "generated": "generated 4"})
        # every column evidential, so the cutoff sends each consistency request
        answer = lambda body: {"probability": 0.75 if body["kind"] == "evidentiality" else 0.25}
        http_service.responses["/score"] = lambda body: (500, {}) if body == bodies[failing] else answer(body)
        cache = ResponseCache(tmp_path / "cache")
        remote = RemoteScorer(http_service.url("/score"))
        remote.max_retries = 0
        scorer = CachingBackend(remote, cache, "scorer")
        with pytest.raises(TransportError):
            build_matrix(example, scorer, CombineMode.CUTOFF)
        with cache_db(tmp_path / "cache") as db:
            stored = {key for (key,) in db.execute("SELECT key FROM responses")}
        assert stored == {cache.key("scorer", {**body, "question_id": "q1"}) for body in bodies[:failing]}
        # the rerun asks only what the cache lacks
        http_service.responses["/score"] = answer
        sent = len(http_service.requests["/score"])
        build_matrix(example, scorer, CombineMode.CUTOFF)
        assert len(http_service.requests["/score"]) - sent == len(bodies) - failing


@pytest.fixture
def loopback_only(monkeypatch):
    """Clear every proxy variable and refuse any name lookup but the
    loopback's, so that no request can leave the machine. Yields the
    monkeypatch and the list of host names looked up."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    lookups = []
    real = socket.getaddrinfo

    def lookup(host, *args, **kwargs):
        lookups.append(host)
        if host not in ("127.0.0.1", "localhost"):
            raise socket.gaierror(socket.EAI_NONAME, f"lookup of {host} refused in tests")
        return real(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", lookup)
    yield monkeypatch, lookups


@pytest.mark.usefixtures("no_backoff")
class TestTransport:
    """What every remote client sends and how it fails, whatever library
    sends the request."""

    @pytest.mark.parametrize("reply", [b"<html>busy</html>", [0.5]], ids=["not-json", "array"])
    def test_reply_that_is_not_a_json_object_is_a_protocol_error(self, http_service, reply):
        http_service.responses["/score"] = [(200, reply)]
        scorer = RemoteScorer(http_service.url("/score"))
        with pytest.raises(ProtocolError):
            scorer.score(evid_request())

    def test_token_is_sent_as_a_bearer_header(self, http_service):
        http_service.responses["/score"] = {"probability": 0.5}
        url = http_service.url("/score")
        RemoteScorer(url, token="s3cret").score(evid_request())
        RemoteScorer(url).score(evid_request())
        with_token, without = http_service.headers["/score"]
        assert with_token["authorization"] == "Bearer s3cret"
        assert "authorization" not in without
        assert with_token["content-type"] == without["content-type"] == "application/json"

    def test_stalled_reply_times_out_and_is_retried(self, http_service):
        def stall(body):
            time.sleep(1.0)
            return {"probability": 0.5}

        http_service.responses["/score"] = stall
        scorer = RemoteScorer(http_service.url("/score"))
        scorer.max_retries = 1
        scorer.timeout = 0.2
        start = time.monotonic()
        with pytest.raises(TransportError, match="failed after 2 attempts"):
            scorer.score(evid_request())
        assert time.monotonic() - start < 0.9
        assert len(http_service.requests["/score"]) == 2

    def test_non_ascii_question_arrives_intact(self, http_service):
        http_service.responses["/score"] = {"probability": 0.5}
        req = evid_request(question="Wer schrieb „Faust“? 誰が書いた", retrieved_text="Goethe — 1808")
        RemoteScorer(http_service.url("/score")).score(req)
        assert http_service.requests["/score"] == [req.wire_body()]
        # the body is json.dumps of the wire body: non-ASCII escaped, so ASCII on the wire
        (headers,) = http_service.headers["/score"]
        assert int(headers["content-length"]) == len(json.dumps(req.wire_body()))

    def test_redirect_is_neither_followed_nor_retried(self, http_service):
        http_service.responses["/score"] = [(307, {})]
        scorer = RemoteScorer(http_service.url("/score"))
        scorer.max_retries = 3
        with pytest.raises(TransportError, match="307; not retried"):
            scorer.score(evid_request())
        assert len(http_service.requests["/score"]) == 1

    @pytest.mark.parametrize("url, attempts", [("example/score", 1), ("localhost:9/score", 2)])
    def test_malformed_url_is_a_transport_error(self, url, attempts):
        # a URL without a scheme is never sent; an unknown scheme is a URLError, retried as such
        scorer = RemoteScorer(url)
        scorer.max_retries = 1
        with pytest.raises(TransportError, match="; not retried" if attempts == 1 else f" after {attempts} attempts"):
            scorer.score(evid_request())

    def test_http_proxy_is_honoured(self, http_service, loopback_only):
        monkeypatch, lookups = loopback_only
        monkeypatch.setenv("http_proxy", http_service.url(""))
        http_service.responses["http://example.invalid/score"] = {"probability": 0.25}
        scorer = RemoteScorer("http://example.invalid/score")
        scorer.max_retries = 0
        assert scorer.score(evid_request()) == 0.25
        assert list(http_service.requests) == ["http://example.invalid/score"]
        assert "example.invalid" not in lookups

    def test_no_proxy_goes_direct(self, http_service, loopback_only):
        monkeypatch, lookups = loopback_only
        monkeypatch.setenv("http_proxy", http_service.url(""))
        monkeypatch.setenv("no_proxy", "example.invalid")
        scorer = RemoteScorer("http://example.invalid/score")
        scorer.max_retries = 0
        with pytest.raises(TransportError, match="failed after 1 attempts"):
            scorer.score(evid_request())
        assert "example.invalid" in lookups
        assert http_service.requests == {}


@pytest.mark.parametrize(
    "client, default", [(RemoteScorer, 30.0), (RemotePredictor, 60.0), (RemoteGenerator, 120.0)]
)
def test_clients_keep_their_default_timeouts(client, default):
    assert client("http://127.0.0.1:9").timeout == default


def test_retries_wait_half_a_second_doubling(http_service, monkeypatch):
    http_service.responses["/score"] = [(500, {})] * 4
    sleeps = []
    monkeypatch.setattr(providers, "time", SimpleNamespace(sleep=sleeps.append))
    with pytest.raises(TransportError, match="failed after 4 attempts"):
        RemoteScorer(http_service.url("/score")).score(evid_request())
    assert sleeps == [0.5, 1.0, 2.0]
    assert len(http_service.requests["/score"]) == 4


class TestRemotePredictor:
    def test_fixture_echo(self, http_service):
        http_service.responses["/predict"] = {"answer": "Don Shula"}
        predictor = RemotePredictor(http_service.url("/predict"))
        assert predictor.predict(PredictRequest("who won", ("block",))) == "Don Shula"
        assert http_service.requests["/predict"][0] == {"question": "who won", "passages": ["block"]}

    def test_missing_answer_is_protocol_error(self, http_service):
        http_service.responses["/predict"] = {"text": "Don Shula"}
        predictor = RemotePredictor(http_service.url("/predict"))
        with pytest.raises(ProtocolError):
            predictor.predict(PredictRequest("who won", ("block",)))

    def test_reply_nested_too_deep_is_a_protocol_error_not_retried(self, http_service):
        # past about 1000 levels json.loads raises RecursionError, not ValueError
        http_service.responses["/predict"] = b"[" * 100000 + b"]" * 100000
        predictor = RemotePredictor(http_service.url("/predict"))
        with pytest.raises(ProtocolError, match="response is not JSON: maximum recursion depth"):
            predictor.predict(PredictRequest("who won", ("block",)))
        assert len(http_service.requests["/predict"]) == 1

    @pytest.mark.parametrize(
        "reply, problem",
        [(b'{"answer": "x\\ud800"}', "lone surrogate"), (b'{"answer": "x\xed\xa0\x80"}', "can't decode byte 0xed")],
        ids=["escaped", "raw-bytes"],
    )
    def test_reply_with_a_lone_surrogate_is_a_protocol_error_not_retried(self, http_service, reply, problem):
        # json.loads of bytes decodes them with surrogatepass: the reply is decoded as strict UTF-8 first
        http_service.responses["/predict"] = reply
        predictor = RemotePredictor(http_service.url("/predict"))
        with pytest.raises(ProtocolError, match=f"response is not JSON: .*{problem}"):
            predictor.predict(PredictRequest("who won", ("block",)))
        assert len(http_service.requests["/predict"]) == 1

    def test_caching_backend_wraps_any_predictor(self, tmp_path):
        class Flaky:
            def __init__(self):
                self.calls = 0

            def predict(self, req):
                self.calls += 1
                return "yes"

        inner = Flaky()
        cached = CachingBackend(inner, ResponseCache(tmp_path / "cache"), "flaky")
        req = PredictRequest("q", ("b",))
        assert cached.predict(req) == cached.predict(req) == "yes"
        assert inner.calls == 1


class TestLexicalMock:
    def test_matches_answer_containment(self):
        example = make_example()
        scorer = LexicalMockScorer.from_examples([example])
        assert scorer.score(evid_request(retrieved_text="head coach Don Shula won")) == 1.0
        assert scorer.score(evid_request(retrieved_text="something else entirely")) == 0.0
        consistency = ScoreRequest(
            kind=ScoreKind.CONSISTENCY,
            question="who wrote it",
            retrieved_text="head coach Don Shula won",
            generated_text="George Halas led the team",
            question_id="q1",
        )
        assert scorer.score(consistency) == 0.0

    def test_unknown_question_is_a_contract_violation(self):
        scorer = LexicalMockScorer({})
        with pytest.raises(ContractViolation):
            scorer.score(evid_request())

    @staticmethod
    def direct_verdicts(example):
        """(evidentiality, consistency) from one answer check per pair; a cell
        of a column the cutoff closes (evidentiality 0.0) is unscored, None."""

        def verdict(chain):
            return 1.0 if text_contains_answer(chain.text(), example.answers) else 0.0

        evidentiality = tuple(verdict(rp) for rp in example.retrieved)
        return evidentiality, tuple(tuple(verdict(lp) if e else None for e in evidentiality) for lp in example.generated)

    def test_each_passage_text_is_checked_once_per_question(self, monkeypatch):
        example = make_example(
            retrieved_texts=("head coach Don Shula won", "something else entirely", "Shula retired"),
            generated_texts=("Don Shula led the team", "George Halas led the team", "Don Shula again", "nobody"),
        )
        calls = []

        def counting(text, answers):
            calls.append(text)
            return text_contains_answer(text, answers)

        monkeypatch.setattr(providers, "text_contains_answer", counting)
        matrix = build_matrix(example, LexicalMockScorer.from_examples([example]), CombineMode.CUTOFF)
        assert len(calls) == example.n + example.m == 7
        assert (matrix.evidentiality, matrix.consistency) == self.direct_verdicts(example)

    def test_same_text_gets_each_questions_verdict(self):
        shared = ("Don Shula led the team", "George Halas led the team")
        examples = [
            make_example("q1", "who coached Miami", ("Don Shula",), generated_texts=shared),
            make_example("q2", "who coached Chicago", ("George Halas",), generated_texts=shared),
        ]
        scorer = LexicalMockScorer.from_examples(examples)
        for example in examples + examples[::-1]:
            matrix = build_matrix(example, scorer, CombineMode.CUTOFF)
            assert (matrix.evidentiality, matrix.consistency) == self.direct_verdicts(example)
        assert build_matrix(examples[1], scorer, CombineMode.PRODUCT).consistency == ((0.0, 0.0), (1.0, 1.0))

    def test_threads_sharing_one_scorer_get_the_direct_verdicts(self):
        examples = [
            make_example(
                f"q{k}",
                f"question {k}",
                (f"answer {k % 3}",),
                retrieved_texts=tuple(f"retrieved {j} answer {j % 3}" for j in range(6)),
                generated_texts=tuple(f"generated {i} answer {(i + k) % 3}" for i in range(5)),
            )
            for k in range(12)
        ]
        expected = {ex.question_id: self.direct_verdicts(ex) for ex in examples}
        scorer = LexicalMockScorer.from_examples(examples)
        mismatches = []

        def work():
            for example in examples:
                matrix = build_matrix(example, scorer, CombineMode.CUTOFF)
                if (matrix.evidentiality, matrix.consistency) != expected[example.question_id]:
                    mismatches.append(example.question_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


class TestGenerator:
    def test_multi_hop_response_parsed_into_two_segments(self, http_service):
        http_service.responses["/generate"] = {"passages": [["Document 1: A\n\nDocument 2: B"]]}
        client = RemoteGenerator(http_service.url("/generate"))
        assert client.generate(GenerationRequest("q", 1, GenerationMode.MULTI_HOP_CHAIN)) == [("A", "B")]

    def test_single_hop_identity_parse(self, http_service):
        http_service.responses["/generate"] = {"passages": [["X"]]}
        client = RemoteGenerator(http_service.url("/generate"))
        assert client.generate(GenerationRequest("q", 1)) == [("X",)]

    def test_malformed_multi_hop_item_skipped(self, http_service, caplog):
        http_service.responses["/generate"] = {
            "passages": [["Document 1: only the first"], ["Document 1: A\n\nDocument 2: B"]]
        }
        client = RemoteGenerator(http_service.url("/generate"))
        with caplog.at_level("WARNING"):
            passages = client.generate(GenerationRequest("q", 5, GenerationMode.MULTI_HOP_CHAIN))
        assert passages == [("A", "B")]
        assert any("skipping unparseable" in r.message for r in caplog.records)

    def test_blank_or_empty_items_skipped(self, http_service, caplog):
        # the reply parser is the one check of a generated passage: no chain is built of these
        http_service.responses["/generate"] = {"passages": ["   ", [], ["ok", " "], "fine"]}
        client = RemoteGenerator(http_service.url("/generate"))
        with caplog.at_level("WARNING"):
            assert client.generate(GenerationRequest("q", 4)) == [("fine",)]
        assert sum("skipping unparseable" in r.message for r in caplog.records) == 3

    def test_item_neither_a_string_nor_a_string_array_skipped(self, http_service, caplog):
        http_service.responses["/generate"] = {"passages": [5, ["ok", None], "fine"]}
        client = RemoteGenerator(http_service.url("/generate"))
        with caplog.at_level("WARNING"):
            assert client.generate(GenerationRequest("q", 3)) == [("fine",)]
        assert sum("neither a string nor a string array" in r.message for r in caplog.records) == 2

    @pytest.mark.parametrize("reply", [{}, {"passages": "one passage"}], ids=["missing", "a-string"])
    def test_reply_without_a_passages_array_is_a_protocol_error(self, http_service, reply):
        http_service.responses["/generate"] = reply
        client = RemoteGenerator(http_service.url("/generate"))
        with pytest.raises(ProtocolError, match="missing 'passages' array"):
            client.generate(GenerationRequest("q", 1))

    def test_returns_at_most_n(self, http_service):
        http_service.responses["/generate"] = {"passages": [["a"], ["b"], ["c"]]}
        client = RemoteGenerator(http_service.url("/generate"))
        assert client.generate(GenerationRequest("q", 2)) == [("a",), ("b",)]

    def test_split_two_documents_errors(self):
        with pytest.raises(ProtocolError):
            split_two_documents("Document 1: A only")
        with pytest.raises(ProtocolError):
            split_two_documents("Document 2: B Document 1: A")
        with pytest.raises(ProtocolError, match="empty document segment"):
            split_two_documents("Document 1:  \n\nDocument 2: B")
        assert split_two_documents("Document 1: A\n\nDocument 2: B") == ("A", "B")


class TestResponseCache:
    def test_key_is_stable_and_content_based(self, tmp_path):
        cache = ResponseCache(tmp_path)
        a = cache.key("scorer", {"x": 1, "y": 2})
        b = cache.key("scorer", {"y": 2, "x": 1})
        assert a == b
        assert cache.key("predictor", {"x": 1, "y": 2}) != a

    def test_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path)
        assert cache.get("scorer", {"q": 1}) is None
        cache.put("scorer", {"q": 1}, {"probability": 0.5})
        assert cache.get("scorer", {"q": 1}) == {"probability": 0.5}

    def test_two_caches_on_one_directory_see_each_others_puts(self, tmp_path):
        first, second = ResponseCache(tmp_path), ResponseCache(tmp_path)
        first.put("scorer", {"q": 1}, {"probability": 0.5})
        second.put("scorer", {"q": 2}, {"probability": 0.25})
        assert second.get("scorer", {"q": 1}) == {"probability": 0.5}
        assert first.get("scorer", {"q": 2}) == {"probability": 0.25}

    def test_close_leaves_one_file_that_keeps_the_entries(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.put("scorer", {"q": 1}, {"probability": 0.5})
        cache.close()
        assert [p.name for p in tmp_path.iterdir()] == ["responses.sqlite3"]
        assert ResponseCache(tmp_path).get("scorer", {"q": 1}) == {"probability": 0.5}

    def test_threads_sharing_one_cache_lose_no_put(self, tmp_path):
        cache = ResponseCache(tmp_path)

        def fill(worker):
            for k in range(100):
                cache.put("scorer", {"w": worker, "k": k}, {"probability": k / 100})
                assert cache.get("scorer", {"w": worker, "k": k}) == {"probability": k / 100}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                for future in [pool.submit(fill, w) for w in range(6)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        with cache_db(tmp_path) as db:
            assert db.execute("SELECT count(*) FROM responses").fetchone() == (600,)
        assert all(cache.get("scorer", {"w": w, "k": 99}) == {"probability": 0.99} for w in range(6))

    def test_a_failed_query_names_the_database(self, tmp_path):
        cache = ResponseCache(tmp_path)
        with cache_db(tmp_path) as db:
            db.execute("DROP TABLE responses")
        for call in (lambda: cache.get("scorer", {"q": 1}), lambda: cache.put("scorer", {"q": 1}, {"probability": 0.5})):
            with pytest.raises(ContractViolation, match=re.escape(f"response cache {tmp_path / 'responses.sqlite3'}: no such table")):
                call()

    def test_new_table_is_without_rowid(self, tmp_path):
        ResponseCache(tmp_path).close()
        with cache_db(tmp_path) as db:
            (sql,) = db.execute("SELECT sql FROM sqlite_master WHERE name = 'responses'").fetchone()
        assert sql.endswith("WITHOUT ROWID")

    def test_a_rowid_table_made_before_still_reads_back(self, tmp_path):
        body, response = {"q": 1}, {"probability": 0.5}
        with cache_db(tmp_path) as db:
            db.execute("CREATE TABLE responses (key TEXT PRIMARY KEY, response TEXT NOT NULL)")
            db.execute("INSERT INTO responses VALUES (?, ?)", (ResponseCache.key("scorer", body), json.dumps(response)))
        cache = ResponseCache(tmp_path)
        assert cache.get("scorer", body) == response
        cache.put("scorer", {"q": 2}, {"probability": 0.25})
        assert cache.get("scorer", {"q": 2}) == {"probability": 0.25}
        with cache_db(tmp_path) as db:
            (sql,) = db.execute("SELECT sql FROM sqlite_master WHERE name = 'responses'").fetchone()
        assert "WITHOUT ROWID" not in sql

    def test_entry_has_the_mode_of_other_outputs(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        cache.put("scorer", {"q": 1}, {"probability": 0.5})
        write_jsonl(tmp_path / "out.jsonl", [{"q": 1}])
        entry = tmp_path / "cache" / "responses.sqlite3"
        assert stat.S_IMODE(entry.stat().st_mode) == stat.S_IMODE((tmp_path / "out.jsonl").stat().st_mode)
