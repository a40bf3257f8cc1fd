"""Clients and offline substitutes for the three neural services.

Wire schemas (one JSON object per call):

* scorer:    ``{"kind", "question", "retrieved", "generated"}`` ->
  ``{"probability": number}``
* predictor: ``{"question", "passages": [str, ...]}`` -> ``{"answer": str}``
* generator: ``{"question", "n", "mode"}`` ->
  ``{"passages": [[str, ...], ...]}``

Remote calls go through the standard library's ``urllib.request``, one
connection per call with no keep-alive. ``HTTP_PROXY``, ``HTTPS_PROXY`` and
``NO_PROXY`` are honoured; HTTPS is verified against the system trust store
(``SSL_CERT_FILE`` names another bundle; ``REQUESTS_CA_BUNDLE`` is not read).
A call is retried with exponential backoff on a transport failure, a 5xx, a
408 or a 429; any other status, a redirect included, fails at once. The
HTTP modules are imported by the first call that is sent, so offline runs
and fully cached reruns never load them. Any backend, remote or offline,
can be wrapped in ``CachingBackend``, a response cache (one sqlite table
per cache directory, in ``responses.sqlite3``) keyed by the backend's
identity and a content hash of the request body (for a scorer, plus the
question id), so that re-running a mining or scoring pass replays identical
bytes. Replies and cache entries are decoded by ``lineio.loads``; a reply must
be UTF-8. A cache entry that is not a JSON object, a scorer entry without a
number ``probability`` or a predictor entry without a string ``answer``
raises ``ContractViolation`` naming the database file and the entry's key,
when its request is asked: the requests asked before it are answered, and
their misses sent and stored, by then.
One check per answer kind serves replies and cache entries alike: a
probability must be a number, and one outside [0, 1], a JSON integer too large
for a float included, is clamped with a warning (``scoring.CompatibilityMatrix``
then checks it); an answer must be a string. Replies and cache entries are
checked here, where they enter; the request classes are built by pairqa's own
stages only, so they check nothing.
Backends are duck-typed and answer one request per call, on the calling
thread: a scorer ``score(req) -> float``, a predictor ``predict(req) -> str``
and a generator ``generate(req)``. ``CachingBackend`` wraps a scorer and a
predictor alike: it looks the request up, and on a miss asks the inner
backend and stores its answer. A stage keeps as many requests in flight as
it runs ``--workers`` threads.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
import weakref
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .corpus import QAExample, text_contains_answer
from .errors import ContractViolation, ProtocolError, TransportError
from .lineio import dumps_canonical, loads, quoted

logger = logging.getLogger(__name__)

DOC1_MARKER = "Document 1:"
DOC2_MARKER = "Document 2:"


class GenerationMode(Enum):
    SINGLE_HOP_BACKGROUND = "single_hop_background"
    MULTI_HOP_CHAIN = "multi_hop_chain"


class ScoreKind(Enum):
    EVIDENTIALITY = "evidentiality"
    CONSISTENCY = "consistency"


@dataclass(slots=True)
class GenerationRequest:
    question: str
    num_passages: int
    mode: GenerationMode = GenerationMode.SINGLE_HOP_BACKGROUND

    def wire_body(self) -> dict:
        return {"question": self.question, "n": self.num_passages, "mode": self.mode.value}


@dataclass(slots=True)
class ScoreRequest:
    """One discriminator query. ``question_id`` is not part of the wire body;
    it keys the lexical scorer's answers, so ``CachingBackend`` adds it to
    the body a scorer entry's cache key is made of."""

    kind: ScoreKind
    question: str
    retrieved_text: str
    generated_text: str | None = None
    question_id: str | None = None

    def wire_body(self) -> dict:
        return {
            "kind": self.kind.value,
            "question": self.question,
            "retrieved": self.retrieved_text,
            "generated": self.generated_text,
        }


@dataclass(slots=True)
class PredictRequest:
    question: str
    passages: tuple[str, ...]

    def wire_body(self) -> dict:
        return {"question": self.question, "passages": list(self.passages)}


class ResponseCache:
    """Persistent response store: one sqlite table in ``<root>/responses.sqlite3``
    (``WITHOUT ROWID``: each key is stored once), one connection shared by every
    thread under a lock. Each put commits alone, in WAL mode with ``synchronous=NORMAL``:
    a crash may lose the last puts (they are not fsynced) but never tears an entry.
    Workers racing on a key write identical bytes; another process waits up to 5 s
    for the write lock."""

    def __init__(self, root: str | Path):
        import sqlite3  # here, not at module level: runs without a cache never load it

        Path(root).mkdir(parents=True, exist_ok=True)
        self.file = Path(root) / "responses.sqlite3"
        self._lock = threading.Lock()
        self._error = sqlite3.Error
        try:
            self._db = sqlite3.connect(self.file, isolation_level=None, check_same_thread=False)
            self.close = weakref.finalize(self, self._db.close)  # also at collection, or in cli.exit_main; folds in the WAL
            self._db.executescript(
                "PRAGMA journal_mode=WAL; PRAGMA synchronous=NORMAL; CREATE TABLE IF NOT EXISTS"
                " responses (key TEXT PRIMARY KEY, response TEXT NOT NULL) WITHOUT ROWID"
            )
        except sqlite3.Error as exc:
            raise ContractViolation(f"response cache {self.file}: {exc}") from None

    def _execute(self, sql: str, params: tuple) -> tuple | None:
        try:
            with self._lock:
                return self._db.execute(sql, params).fetchone()
        except self._error as exc:
            raise ContractViolation(f"response cache {self.file}: {exc}") from None

    @staticmethod
    def key(service: str, body: Mapping) -> str:
        payload = dumps_canonical({"service": service, "body": body})
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path(self, service: str, body: Mapping) -> str:
        """The entry's name in errors: the database file and the key."""
        return f"{self.file} key {self.key(service, body)}"

    def get(self, service: str, body: Mapping) -> dict | None:
        row = self._execute("SELECT response FROM responses WHERE key = ?", (self.key(service, body),))
        if row is None:
            return None
        try:
            entry = loads(row[0])
            if not isinstance(entry, dict):
                raise ValueError("not a JSON object")
        except (TypeError, ValueError) as exc:  # TypeError: a row whose response is a number or a blob
            raise ContractViolation(f"corrupt cache entry {self.path(service, body)}: {exc}") from None
        return entry

    def put(self, service: str, body: Mapping, response: Mapping) -> None:
        row = (self.key(service, body), dumps_canonical(dict(response)))
        self._execute("INSERT OR REPLACE INTO responses VALUES (?, ?)", row)


class _ServiceClient:
    """Shared constructor of the HTTP clients. ``_post`` sends one JSON body,
    retrying transport failures, 5xx, 408 and 429 up to ``max_retries`` times,
    waiting ``backoff`` seconds before the first retry and twice as long before
    each next; any other status is not retried. Each attempt waits at most the
    class's ``timeout`` seconds. A client is shared by every thread of its stage."""

    timeout = 30.0
    max_retries = 3
    backoff = 0.5

    def __init__(self, url: str, token: str | None = None):
        self.url = url
        self.token = token
        self._opener = None

    def _post(self, body: Mapping) -> dict:
        # Imported here, not at module level: offline or fully cached runs
        # never send a request. One connection per call, closed after it (no
        # keep-alive). The client's own opener, built at its first request,
        # honours HTTP(S)_PROXY and NO_PROXY, verifies HTTPS against the
        # system trust store (SSL_CERT_FILE; one TLS context per client) and
        # follows no redirect. Retried: OSError (URLError, timeouts and TLS
        # errors included), HTTPException, 5xx, 408 and 429; any other status
        # fails at once.
        import http.client
        import ssl
        import urllib.error
        import urllib.request

        if self._opener is None:  # threads that race here build equivalent openers
            context = ssl.create_default_context() if self.url.startswith("https:") else None
            opener = urllib.request.OpenerDirector()
            for handler in (
                urllib.request.ProxyHandler(),
                urllib.request.HTTPHandler(),
                urllib.request.HTTPSHandler(context=context),
                urllib.request.UnknownHandler(),
                urllib.request.HTTPDefaultErrorHandler(),
                urllib.request.HTTPErrorProcessor(),
            ):
                opener.add_handler(handler)
            self._opener = opener  # published only once built: a racing thread never sends through a bare one
        data = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        attempt = 0
        while True:
            attempt += 1
            try:
                # a fresh Request per attempt: a proxied open rewrites its host
                request = urllib.request.Request(self.url, data, headers, method="POST")
                with self._opener.open(request, timeout=self.timeout) as resp:
                    raw = resp.read()
                break
            except ValueError as exc:  # no URL scheme, or a bad header: no attempt can succeed
                raise TransportError(f"POST {self.url}: {exc}; not retried") from exc
            except urllib.error.HTTPError as exc:
                exc.close()
                if exc.code < 500 and exc.code not in (408, 429):
                    raise TransportError(f"POST {self.url} failed with status {exc.code}; not retried") from exc
                failure = exc
            except (OSError, http.client.HTTPException) as exc:
                failure = exc
            if attempt > self.max_retries:
                raise TransportError(f"POST {self.url} failed after {attempt} attempts: {failure}") from failure
            delay = self.backoff * (2 ** (attempt - 1))
            logger.warning("POST %s attempt %d failed (%s); retrying in %.2fs", self.url, attempt, failure, delay)
            time.sleep(delay)
        try:
            payload = loads(raw.decode("utf-8"))  # strict: json.loads of bytes would pass a surrogate through
        except ValueError as exc:  # UnicodeDecodeError too
            raise ProtocolError(f"POST {self.url}: response is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError(f"POST {self.url}: response is not an object")
        return payload


def _probability(reply: dict, origin: str) -> float:
    """The ``probability`` of a scorer reply or cache entry from ``origin``."""
    value = reply.get("probability")
    # NaN (not equal to itself) fails no range test, and a cached NaN would replay
    # forever; the bounds come before float(), which overflows on a huge integer
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value != value:
        raise ProtocolError(f"{origin}: no number 'probability' (not a number: {quoted(value)})")
    if value < 0 or value > 1:
        logger.warning("%s: probability %s outside [0,1]; clamping", origin, quoted(value))
        value = min(1, max(0, value))
    return float(value)


def _answer(reply: dict, origin: str) -> str:
    """The ``answer`` of a predictor reply or cache entry from ``origin``."""
    answer = reply.get("answer")
    if not isinstance(answer, str):
        raise ProtocolError(f"{origin}: no string 'answer' (not a string: {quoted(answer)})")
    return answer


class RemoteScorer(_ServiceClient):
    """HTTP client for the discriminator scoring service."""

    def score(self, req: ScoreRequest) -> float:
        return _probability(self._post(req.wire_body()), self.url)


class RemotePredictor(_ServiceClient):
    """HTTP client for the QA predictor (reader) service."""

    timeout = 60.0

    def predict(self, req: PredictRequest) -> str:
        return _answer(self._post(req.wire_body()), self.url)


class CachingBackend:
    """Wrap any scorer/predictor with a ResponseCache, the one caching path
    for every backend (for offline backends the cache doubles as a replay
    log).

    ``service`` names the backend that answers, e.g. ``"scorer:remote:<url>"``;
    it is part of every cache key, so backends that share a cache
    directory never replay each other's answers.
    """

    def __init__(self, inner, cache: ResponseCache, service: str):
        self.inner = inner
        self.cache = cache
        self.service = service

    def score(self, req: ScoreRequest) -> float:
        body = {**req.wire_body(), "question_id": req.question_id}
        return self._lookup(body, "probability", _probability, "scorer cache", lambda: self.inner.score(req))

    def predict(self, req: PredictRequest) -> str:
        return self._lookup(req.wire_body(), "answer", _answer, "predictor cache", lambda: self.inner.predict(req))

    def _lookup(self, body: dict, field: str, check: Callable, origin: str, ask: Callable):
        """The cached answer to ``body``, checked by ``check`` as a reply is;
        on a miss, ``ask()``'s, stored as ``{field: answer}``."""
        cached = self.cache.get(self.service, body)
        if cached is not None:
            try:
                return check(cached, origin)
            except ProtocolError as exc:  # not a ProtocolError: mining records those as failed reader calls
                raise ContractViolation(f"corrupt cache entry {self.cache.path(self.service, body)}: {exc}") from None
        answer = ask()
        self.cache.put(self.service, body, {field: answer})
        return answer


class LexicalMockScorer:
    """Answer-string containment in place of trained discriminators.

    Evidentiality is 1 iff the retrieved text contains a gold alias;
    consistency is 1 iff the generated text does. Thresholded at 0.5 this
    reproduces same-answer matching.

    A verdict depends only on the text and the question's aliases, so each
    distinct (text, aliases) pair is checked once per instance: a question's
    M*N consistency calls check its M generated texts. The memo holds one
    entry per distinct passage text of the examples scored. Answers are
    keyed by question id, which every request must carry.
    """

    def __init__(self, answers_by_id: Mapping[str, Sequence[str]]):
        self._answers = {k: tuple(v) for k, v in answers_by_id.items()}
        # workers that race on a key compute and store the same verdict
        self._verdicts: dict[tuple[str, tuple[str, ...]], float] = {}

    @classmethod
    def from_examples(cls, examples: Iterable[QAExample]) -> "LexicalMockScorer":
        return cls({ex.question_id: ex.answers for ex in examples})

    def score(self, req: ScoreRequest) -> float:
        answers = self._answers.get(req.question_id)
        if answers is None:
            raise ContractViolation(f"lexical scorer has no answers for question {quoted(req.question_id)}")
        target = (req.retrieved_text if req.kind is ScoreKind.EVIDENTIALITY else req.generated_text) or ""
        key = (target, answers)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = 1.0 if text_contains_answer(target, answers) else 0.0
        return verdict


def split_two_documents(raw: str) -> tuple[str, str]:
    """Parse a two-document generation into its segments.

    Raises ProtocolError when either literal marker is missing or the
    second precedes the first.
    """
    first = raw.find(DOC1_MARKER)
    second = raw.find(DOC2_MARKER)
    if first < 0 or second < 0 or second < first:
        raise ProtocolError("multi-hop generation is missing Document 1/Document 2 markers")
    seg1 = raw[first + len(DOC1_MARKER) : second].strip()
    seg2 = raw[second + len(DOC2_MARKER) :].strip()
    if not seg1 or not seg2:
        raise ProtocolError("multi-hop generation has an empty document segment")
    return seg1, seg2


class RemoteGenerator(_ServiceClient):
    """HTTP client for the passage generation service."""

    timeout = 120.0

    def generate(self, req: GenerationRequest) -> list[tuple[str, ...]]:
        """The segment texts of each generated passage that parses, in reply
        order; a passage that does not parse is logged and skipped."""
        payload = self._post(req.wire_body())
        raw_passages = payload.get("passages")
        if not isinstance(raw_passages, list):
            raise ProtocolError("generator response missing 'passages' array")
        passages: list[tuple[str, ...]] = []
        for index, item in enumerate(raw_passages[: req.num_passages]):
            try:
                passages.append(_parse_generated_item(item, req.mode, index))
            except ProtocolError as exc:
                logger.warning("skipping unparseable generated passage %d: %s", index, exc)
        return passages


def _parse_generated_item(item, mode: GenerationMode, index: int) -> tuple[str, ...]:
    if isinstance(item, str):
        texts = (item,)
    elif isinstance(item, list) and all(isinstance(t, str) for t in item):
        texts = tuple(item)
    else:
        raise ProtocolError(f"generated passage {index} is neither a string nor a string array")
    if mode is GenerationMode.MULTI_HOP_CHAIN and len(texts) == 1:
        texts = split_two_documents(texts[0])
    if not texts or not all(t.strip() for t in texts):
        raise ProtocolError(f"generated passage {index} has empty text")
    return texts
