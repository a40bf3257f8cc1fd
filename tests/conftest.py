from __future__ import annotations

import contextlib
import json
import sqlite3
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from pairqa.corpus import Passage, PassageChain, QAExample


def cache_db(cache_dir):
    """A connection to the response cache under ``cache_dir`` that commits
    each statement as it runs and is closed when the ``with`` block ends."""
    return contextlib.closing(sqlite3.connect(cache_dir / "responses.sqlite3", isolation_level=None))


def make_chain(text: str, cid: str, title: str | None = None) -> PassageChain:
    return PassageChain(segments=(Passage(id=cid, text=text, title=title),))


def make_example(
    question_id: str = "q1",
    question: str = "who wrote it",
    answers=("Don Shula",),
    retrieved_texts=("head coach Don Shula won", "something else entirely"),
    generated_texts=("Don Shula led the team", "George Halas led the team"),
) -> QAExample:
    retrieved = tuple(make_chain(t, f"r{j}") for j, t in enumerate(retrieved_texts))
    generated = tuple(make_chain(t, f"g{i}") for i, t in enumerate(generated_texts))
    return QAExample(
        question_id=question_id,
        question=question,
        answers=tuple(answers),
        retrieved=retrieved,
        generated=generated,
    )


class FixtureService:
    """In-process HTTP service implementing the three wire protocols.

    ``responses`` maps a path to either a dict (static body), a callable
    ``body -> dict or (status, dict)`` (called outside the service's lock, so
    it may stall), or a list of (status, dict) consumed per request; a reply
    given as ``bytes`` is sent as it is. Every request body is appended to
    ``requests[path]`` and its headers, names lower-cased, to
    ``headers[path]``. A request sent through this service as a proxy has the
    absolute URL as its path.
    """

    def __init__(self):
        self.responses: dict[str, object] = {}
        self.requests: dict[str, list[dict]] = {}
        self.headers: dict[str, list[dict[str, str]]] = {}
        self._lock = threading.Lock()

        service = self

        class Handler(BaseHTTPRequestHandler):
            # a buffered reply leaves in one write, when the request is done: a client that timed
            # out and closed during a stalled reply then cannot break the pipe under a second write
            wbufsize = -1

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                with service._lock:
                    service.requests.setdefault(self.path, []).append(body)
                    service.headers.setdefault(self.path, []).append({k.lower(): v for k, v in self.headers.items()})
                    spec = service.responses.get(self.path)
                    if isinstance(spec, list):
                        spec = spec.pop(0) if spec else (500, {})
                # outside the lock, so that a callable that stalls holds up no other request
                if callable(spec):
                    spec = spec(body)
                if isinstance(spec, tuple):
                    status, payload = spec
                elif spec is None:
                    status, payload = 404, {}
                else:
                    status, payload = 200, spec
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # a short poll, so that close() does not wait out serve_forever's default 0.5 s
        self.thread = threading.Thread(target=self.server.serve_forever, args=(0.01,), daemon=True)
        self.thread.start()

    def url(self, path: str) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}{path}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def http_service():
    service = FixtureService()
    yield service
    service.close()
