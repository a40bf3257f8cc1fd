"""Stand-in discriminator and reader service for the remote workloads.

    PYTHONPATH=src python perfbench/standin.py --truth sim_truth.jsonl --seed 7

Prints its port on the first line of standard output, then serves
until its standard input closes (so it cannot outlive the benchmark that
started it) or it receives SIGTERM.

* ``POST /score``   ``{"kind", "question", "retrieved", "generated"}`` ->
  ``{"probability"}``: continuous, derived from a hash of the request body
  and the seed, and above 0.5 exactly where the scored passage (retrieved
  for evidentiality, generated for consistency) supports the gold answer.
* ``POST /predict`` ``{"question", "passages"}`` -> ``{"answer"}``: the
  simulator's noiseless reader, ``pairqa.sim.mock_predict``.
* ``GET /counts`` -> requests received per path, so that the benchmark can
  report what a real model service would charge.

No delay is added: wall time then measures the client's own per-request
cost. The server is threaded and speaks HTTP/1.1, so a client that keeps
connections alive is not penalised.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def canonical(body: dict) -> str:
    return json.dumps(body, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def probability(body: dict, supports: bool, seed: int) -> float:
    """Score in (0.5, 1] when ``supports`` holds, else in [0, 0.5)."""
    digest = hashlib.sha256(f"{seed}:{canonical(body)}".encode("utf-8")).digest()
    u = int.from_bytes(digest[:8], "big") / 2.0**64
    return 0.5 + 0.5 * (1.0 - u) if supports else 0.5 * u


class StandIn:
    def __init__(self, truth_path: str, seed: int):
        from pairqa import sim

        self.seed = seed
        self.truth = sim.load_truth(truth_path)
        # question text -> chain text -> whether the chain supports the gold answer
        self.support = {
            qt.question: {ct.text: ct.supports for ct in qt.chains.values()} for qt in self.truth.questions.values()
        }
        self.mock_predict = sim.mock_predict
        self.counts: Counter = Counter()
        self.lock = threading.Lock()

    def count(self, key: str) -> None:
        with self.lock:
            self.counts[key] += 1

    def score(self, body: dict) -> dict:
        target = body["retrieved"] if body["kind"] == "evidentiality" else body["generated"]
        supports = self.support[body["question"]][target]
        return {"probability": probability(body, supports, self.seed)}

    def predict(self, body: dict) -> dict:
        return {"answer": self.mock_predict(body["question"], body["passages"], self.truth)}


def make_handler(service: StandIn):
    routes = {"/score": service.score, "/predict": service.predict}

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _reply(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path != "/counts":
                self._reply(404, {})
                return
            with service.lock:
                snapshot = dict(service.counts)
            self._reply(200, snapshot)

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            route = routes.get(self.path)
            service.count(self.path)
            if route is None:
                self._reply(404, {})
                return
            try:
                payload = route(json.loads(raw))
            except (ValueError, KeyError, TypeError) as exc:
                service.count(f"{self.path}:rejected")
                self._reply(400, {"error": f"{type(exc).__name__}: {exc}"})
                return
            self._reply(200, payload)

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--truth", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    service = StandIn(args.truth, args.seed)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(service))
    server.daemon_threads = True

    def stop_when_stdin_closes():
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_when_stdin_closes, daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
