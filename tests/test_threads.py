"""The concurrency contract: ``each`` (``cli._per_item``) is the one place
pairqa starts a thread.

A stage runs its questions on ``each``'s threads, and a remote client sends
one request at a time on the thread that calls it, so the requests in
flight are bounded by the thread count alone. A second pool anywhere else
would break that bound, so this test pins it in the source. Locks, such as
``ResponseCache``'s, start no thread and are not looked for.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pairqa

# calls that start a thread: by bare name, or as an attribute of any module
THREAD_STARTERS = {"ThreadPoolExecutor", "Thread"}


def _thread_starts(tree: ast.AST, scope: str = ""):
    """The dotted scope (enclosing functions and classes) of each call that
    starts a thread, in source order."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in THREAD_STARTERS:
                yield scope
        yield from _thread_starts(node, inner)


def test_each_is_the_only_place_a_thread_starts():
    found = []
    for path in sorted(Path(pairqa.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.stem}.{scope}" for scope in _thread_starts(tree)]
    assert found == ["cli._per_item.each"]


def test_the_scan_finds_a_thread_started_anywhere():
    source = (
        "import threading\n"
        "from concurrent import futures\n"
        "class Client:\n"
        "    def send(self):\n"
        "        futures.ThreadPoolExecutor(4)\n"
        "def start():\n"
        "    threading.Thread(target=print).start()\n"
        "    threading.Lock()\n"
        "Thread()\n"
    )
    assert list(_thread_starts(ast.parse(source))) == ["Client.send", "start", ""]
