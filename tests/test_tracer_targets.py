from __future__ import annotations

import functools
import importlib
import importlib.util
from pathlib import Path

# Probes that name a method or function pairqa no longer has; each is to be
# re-pointed or deleted in perfbench, and none other may go dark.
DARK = {
    "pairqa.providers:FileScoreStore.score",
    "pairqa.mining:mine_evidentiality",
    "pairqa.mining:mine_consistency",
}


def test_every_pairqa_tracer_target_resolves():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    unresolved = set()
    for module_name, dotted, _ in traced_cli.TARGETS:
        if module_name.startswith("pairqa."):
            try:
                functools.reduce(getattr, dotted.split("."), importlib.import_module(module_name))
            except AttributeError:
                unresolved.add(f"{module_name}:{dotted}")
    assert unresolved <= DARK
