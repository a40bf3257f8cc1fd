"""The record contract: every pairqa dataclass is slotted, and no record field
is assigned after construction.

Records are ``@dataclass(slots=True)``, not ``frozen=True``: a frozen
dataclass assigns each field through ``object.__setattr__`` and costs about
3x more to build, and a pass builds tens of thousands of records. So nothing
enforces immutability at run time, and these tests pin it in the source.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pairqa

def _dataclasses() -> dict[str, type]:
    """Every dataclass defined in a pairqa module, by dotted name."""
    found = {}
    for info in pkgutil.iter_modules(pairqa.__path__):
        module = importlib.import_module(f"pairqa.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
                found[f"{module.__name__}.{name}"] = cls
    return found


def test_every_record_is_slotted():
    records = _dataclasses()
    assert {"pairqa.providers.ScoreRequest", "pairqa.lineio.LineError", "pairqa.sim.GroundTruth"} <= set(records)
    unslotted = [name for name, cls in records.items() if "__slots__" not in vars(cls)]
    # __new__ alone: a real instance, without the field values __init__ would check
    with_dict = [name for name, cls in records.items() if hasattr(cls.__new__(cls), "__dict__")]
    assert (unslotted, with_dict) == ([], [])


def _assigned_attributes(tree: ast.AST):
    """Each attribute node that an assignment, augmented assignment or ``del``
    targets directly; a subscript target such as ``a.b[k] = v`` is not one."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif isinstance(target, ast.Attribute):
                yield target


def _is_setattr(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "setattr") or (
        isinstance(func, ast.Attribute) and func.attr == "__setattr__"
    )


def test_no_record_field_is_assigned_after_construction():
    fields = {f.name for cls in _dataclasses().values() for f in dataclasses.fields(cls)}
    found = []
    for path in sorted(Path(pairqa.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for target in _assigned_attributes(tree):
            on_self = isinstance(target.value, ast.Name) and target.value.id == "self"
            if target.attr in fields and not on_self:
                found.append(f"{path.name}:{target.lineno}: {ast.unparse(target)}")
        found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree) if _is_setattr(node)]
    assert found == []

