"""pairqa's one JSON codec: ``lineio.loads`` decodes every JSON text from
outside, and ``lineio.dumps_canonical`` encodes every record.

A lone surrogate escape (``"\\ud800"`` with no pair) is valid JSON, but its
value cannot be written to a UTF-8 file, so ``loads`` rejects it where it
enters, like JSON nested too deep. The AST scan pins ``loads`` as the one
place pairqa calls ``json.loads`` or ``json.load``: a second decoder would
need its own exception list and its own surrogate check.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pairqa
from pairqa.lineio import LineError, dumps_canonical, loads
from pairqa.matching import PairMatching, Strategy

# ------------------------------------------------------------------ loads


@pytest.mark.parametrize(
    "text", ['"q\\ud800x"', '{"a": ["\\uDFFF"]}', '{"\\udc00": 1}', '"\\ude00\\ud83d"', '"\\ud83d"'],
    ids=["high", "low-upper-case", "in-a-key", "pair-reversed", "high-at-end"],
)
def test_a_lone_surrogate_escape_is_a_value_error(text):
    with pytest.raises(ValueError, match="lone surrogate"):
        loads(text)


def test_a_surrogate_pair_and_an_escaped_backslash_still_load():
    assert loads('{"a": "\\ud83d\\ude00"}') == {"a": "😀"}
    assert loads('"\\uD83D\\uDE00"') == "😀"
    assert loads('"\\\\ud800"') == "\\ud800"  # a backslash, then the letters u d 8 0 0


def test_bytes_are_a_type_error():
    with pytest.raises(TypeError, match="JSON text must be a str, not bytes"):
        loads(b'{"a": "x\xed\xa0\x80"}')


def test_json_nested_too_deep_is_a_value_error():
    with pytest.raises(ValueError, match="maximum recursion depth"):
        loads("[" * 100000 + "]" * 100000)


def test_a_surrogate_in_the_text_itself_is_left_alone():
    # argv text carries non-UTF-8 bytes of a file name as surrogateescape'd characters
    assert loads('{"m": "runs/\udcff.jsonl"}') == {"m": "runs/\udcff.jsonl"}


_PIECES = ["a", "é", "\ud800", "\udbff", "\udc00", "\udfff", "\ud83d", "\ude00", "\\", '"', "\n"]
_STRINGS = st.lists(st.sampled_from(_PIECES), max_size=6).map("".join)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _STRINGS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_STRINGS, inner, max_size=3),
    max_leaves=8,
)
# JSON texts: json.dumps of values that may hold surrogates (escaped, lower or upper case), and
# soups of JSON fragments and surrogate escapes, mostly invalid; no text holds a surrogate itself
_FRAGMENTS = ['"', "\\ud800", "\\uDC00", "\\ud83d\\ude00", "\\u0041", "\\\\", "\\"]
_FRAGMENTS += ["{", "}", "[", "]", ":", ",", "1", "null", " "]
_TEXTS = st.one_of(
    st.tuples(_VALUES, st.booleans()).map(lambda vu: json.dumps(vu[0]).replace("\\ud", "\\uD" if vu[1] else "\\ud")),
    st.lists(st.sampled_from(_FRAGMENTS) | st.text(st.characters(exclude_categories=("Cs",)), max_size=2)).map("".join),
)


@given(_TEXTS)
def test_loads_rejects_exactly_bad_json_and_values_utf8_cannot_hold(text):
    try:
        value = json.loads(text)
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except ValueError:  # a JSONDecodeError, or a UnicodeEncodeError
        with pytest.raises(ValueError):
            loads(text)
    else:
        assert json.dumps(loads(text)) == json.dumps(value)


# ------------------------------------------------------------------ record encoding


def test_a_record_is_written_as_its_fields_and_an_enum_as_its_value():
    record = PairMatching("q1", Strategy.SAME_ANSWER, ((0, 1, 0.5), (1, 0, 0.25)), 0.75)
    assert dumps_canonical(record) == (
        '{"pairs":[[0,1,0.5],[1,0,0.25]],"question_id":"q1","strategy":"same-answer","total_weight":0.75}'
    )
    assert dumps_canonical([LineError(3, "é")]) == '[{"line":3,"message":"é"}]'


def test_a_value_that_is_no_record_is_still_a_type_error():
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        dumps_canonical({"a": object()})


# ------------------------------------------------------------------ one decoder

DECODERS = {"loads", "load"}


def _decodes(tree: ast.AST, scope: str = "", modules=frozenset(), names=frozenset()):
    """The dotted scope (enclosing functions and classes) of each call of ``json.loads`` or
    ``json.load``, in source order: through the module (``json``, or an alias an import in
    an enclosing scope gave it), or by a name imported from it."""
    nodes = list(ast.iter_child_nodes(tree))
    for node in nodes:
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            names |= {alias.asname or alias.name for alias in node.names if alias.name in DECODERS}
    for node in nodes:
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in names:
                yield scope
            elif isinstance(func, ast.Attribute) and func.attr in DECODERS:
                if isinstance(func.value, ast.Name) and func.value.id in modules:
                    yield scope
        yield from _decodes(node, inner, modules, names)


def test_lineio_loads_is_the_only_place_json_is_decoded():
    found = []
    for path in sorted(Path(pairqa.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.stem}.{scope}" for scope in _decodes(tree)]
    assert found == ["lineio.loads"]


def test_the_scan_finds_a_decode_anywhere():
    source = (
        "import json\n"
        "from json import load as read\n"
        "from . import lineio\n"
        "class Client:\n"
        "    def reply(self, raw):\n"
        "        return json.loads(raw)\n"
        "def config(fh):\n"
        "    import json as j\n"
        "    lineio.loads(fh.read())\n"
        "    return j.load(fh)\n"
        "def loads(text):\n"
        "    return text\n"
        "read(open('x'))\n"
        "loads('1')\n"
    )
    assert list(_decodes(ast.parse(source))) == ["Client.reply", "config", ""]
