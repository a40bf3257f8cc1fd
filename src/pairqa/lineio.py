"""Line-delimited JSON input/output used by every stage, and pairqa's one JSON codec.

All files are UTF-8 without BOM, one object per line. ``loads`` decodes every JSON
text from outside; JSON nested too deep, or a lone surrogate escape, which no UTF-8
file can hold, is a ValueError like any other bad JSON. Writing is canonical (sorted
keys, compact separators), so a rerun on identical inputs writes identical bytes; an
enum member is written as its value, and a slotted dataclass record as its fields.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO

from .errors import ContractViolation


@dataclass(slots=True)
class LineError:
    line: int
    message: str


def _fields(obj: Any) -> Any:
    """The JSON value of a value the encoder does not know: an enum member's value, a slotted record's fields."""
    if isinstance(obj, Enum):
        return obj.value
    if is_dataclass(obj) and hasattr(obj, "__slots__"):
        return {name: getattr(obj, name) for name in obj.__slots__}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# One encoder for every record: ``json.dumps`` with these options builds a new one per call.
_CANONICAL = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":"), default=_fields)


def dumps_canonical(obj: Any) -> str:
    return _CANONICAL.encode(obj)


def loads(text: str) -> Any:
    """``json.loads`` of a JSON text from outside; ValueError for JSON nested too deep
    (a RecursionError there) and for a lone surrogate escape, which no UTF-8 output can hold."""
    if type(text) is not str:  # json.loads would decode bytes with surrogatepass
        raise TypeError(f"JSON text must be a str, not {type(text).__name__}")
    try:
        value = json.loads(text)
        if "\\ud" in text or "\\uD" in text:  # only an escape makes a surrogate in text decoded as UTF-8
            _CANONICAL.encode(value).encode("utf-8")
    except RecursionError as exc:
        raise ValueError(str(exc)) from None
    except UnicodeEncodeError as exc:
        raise ValueError(f"lone surrogate {quoted(exc.object[exc.start])}") from None
    return value


def clipped(text: str) -> str:
    """``text`` for a message; past 80 characters, its first 80 and its
    length, since a value read from outside may be megabytes long."""
    return text if len(text) <= 80 else f"{text[:80]}... ({len(text)} characters)"


def quoted(value) -> str:
    """``repr(value)`` for a message, clipped."""
    return clipped(repr(value))


def member(cls: type[Enum], value) -> Enum:
    """The member of ``cls`` whose value is ``value``, else the ValueError of
    ``cls(value)`` with the value quoted."""
    try:
        return cls(value)
    except ValueError:
        raise ValueError(f"{quoted(value)} is not a valid {cls.__qualname__}") from None


def integer(value) -> int:
    """``value`` if it is a JSON integer, else TypeError: ``int(True)`` is 1."""
    if type(value) is not int:
        raise TypeError(f"{quoted(value)} is not an integer")
    return value


def number(value) -> float:
    """``value`` as a float if it is a JSON number, else TypeError: ``float("1")`` is 1.0."""
    if type(value) not in (int, float):
        raise TypeError(f"{quoted(value)} is not a number")
    return float(value)


def boolean(value) -> bool:
    """``value`` if it is a JSON boolean, else TypeError: ``bool("false")`` is True."""
    if type(value) is not bool:
        raise TypeError(f"{quoted(value)} is not true or false")
    return value


def string(value) -> str:
    """``value`` if it is a JSON string, else TypeError: ``str(5)`` is "5"."""
    if type(value) is not str:
        raise TypeError(f"{quoted(value)} is not a string")
    return value


def read_jsonl(path: str | Path, errors: list[LineError] | None = None) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) pairs.

    Lines end at LF; line numbers are 1-based; a blank line is skipped. A
    missing or unreadable file raises OSError (fatal by contract). A line
    that is not UTF-8, or not a JSON object, is appended to ``errors`` as a
    LineError and skipped; without the list it raises ContractViolation
    naming the file and line, so no handoff silently loses a record.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = loads(line)
            except UnicodeDecodeError as exc:
                problem = f"not UTF-8: {exc}"
            except ValueError as exc:
                problem = f"invalid JSON: {exc}"
            else:
                problem = None if isinstance(obj, dict) else "record is not an object"
            if problem is None:
                yield lineno, obj
            elif errors is None:
                raise ContractViolation(f"{path} line {lineno}: {problem}")
            else:
                errors.append(LineError(lineno, problem))


def read_records(path: str | Path, what: str, parse: Callable[[dict], Any]) -> list:
    """``parse`` of each record of a handoff file, in file order. A line that is not a JSON object, or a
    record that ``parse`` rejects (one missing a field included), raises ContractViolation
    "<path> line N: bad <what> record: ..."."""
    records = []
    for lineno, rec in read_jsonl(path):
        try:
            records.append(parse(rec))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: float() of a huge integer
            problem = f"missing field {quoted(exc.args[0])}" if type(exc) is KeyError else exc
            raise ContractViolation(f"{path} line {lineno}: bad {what} record: {problem}") from None
    return records


def read_keyed(path: str | Path, what: str, parse: Callable[[dict], Any]) -> dict[str, Any]:
    """``read_records`` of a question-keyed file, by question id; a repeated or non-string one is a bad record."""
    records = {}

    def keyed(rec: dict) -> None:
        qid = string(rec["question_id"])
        if qid in records:
            raise ValueError(f"repeated question_id {quoted(qid)}")
        records[qid] = parse(rec)

    read_records(path, what, keyed)
    return records


@contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """Open a text file for writing that replaces ``path`` atomically.

    Writes go to a temp file in the same directory, which ``os.replace``
    moves over ``path`` when the block ends without an exception: a reader
    sees the old file or the complete new one, never a prefix that would
    load as a smaller result. Newlines are written as given.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Not mkstemp: that would leave the output readable by its owner only.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if tmp.exists():
            tmp.unlink()
        raise


def write_jsonl(path: str | Path, records: Iterable[Any]) -> int:
    """Write records (objects, or records ``_fields`` encodes) canonically
    through ``atomic_open``; returns the number of lines written."""
    count = 0
    with atomic_open(path) as fh:
        for record in records:
            fh.write(dumps_canonical(record))
            fh.write("\n")
            count += 1
    return count
