"""Line-delimited JSON input/output used by every stage.

All files are UTF-8 without BOM, one object per line. Writing uses a
canonical encoding (sorted keys, compact separators) so that re-running a
stage with identical inputs produces byte-identical files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator


@dataclass
class LineError:
    line: int
    message: str


@dataclass
class IngestionReport:
    """Collects per-line errors and warnings instead of aborting a run."""

    errors: list[LineError] = field(default_factory=list)
    warnings: list[LineError] = field(default_factory=list)

    def error(self, line: int, message: str) -> None:
        self.errors.append(LineError(line, message))

    def warn(self, line: int, message: str) -> None:
        self.warnings.append(LineError(line, message))

    @property
    def ok(self) -> bool:
        return not self.errors


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def read_jsonl(path: str | Path, report: IngestionReport | None = None) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) pairs; malformed lines go to the report.

    Line numbers are 1-based. A missing or unreadable file raises OSError
    (fatal by contract); bad JSON on a line is recorded and skipped.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                if report is not None:
                    report.error(lineno, f"invalid JSON: {exc}")
                continue
            if not isinstance(obj, dict):
                if report is not None:
                    report.error(lineno, "record is not an object")
                continue
            yield lineno, obj


def write_jsonl(path: str | Path, records: Iterable[dict]) -> int:
    """Write records canonically; returns the number of lines written.

    The file is replaced atomically (temp file in the same directory, then
    ``os.replace``): a reader sees the old file or the complete new one,
    never a prefix that would load as a smaller result.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Not mkstemp: that would leave the output readable by its owner only.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    count = 0
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for record in records:
                fh.write(dumps_canonical(record))
                fh.write("\n")
                count += 1
        os.replace(tmp, path)
    except BaseException:
        if tmp.exists():
            tmp.unlink()
        raise
    return count
