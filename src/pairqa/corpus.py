"""Question/passage data model, dataset ingestion, and answer metrics.

The dataset file format is line-delimited JSON with fields
``question_id``, ``question``, ``answers``, ``retrieved`` and
``generated``. Each entry of the two passage pools is a chain: an array
of ``{"id", "title", "text"}`` objects. Single-hop files may store a bare
object instead of a one-element array; the loader accepts both. A chain's
pool is its source: no passage or chain records where it came from.

A record is checked once, where it enters: ``example_from_record`` rejects a
blank question, an empty or blank chain and answers that are not a non-empty
array of strings (``providers`` checks generated passages). The data classes
do not check again what ingest or pairqa's own builders settled.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ContractViolation
from .lineio import LineError, clipped, quoted, read_jsonl, write_jsonl

_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


class Source(Enum):
    RETRIEVED = "retrieved"
    LLM_GENERATED = "generated"


class HopType(Enum):
    SINGLE_HOP = "single"
    MULTI_HOP_BRIDGE = "bridge"
    MULTI_HOP_COMPARISON = "comparison"
    UNKNOWN = "unknown"

    @property
    def is_multi_hop(self) -> bool:
        return self in (HopType.MULTI_HOP_BRIDGE, HopType.MULTI_HOP_COMPARISON)


@dataclass(slots=True)
class Passage:
    id: str
    text: str
    title: str | None = None


@dataclass(slots=True)
class PassageChain:
    """An ordered list of passage segments; length 1 single-hop, 2 multi-hop."""

    segments: tuple[Passage, ...]

    @property
    def id(self) -> str:
        return self.segments[0].id

    def text(self, with_titles: bool = False) -> str:
        """Segment texts joined by single spaces, optionally with titles."""
        parts = []
        for seg in self.segments:
            if with_titles and seg.title:
                parts.append(f"{seg.title} . {seg.text}")
            else:
                parts.append(seg.text)
        return " ".join(parts)


def segment_id(name: str, index: int, count: int) -> str:
    """The id of segment ``index`` of a chain of ``count`` segments named
    ``name``: ``name`` itself for a single segment, ``name.<index>`` when
    there are several."""
    return name if count == 1 else f"{name}.{index}"


def named_chain(name: str, texts: Sequence[str]) -> PassageChain:
    """The chain ``name`` of untitled segments with ``texts``."""
    return PassageChain(tuple(Passage(id=segment_id(name, s, len(texts)), text=t) for s, t in enumerate(texts)))


@dataclass(slots=True)
class QAExample:
    question_id: str
    question: str
    answers: tuple[str, ...]
    retrieved: tuple[PassageChain, ...]
    generated: tuple[PassageChain, ...]
    hop_type: HopType = HopType.UNKNOWN

    @property
    def n(self) -> int:
        return len(self.retrieved)

    @property
    def m(self) -> int:
        return len(self.generated)


def normalize_answer(s: str) -> str:
    """Lowercase, strip punctuation, drop articles, collapse whitespace."""
    s = s.lower().translate(_PUNCT_TABLE)
    s = _ARTICLE_RE.sub(" ", s)
    return " ".join(s.split())


def exact_match(prediction: str, answers: Sequence[str]) -> bool:
    """Normalized string equality against any alias."""
    pred_norm = normalize_answer(prediction)
    return any(pred_norm == normalize_answer(alias) for alias in answers)


def text_contains_answer(text: str, answers: Sequence[str]) -> bool:
    """True iff some normalized alias is a contiguous token run in the text:
    normalized strings join their tokens with single spaces, so that is a
    substring test with a space on each side."""
    padded = f" {normalize_answer(text)} "
    return any(alias and f" {alias} " in padded for alias in map(normalize_answer, answers))


def contains_answer(chain: PassageChain, answers: Sequence[str]) -> bool:
    return text_contains_answer(chain.text(), answers)


# --- dataset ingestion -------------------------------------------------


def _parse_chain(raw, prefix: str, index: int) -> PassageChain:
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        raise ContractViolation("chain must be an object or a non-empty array")
    segments = []
    for seg_idx, seg in enumerate(raw):
        if not isinstance(seg, dict):
            raise ContractViolation("chain segment must be an object")
        text = seg.get("text")
        if not isinstance(text, str) or not text.strip():
            raise ContractViolation(f"chain segment {seg_idx} has empty text")
        pid = seg.get("id")
        if pid is None:
            pid = segment_id(f"{prefix}{index}", seg_idx, len(raw))
        elif not isinstance(pid, str):
            raise ContractViolation(f"chain segment {seg_idx} id must be a string, got {quoted(pid)}")
        title = seg.get("title")
        if title is not None and not isinstance(title, str):
            raise ContractViolation("title must be a string when present")
        segments.append(Passage(id=pid, text=text, title=title))
    return PassageChain(segments=tuple(segments))


def _parse_pool(raw, source: Source, prefix: str) -> tuple[PassageChain, ...]:
    if raw is None:
        raw = []
    if not isinstance(raw, list):
        raise ContractViolation(f"{source.value} pool must be an array")
    chains = tuple(_parse_chain(item, prefix, i) for i, item in enumerate(raw))
    seen: set[str] = set()
    for chain in chains:
        for seg in chain.segments:
            if seg.id in seen:
                raise ContractViolation(f"duplicate passage id {quoted(seg.id)} in {source.value} pool")
            seen.add(seg.id)
    return chains


def example_from_record(record: dict) -> QAExample:
    question_id = record.get("question_id")
    if not isinstance(question_id, str) or not question_id:
        raise ContractViolation("missing or empty question_id")
    question = record.get("question")
    if not isinstance(question, str) or not question.strip():
        raise ContractViolation("missing or empty question")
    answers = record.get("answers")
    if not isinstance(answers, list) or not answers or not all(isinstance(a, str) for a in answers):
        raise ContractViolation("answers must be a non-empty array of strings")
    retrieved = _parse_pool(record.get("retrieved"), Source.RETRIEVED, "r")
    generated = _parse_pool(record.get("generated"), Source.LLM_GENERATED, "g")
    hop_raw = record.get("hop_type")
    if hop_raw is None:
        single = all(len(c.segments) == 1 for c in retrieved + generated)
        hop_type = HopType.SINGLE_HOP if single else HopType.UNKNOWN
    else:
        try:
            hop_type = HopType(hop_raw)
        except ValueError:
            raise ContractViolation(f"unknown hop_type {quoted(hop_raw)}") from None
    return QAExample(
        question_id=question_id,
        question=question,
        answers=tuple(answers),
        retrieved=retrieved,
        generated=generated,
        hop_type=hop_type,
    )


def example_to_record(example: QAExample) -> dict:
    def chain_out(chain: PassageChain) -> list[dict]:
        out = []
        for seg in chain.segments:
            d = {"id": seg.id, "text": seg.text}
            if seg.title is not None:
                d["title"] = seg.title
            out.append(d)
        return out

    return {
        "question_id": example.question_id,
        "question": example.question,
        "answers": list(example.answers),
        "retrieved": [chain_out(c) for c in example.retrieved],
        "generated": [chain_out(c) for c in example.generated],
        "hop_type": example.hop_type.value,
    }


def read_examples(
    path: str | Path, expect_generated: bool = True
) -> tuple[list[QAExample], list[LineError], list[LineError]]:
    """Examples of a dataset file in file order, then the errors and the
    warnings of its ingest, each a line number and a message.

    Malformed records, and second and later records of a question_id, are
    errors and skipped; an empty passage pool (a generated one only if
    ``expect_generated``) is a warning, but the example is still kept.
    """
    examples: list[QAExample] = []
    errors: list[LineError] = []
    warnings: list[LineError] = []
    seen: set[str] = set()
    for lineno, record in read_jsonl(path, errors):
        try:
            example = example_from_record(record)
        except ContractViolation as exc:
            errors.append(LineError(lineno, str(exc)))
            continue
        if example.question_id in seen:
            errors.append(LineError(lineno, f"duplicate question_id {quoted(example.question_id)}"))
            continue
        seen.add(example.question_id)
        if not example.retrieved:
            warnings.append(LineError(lineno, f"{clipped(example.question_id)}: empty retrieved pool"))
        if not example.generated and expect_generated:
            warnings.append(LineError(lineno, f"{clipped(example.question_id)}: empty generated pool"))
        examples.append(example)
    return examples, errors, warnings


def write_examples(path: str | Path, examples: Iterable[QAExample]) -> int:
    return write_jsonl(path, (example_to_record(e) for e in examples))
