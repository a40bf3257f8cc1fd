"""Serialization of matched pairs into reader encoder blocks.

Each pairwise block is ``question: <Q> generated passage: <lp text>
retrieved passage: <rp text>`` with the generated passage always first,
so the reader can learn that the factual source sits in the latter
position. The linearized variant emits one block per passage instead;
the shuffled variants are ablations (seeded, reproducible).

Budgets are whitespace-token counts per block (a neural tokenizer would
be model-specific). The question and markers are never truncated; the
leftover budget is split equally between the two passages, each cut at a
token boundary from the end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

from .corpus import QAExample
from .errors import ContractViolation
from .lineio import clipped, write_jsonl
from .matching import PairMatching

QUESTION_MARKER = "question:"
GENERATED_MARKER = "generated passage:"
RETRIEVED_MARKER = "retrieved passage:"

_PAIRWISE_BUDGETS = {False: 400, True: 1000}
_LINEARIZED_BUDGETS = {False: 200, True: 500}


class Variant(Enum):
    PAIRWISE = "pairwise"
    LINEARIZED = "linearized"
    SHUFFLED_PAIRS = "shuffled-pairs"
    SHUFFLED_WITHIN_PAIR = "shuffled-within-pair"


@dataclass(slots=True)
class ReaderExample:
    question_id: str
    blocks: tuple[str, ...]


def default_budget(example: QAExample, variant: Variant = Variant.PAIRWISE) -> int:
    """400/1000 tokens per pair block, 200/500 per linearized block
    (single-hop/multi-hop). An example is multi-hop when it declares a
    multi-hop type or any of its chains has more than one segment."""
    multi = example.hop_type.is_multi_hop or any(len(c.segments) > 1 for c in example.retrieved + example.generated)
    return (_LINEARIZED_BUDGETS if variant is Variant.LINEARIZED else _PAIRWISE_BUDGETS)[multi]


def _truncate(text: str, max_tokens: int) -> str:
    tokens = text.split()
    if max_tokens <= 0:
        return ""
    return " ".join(tokens[:max_tokens])


def _join(parts: Iterable[str]) -> str:
    return " ".join(p for p in parts if p)


def _pair_block(question: str, lp_text: str, rp_text: str, budget: int, swap: bool = False) -> str:
    overhead = (
        len(QUESTION_MARKER.split())
        + len(question.split())
        + len(GENERATED_MARKER.split())
        + len(RETRIEVED_MARKER.split())
    )
    room = budget - overhead
    lp_share = (room + 1) // 2 if room > 0 else 0
    rp_share = room - lp_share if room > 0 else 0
    lp_out = _truncate(lp_text, lp_share)
    rp_out = _truncate(rp_text, rp_share)
    if swap:
        return _join([QUESTION_MARKER, question, RETRIEVED_MARKER, rp_out, GENERATED_MARKER, lp_out])
    return _join([QUESTION_MARKER, question, GENERATED_MARKER, lp_out, RETRIEVED_MARKER, rp_out])


def _single_block(question: str, marker: str, text: str, budget: int) -> str:
    overhead = len(QUESTION_MARKER.split()) + len(question.split()) + len(marker.split())
    return _join([QUESTION_MARKER, question, marker, _truncate(text, budget - overhead)])


def serialize_variant(
    example: QAExample,
    matching: PairMatching,
    variant: Variant,
    budget: int,
    seed: int = 0,
) -> ReaderExample:
    """Serialize under any input variant: pairwise is one block per matched pair,
    in matching (compatibility-sorted) order; shuffles derive from ``seed``. A
    matching that does not pair every passage of both pools raises ContractViolation."""
    lps, rps = {i for i, _, _ in matching.pairs}, {j for _, j, _ in matching.pairs}
    if len(matching.pairs) != max(example.m, example.n) or (lps, rps) != (set(range(example.m)), set(range(example.n))):
        raise ContractViolation(
            f"{clipped(example.question_id)}: matching has {len(matching.pairs)} pairs over {len(lps)} generated and"
            f" {len(rps)} retrieved passages, but the dataset has {example.m}x{example.n}"
        )
    question, generated, retrieved = example.question, example.generated, example.retrieved
    texts = [(generated[i].text(with_titles=True), retrieved[j].text(with_titles=True)) for i, j, _ in matching.pairs]
    if variant is Variant.PAIRWISE:
        blocks = [_pair_block(question, lp_text, rp_text, budget) for lp_text, rp_text in texts]
    elif variant is Variant.LINEARIZED:
        blocks = []
        for lp_text, rp_text in texts:
            blocks.append(_single_block(question, GENERATED_MARKER, lp_text, budget))
            blocks.append(_single_block(question, RETRIEVED_MARKER, rp_text, budget))
    elif variant is Variant.SHUFFLED_PAIRS:
        order = list(range(len(texts)))
        random.Random(seed).shuffle(order)
        blocks = [_pair_block(question, *texts[k], budget) for k in order]
    else:  # Variant.SHUFFLED_WITHIN_PAIR
        rng = random.Random(seed)
        blocks = [
            _pair_block(question, lp_text, rp_text, budget, swap=rng.random() < 0.5) for lp_text, rp_text in texts
        ]
    return ReaderExample(example.question_id, tuple(blocks))


def parse_pair_block(block: str) -> tuple[str, str, str]:
    """Recover (question, lp_text, rp_text) from a pair block.

    Handles either within-pair order. Only guaranteed for passage texts
    that do not themselves contain the literal markers.
    """
    if not block.startswith(QUESTION_MARKER):
        raise ContractViolation("block does not start with the question marker")
    gen_pos = block.find(f" {GENERATED_MARKER}")
    ret_pos = block.find(f" {RETRIEVED_MARKER}")
    if gen_pos < 0 or ret_pos < 0:
        raise ContractViolation("block is missing a passage marker")
    first, second = sorted([(gen_pos, GENERATED_MARKER), (ret_pos, RETRIEVED_MARKER)])
    question = block[len(QUESTION_MARKER) : first[0]].strip()
    mid = block[first[0] + 1 + len(first[1]) : second[0]].strip()
    tail = block[second[0] + 1 + len(second[1]) :].strip()
    if first[1] == GENERATED_MARKER:
        return question, mid, tail
    return question, tail, mid


def write_reader_examples(path: str | Path, examples: Iterable[ReaderExample]) -> int:
    return write_jsonl(path, examples)

