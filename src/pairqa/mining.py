"""Silver label mining from prediction flips of a QA model.

Evidentiality labels come from leave-one-out: a retrieved passage is
positive when dropping it flips the reader from correct to incorrect,
negative on the reverse flip. Consistency labels evaluate four input
configurations per (generated, retrieved) pair:

    I   all retrieved passages
    II  all retrieved minus the target retrieved passage
    III all retrieved plus the target generated passage
    IV  all retrieved minus the target retrieved, plus the target generated

A pair is consistent when II is incorrect and I, III, IV are all correct;
conflicting when I is correct and II, III, IV are all incorrect. Both
patterns require (I correct, II incorrect), so III and IV are only ever
evaluated behind that gate; every non-gated pair is undetermined without
issuing the extra calls. A pair's verdict is a function of its four
outcomes, each absent when its call was not made or failed. A question
checks each distinct prediction against its answers once.

Both kinds share I and II, so one pass over a question always yields both.
It costs 1 + N + 2 * (number of gated pairs) reader calls for N retrieved
passages: I once, II once per retrieved passage, III once per generated
passage in a gated pair and IV once per gated pair. When a generated passage
is in several gated pairs, its III call is shared and the count is lower.
The pass also returns its reader-call log, one outcome per call that
answered, in call order. The mining audit writes each question's log as one
record of five parallel lists (``audit_record``); a question whose every call
failed keeps a record of five empty lists.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import QAExample, exact_match
from .errors import ContractViolation, PipelineError
from .lineio import clipped, write_jsonl
from .providers import PredictRequest

logger = logging.getLogger(__name__)


class Config(Enum):
    I_FULL = "I"
    II_DROP_RP = "II"
    III_ADD_LP = "III"
    IV_SWAP_LP_FOR_RP = "IV"


class Verdict(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    UNDETERMINED = "undetermined"


class LabelKind(Enum):
    EVIDENTIALITY = "evidentiality"
    CONSISTENCY = "consistency"


@dataclass(slots=True)
class ConfigOutcome:
    """One reader call: its configuration, the generated passage it adds
    (III, IV) and the retrieved passage it drops (II, IV)."""

    config: Config
    prediction: str
    correct: bool
    lp_index: int | None = None
    rp_index: int | None = None


@dataclass(slots=True)
class SilverLabel:
    question_id: str
    kind: LabelKind
    rp_index: int
    verdict: Verdict
    lp_index: int | None = None


def evidentiality_verdict(full_correct: bool, drop_correct: bool) -> Verdict:
    if full_correct and not drop_correct:
        return Verdict.POSITIVE
    if not full_correct and drop_correct:
        return Verdict.NEGATIVE
    return Verdict.UNDETERMINED


def consistency_verdict(
    full: ConfigOutcome | None, drop: ConfigOutcome | None, add: ConfigOutcome | None, swap: ConfigOutcome | None
) -> Verdict:
    """A pair's verdict from its I, II, III and IV outcomes, each None when its
    call was not made or failed: positive when III and IV are correct and
    negative when both are wrong, if I is correct and II wrong; else undetermined."""
    if full is None or drop is None or add is None or swap is None or not full.correct or drop.correct:
        return Verdict.UNDETERMINED
    if add.correct == swap.correct:
        return Verdict.POSITIVE if add.correct else Verdict.NEGATIVE
    return Verdict.UNDETERMINED


def mine_question(example: QAExample, predictor) -> tuple[list[SilverLabel], list[ConfigOutcome]]:
    """Both kinds of label for one question, from one reader pass, and the
    question's reader-call log.

    Predicts I once and II once per retrieved passage, which both kinds
    share; III and IV only for gated pairs. Returns the evidentiality labels
    by retrieved index, then the consistency labels by (generated, retrieved)
    index, and one outcome per reader call that answered, in call order. A
    failed reader call is logged as a warning and leaves the labels that need
    it undetermined.
    """
    if example.n < 2:
        raise ContractViolation(f"{clipped(example.question_id)}: leave-one-out mining needs N >= 2")
    qid = example.question_id
    blocks = [chain.text() for chain in example.retrieved]
    log: list[ConfigOutcome] = []
    checked: dict[str, bool] = {}  # prediction -> whether it matches an answer, checked once per question

    def attempt(config: Config, passages: list[str], lp: int | None = None, rp: int | None = None):
        """The outcome of one reader call, appended to the log, or None when the call fails."""
        try:
            prediction = predictor.predict(PredictRequest(question=example.question, passages=tuple(passages)))
        except PipelineError as exc:
            logger.warning("%s: config %s failed (lp %s, rp %s): %s", clipped(qid), config.value, lp, rp, exc)
            return None
        correct = checked.get(prediction)
        if correct is None:
            correct = checked[prediction] = exact_match(prediction, example.answers)
        log.append(ConfigOutcome(config, prediction, correct, lp, rp))
        return log[-1]

    full = attempt(Config.I_FULL, blocks)
    drops = [None] * example.n
    if full is not None:
        drops = [attempt(Config.II_DROP_RP, blocks[:j] + blocks[j + 1 :], rp=j) for j in range(example.n)]
    labels = []
    for j, drop in enumerate(drops):
        verdict = Verdict.UNDETERMINED if drop is None else evidentiality_verdict(full.correct, drop.correct)
        labels.append(SilverLabel(qid, LabelKind.EVIDENTIALITY, j, verdict))
    adds: dict[int, ConfigOutcome | None] = {}
    for i in range(example.m):
        for j, drop in enumerate(drops):
            add = swap = None
            if drop is not None and full.correct and not drop.correct:
                lp_block = example.generated[i].text()
                if i not in adds:
                    adds[i] = attempt(Config.III_ADD_LP, blocks + [lp_block], lp=i)
                add = adds[i]
                if add is not None:
                    swap = attempt(Config.IV_SWAP_LP_FOR_RP, blocks[:j] + blocks[j + 1 :] + [lp_block], lp=i, rp=j)
            verdict = consistency_verdict(full, drop, add, swap)
            labels.append(SilverLabel(qid, LabelKind.CONSISTENCY, j, verdict, i))
    return labels, log


def label_to_training_record(label: SilverLabel, example: QAExample) -> dict:
    value = 1 if label.verdict is Verdict.POSITIVE else 0
    if label.kind is LabelKind.EVIDENTIALITY:
        return {
            "question": example.question,
            "retrieved": example.retrieved[label.rp_index].text(),
            "label": value,
        }
    return {
        "question": example.question,
        "generated": example.generated[label.lp_index].text(),
        "retrieved": example.retrieved[label.rp_index].text(),
        "label": value,
    }


def emit_training_records(
    labels: Sequence[SilverLabel],
    out: str | Path,
    examples: Iterable[QAExample],
) -> Counter:
    """Write classifier-ready records for labels of one kind to ``out``,
    dropping undetermined labels. Returns counts per emitted class for
    downstream loss weighting.
    """
    by_id = {ex.question_id: ex for ex in examples}
    counts: Counter = Counter({1: 0, 0: 0})

    def records():
        for label in labels:
            if label.verdict is Verdict.UNDETERMINED:
                continue
            record = label_to_training_record(label, by_id[label.question_id])
            counts[record["label"]] += 1
            yield record

    write_jsonl(out, records())
    return counts


def audit_record(question_id: str, log: Sequence[ConfigOutcome]) -> dict:
    """A question's reader-call log as one record: entry k of each list is
    the k-th call that answered, in call order."""
    return {
        "question_id": question_id,
        "config": [outcome.config.value for outcome in log],
        "lp_index": [outcome.lp_index for outcome in log],
        "rp_index": [outcome.rp_index for outcome in log],
        "prediction": [outcome.prediction for outcome in log],
        "correct": [outcome.correct for outcome in log],
    }
