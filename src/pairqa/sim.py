"""Synthetic corpora with known ground truth, plus a noiseless mock reader.

Every synthetic question gets a unique gold answer token and a unique
distractor token. Retrieved chains either contain the gold token
(evidential) or neither token; generated chains contain the gold token
(faithful) or the distractor (hallucinated, but always plausible). All
draws come from a per-question RNG stream whose draw order does not
depend on the parameters, so sweeping a probability while holding the
seed fixed changes each chain's flag monotonically.

The mock reader answers with the gold token when the input contains at
least one supporting chain and no hallucinated generated chain; a
hallucinated chain always misleads it to the distractor. That determinism
makes mined silver labels exactly checkable against the ground truth. It
finds the chains in a block that is exactly one chain text through a
per-question index, built on the question's first lookup, and scans the
question's chains for any other block, so both give the same chains.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import HopType, PassageChain, QAExample, Source, named_chain
from .errors import ContractViolation
from .lineio import boolean, clipped, member, quoted, read_keyed, string, write_jsonl
from .providers import PredictRequest


@dataclass(slots=True)
class SynthSpec:
    """The shape of a synthetic corpus. ``pairqa.cli.FIELDS`` holds the
    defaults of its ``simulate`` fields and checks their ranges where a
    config value enters; the spec checks nothing again."""

    num_questions: int
    n: int
    m: int
    p_retrieved_evidential: float
    p_llm_hallucinated: float
    seed: int
    hop_type: HopType
    single_pivot: bool


@dataclass(slots=True)
class ChainTruth:
    chain_id: str
    source: Source
    text: str
    supports: bool  # evidential (retrieved) / faithful (generated)


@dataclass(slots=True)
class QuestionTruth:
    question_id: str
    question: str
    gold: str
    distractor: str
    chains: dict[str, ChainTruth]


@dataclass(slots=True)
class GroundTruth:
    questions: dict[str, QuestionTruth] = field(default_factory=dict)
    _by_question_text: dict[str, str] = field(init=False, repr=False, compare=False)
    # question id -> chain text -> the question's chains that text contains. A question's
    # entry is built on its first lookup; threads that race build equal dicts.
    _index: dict[str, dict[str, list[ChainTruth]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_question_text = {qt.question: qid for qid, qt in self.questions.items()}
        self._index = {}

    def for_question_text(self, question: str) -> QuestionTruth:
        qid = self._by_question_text.get(question)
        if qid is None:
            raise ContractViolation(f"unknown synthetic question {quoted(question)}")
        return self.questions[qid]

    def chains_in(self, qt: QuestionTruth, block: str) -> list[ChainTruth]:
        """The chains of ``qt`` whose text ``block`` contains: looked up when
        ``block`` is one chain text of ``qt``, else found by a scan."""
        index = self._index.get(qt.question_id)
        if index is None:
            index = self._index[qt.question_id] = {ct.text: _scan(qt, ct.text) for ct in qt.chains.values()}
        hit = index.get(block)
        return _scan(qt, block) if hit is None else hit

    def check(self, examples: Sequence[QAExample], path: str | Path) -> None:
        """ContractViolation naming the truth file ``path`` unless the reader can
        answer every example's blocks: each example needs a truth record with its
        question text, and each of its chain texts must contain a chain text of it."""
        bad = []
        for ex in examples:
            qt = self.questions.get(self._by_question_text.get(ex.question))
            if qt is None or not all(self.chains_in(qt, c.text()) for c in ex.retrieved + ex.generated):
                bad.append(ex.question_id)
        if bad:
            raise ContractViolation(
                f"truth file {path} does not match {len(bad)} of {len(examples)} dataset questions"
                f" (first {clipped(bad[0])})"
            )


def _scan(qt: QuestionTruth, block: str) -> list[ChainTruth]:
    """The chains of ``qt`` whose text ``block`` contains."""
    return [ct for ct in qt.chains.values() if ct.text in block]


def _make_chain(qid: str, cid: str, body: str, hop_type: HopType) -> PassageChain:
    texts = (f"{cid} hop one links {qid} to its record", body) if hop_type.is_multi_hop else (body,)
    return named_chain(cid, texts)


def generate_corpus(spec: SynthSpec) -> tuple[list[QAExample], GroundTruth]:
    """Deterministic corpus + ground truth from ``spec.seed``.

    In single-pivot mode exactly one retrieved chain per question is
    evidential (``p_retrieved_evidential`` is ignored), which is the
    regime where leave-one-out mining has full coverage.
    """
    examples = []
    truths: dict[str, QuestionTruth] = {}
    for q in range(spec.num_questions):
        rng = random.Random(f"{spec.seed}:{q}")
        qid = f"q{q:05d}"
        gold = f"gold{q:05d}"
        distractor = f"wrong{q:05d}"
        question = f"which entity is referenced by record {q:05d}"
        pivot = rng.randrange(spec.n)
        chains: dict[str, ChainTruth] = {}

        retrieved = []
        for j in range(spec.n):
            u = rng.random()
            evidential = (j == pivot) if spec.single_pivot else (u < spec.p_retrieved_evidential)
            cid = f"{qid}-r{j}"
            if evidential:
                body = f"source {cid} states that the entity is {gold}"
            else:
                body = f"source {cid} discusses an unrelated topic instead"
            chain = _make_chain(qid, cid, body, spec.hop_type)
            retrieved.append(chain)
            chains[cid] = ChainTruth(cid, Source.RETRIEVED, chain.text(), evidential)

        generated = []
        for i in range(spec.m):
            u = rng.random()
            hallucinated = u < spec.p_llm_hallucinated
            cid = f"{qid}-g{i}"
            claimed = distractor if hallucinated else gold
            body = f"model account {cid} claims that the entity is {claimed}"
            chain = _make_chain(qid, cid, body, spec.hop_type)
            generated.append(chain)
            chains[cid] = ChainTruth(cid, Source.LLM_GENERATED, chain.text(), not hallucinated)

        examples.append(
            QAExample(
                question_id=qid,
                question=question,
                answers=(gold,),
                retrieved=tuple(retrieved),
                generated=tuple(generated),
                hop_type=spec.hop_type,
            )
        )
        truths[qid] = QuestionTruth(
            question_id=qid, question=question, gold=gold, distractor=distractor, chains=chains
        )
    return examples, GroundTruth(questions=truths)


def mock_predict(question: str, blocks: Sequence[str], truth: GroundTruth) -> str:
    """Noiseless set-based reader over ground-truth flags.

    Each block must contain the text of at least one known chain of the
    question; otherwise the call is a contract violation.
    """
    if not blocks:
        raise ContractViolation("mock predictor requires at least one block")
    qt = truth.for_question_text(question)
    supported = False
    misled = False
    for block in blocks:
        present = truth.chains_in(qt, block)
        if not present:
            raise ContractViolation(
                f"block for {clipped(qt.question_id)} does not contain any known chain text"
            )
        for ct in present:
            if ct.supports:
                supported = True
            elif ct.source is Source.LLM_GENERATED:
                misled = True
    return qt.gold if supported and not misled else qt.distractor


class SimPredictor:
    """Predictor backend over a GroundTruth (duck-typed like RemotePredictor)."""

    def __init__(self, truth: GroundTruth):
        self.truth = truth

    def predict(self, req: PredictRequest) -> str:
        return mock_predict(req.question, req.passages, self.truth)


def write_truth(path: str | Path, truth: GroundTruth) -> int:
    def records():
        for qid in sorted(truth.questions):
            qt = truth.questions[qid]
            yield {
                "question_id": qt.question_id,
                "question": qt.question,
                "gold": qt.gold,
                "distractor": qt.distractor,
                "chains": [
                    {
                        "id": ct.chain_id,
                        "source": ct.source.value,
                        "text": ct.text,
                        "supports": ct.supports,
                    }
                    for _, ct in sorted(qt.chains.items())
                ],
            }

    return write_jsonl(path, records())


def load_truth(path: str | Path) -> GroundTruth:
    """Read a truth file through ``read_keyed``. The sim reader finds a question's
    truth by its text, so a record whose text an earlier record holds is bad too."""
    holders: dict[str, str] = {}  # question text -> the question id that holds it

    def parse(rec: dict) -> QuestionTruth:
        qid, question = rec["question_id"], string(rec["question"])
        holder = holders.setdefault(question, qid)
        if holder != qid:
            raise ValueError(f"question_id {quoted(qid)} has the question text of {quoted(holder)}")
        chains = [
            ChainTruth(string(c["id"]), member(Source, c["source"]), string(c["text"]), boolean(c["supports"]))
            for c in rec["chains"]
        ]
        return QuestionTruth(
            question_id=qid,
            question=question,
            gold=string(rec["gold"]),
            distractor=string(rec["distractor"]),
            chains={ct.chain_id: ct for ct in chains},
        )

    return GroundTruth(questions=read_keyed(path, "truth", parse))
