from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairqa.cli import main
from pairqa.corpus import HopType, write_examples
from pairqa.errors import ContractViolation, TransportError
from pairqa.lineio import dumps_canonical, write_jsonl
from pairqa.matching import Strategy
from pairqa.providers import LexicalMockScorer, ScoreKind, ScoreRequest
from pairqa.scoring import (
    CombineMode,
    CompatibilityMatrix,
    PairType,
    build_matrix,
    classify_pair,
    combine,
    load_matrix_dump,
    write_matrix_dump,
)

from pairqa.sim import SynthSpec, generate_corpus, write_truth

from conftest import make_example


class CountingScorer:
    """Deterministic scorer that records every query it answers; its
    probabilities are keyed by passage texts."""

    def __init__(self, evidentiality=None, consistency=None):
        self.evid_calls = 0
        self.cons_calls = 0
        self.evidentiality = evidentiality or {}
        self.consistency = consistency or {}

    def score(self, req):
        if req.kind is ScoreKind.EVIDENTIALITY:
            self.evid_calls += 1
            return self.evidentiality.get(req.retrieved_text, 0.9)
        self.cons_calls += 1
        return self.consistency.get((req.generated_text, req.retrieved_text), 0.7)


class TestCombine:
    @pytest.mark.parametrize(
        "evid,cons,expected",
        [
            (0.4, 0.99, 0.0),
            (0.5, 0.8, 0.0),  # the gate is strictly greater-than
            (0.51, 0.6, 0.6),
            (1.0, 1.0, 1.0),
            (0.6, 0.0, 0.0),
        ],
    )
    def test_cutoff(self, evid, cons, expected):
        assert combine(evid, cons, CombineMode.CUTOFF) == expected

    def test_product(self):
        assert combine(0.9, 0.7, CombineMode.PRODUCT) == 0.9 * 0.7
        assert combine(0.9, 0.7, CombineMode.PRODUCT) == pytest.approx(0.63)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_cutoff_equals_indicator_form(self, evid, cons):
        assert combine(evid, cons, CombineMode.CUTOFF) == cons * (evid > 0.5)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_product_bounded_by_min(self, evid, cons):
        assert combine(evid, cons, CombineMode.PRODUCT) <= min(evid, cons) + 1e-15


class TestCompatibilityMatrix:
    @pytest.mark.parametrize(
        "evidentiality,consistency,message",
        [
            ((float("nan"),), ((0.5,),), "evidentiality nan outside [0,1]"),
            ((-0.1,), ((0.5,),), "evidentiality -0.1 outside [0,1]"),
            ((0.5,), ((1.2,),), "consistency 1.2 outside [0,1]"),
            ((2.0,), ((2.0,),), "evidentiality 2.0 outside [0,1]"),
            ((0.5, 0.5), ((0.5, 0.5), (0.5,)), "ragged or empty grid: rows of [1, 2] values, 2 retrieved passages"),
            ((), (), "ragged or empty grid: rows of [] values, 0 retrieved passages"),
        ],
        ids=["nan", "negative", "above-one", "both-above-one", "ragged", "empty"],
    )
    def test_construction_rejects(self, evidentiality, consistency, message):
        with pytest.raises(ContractViolation, match=re.escape(message)):
            CompatibilityMatrix("q1", evidentiality, consistency, CombineMode.CUTOFF)

    @pytest.mark.parametrize(
        "evidentiality,mode",
        [((0.9, 0.2), CombineMode.CUTOFF), ((0.2, 0.2), CombineMode.PRODUCT), ((0.9, 0.9), CombineMode.PRODUCT)],
        ids=["evidential-column", "product-non-evidential", "product-evidential"],
    )
    def test_none_where_the_combined_score_reads_rejected(self, evidentiality, mode):
        with pytest.raises(ContractViolation, match=f"consistency None in a column that {mode.value} mode reads"):
            CompatibilityMatrix("q1", evidentiality, ((0.5, 0.5), (None, 0.5)), mode)

    @pytest.mark.parametrize("evidentiality", [(0.5, 0.9), (0.0, 0.9)], ids=["at-the-gate", "below-the-gate"])
    def test_none_accepted_only_in_a_cutoff_non_evidential_column(self, evidentiality):
        matrix = CompatibilityMatrix("q1", evidentiality, ((None, 0.7), (None, 0.2)), CombineMode.CUTOFF)
        assert matrix.combined_grid() == [[0.0, 0.7], [0.0, 0.2]]
        assert [matrix.pair_type(i, 0) for i in range(2)] == [PairType.NON_EVIDENTIAL] * 2
        with pytest.raises(ContractViolation, match=r"consistency 1\.5 outside \[0,1\]"):
            CompatibilityMatrix("q1", evidentiality, ((None, 0.7), (None, 1.5)), CombineMode.CUTOFF)


class TestClassifyPair:
    def test_rules(self):
        assert classify_pair(0.3, 0.9) is PairType.NON_EVIDENTIAL
        assert classify_pair(0.9, 0.2) is PairType.CONFLICTING
        assert classify_pair(0.9, 0.9) is PairType.COMPATIBLE

    def test_boundaries_fall_away_from_compatible(self):
        assert classify_pair(0.5, 0.9) is PairType.NON_EVIDENTIAL
        assert classify_pair(0.9, 0.5) is PairType.CONFLICTING

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_partition(self, evid, cons):
        kind = classify_pair(evid, cons)
        assert isinstance(kind, PairType)
        if kind is PairType.COMPATIBLE:
            assert combine(evid, cons, CombineMode.CUTOFF) > 0.5


def ten_by_ten_example():
    return make_example(
        retrieved_texts=tuple(f"retrieved passage {j}" for j in range(10)),
        generated_texts=tuple(f"generated claim {i}" for i in range(10)),
    )


class TestBuildMatrix:
    @pytest.mark.parametrize(
        "mode,closed,consistency_calls",
        [
            (CombineMode.CUTOFF, (), 100),
            (CombineMode.CUTOFF, (0, 4, 9), 70),
            (CombineMode.CUTOFF, tuple(range(10)), 0),
            (CombineMode.PRODUCT, (0, 4, 9), 100),
        ],
        ids=["cutoff-all-open", "cutoff-three-closed", "cutoff-all-closed", "product"],
    )
    def test_call_counts_for_ten_by_ten(self, mode, closed, consistency_calls):
        """N evidentiality calls, then M per column the combined score reads."""
        scorer = CountingScorer(evidentiality={f"retrieved passage {j}": 0.5 for j in closed})
        matrix = build_matrix(ten_by_ten_example(), scorer, mode)
        assert scorer.evid_calls == 10
        assert scorer.cons_calls == consistency_calls
        assert matrix.m == matrix.n == 10
        unscored = {(i, j) for i, row in enumerate(matrix.consistency) for j, p in enumerate(row) if p is None}
        assert unscored == ({(i, j) for i in range(10) for j in closed} if mode is CombineMode.CUTOFF else set())

    def test_single_cell_cutoff_and_product(self):
        example = make_example(retrieved_texts=("r",), generated_texts=("g",))
        cutoff = build_matrix(example, CountingScorer(), CombineMode.CUTOFF)
        assert cutoff.combined_grid() == [[0.7]]
        product = build_matrix(example, CountingScorer(), CombineMode.PRODUCT)
        assert product.combined_grid() == [[0.9 * 0.7]]

    def test_column_constancy(self):
        scorer = CountingScorer(evidentiality={f"retrieved passage {j}": j / 10 for j in range(10)})
        matrix = build_matrix(ten_by_ten_example(), scorer, CombineMode.PRODUCT)
        # one evidentiality value per retrieved passage, shared by its column's cells
        assert matrix.evidentiality == tuple(j / 10 for j in range(10))
        grid = matrix.combined_grid()
        for j in range(matrix.n):
            column = {grid[i][j] / matrix.consistency[i][j] for i in range(matrix.m)}
            assert len(column) == 1

    def test_scorer_failure_propagates(self):
        class FailingScorer:
            def score(self, req):
                raise TransportError("POST http://scorer failed with status 400; not retried")

        with pytest.raises(TransportError, match="status 400"):
            build_matrix(make_example(), FailingScorer(), CombineMode.CUTOFF)

    def test_empty_pool_is_a_contract_violation(self):
        example = make_example()
        from dataclasses import replace

        with pytest.raises(ContractViolation):
            build_matrix(replace(example, generated=()), CountingScorer(), CombineMode.CUTOFF)


class TestDumpRoundTrip:
    @staticmethod
    def graded_scorer():
        """Evidentiality j/10 for retrieved passage j, so columns 6 to 9 are
        open to the cutoff, and consistency (10i + j)/100 for the pair (i, j)."""
        return CountingScorer(
            evidentiality={f"retrieved passage {j}": j / 10 for j in range(10)},
            consistency={
                (f"generated claim {i}", f"retrieved passage {j}"): (i * 10 + j) / 100 for i in range(10) for j in range(10)
            },
        )

    def test_dump_store_round_trip(self, tmp_path):
        example, scorer = ten_by_ten_example(), self.graded_scorer()
        for mode in CombineMode:
            matrix = build_matrix(example, scorer, mode)
            dump = tmp_path / "matrices.jsonl"
            write_matrix_dump(dump, [matrix])

            loaded = list(load_matrix_dump(dump).values())
            assert len(loaded) == 1
            assert loaded[0].combined_grid() == matrix.combined_grid()
            assert loaded[0].mode is mode
            assert loaded[0] == matrix

    def test_a_dump_row_holds_the_scored_cells(self, tmp_path):
        """A cutoff row holds the open columns' cells; a product dump is the full
        grid, byte for byte the record of every cell, as dumps were written before."""
        dump = tmp_path / "matrices.jsonl"
        full = [[(i * 10 + j) / 100 for j in range(10)] for i in range(10)]
        for mode, columns in ((CombineMode.CUTOFF, range(6, 10)), (CombineMode.PRODUCT, range(10))):
            write_matrix_dump(dump, [build_matrix(ten_by_ten_example(), self.graded_scorer(), mode)])
            record = {"question_id": "q1", "mode": mode.value, "evidentiality": [j / 10 for j in range(10)]}
            record["consistency"] = [[row[j] for j in columns] for row in full]
            assert dump.read_text() == dumps_canonical(record) + "\n"
        closed = CountingScorer(evidentiality={f"retrieved passage {j}": 0.1 for j in range(10)})
        write_matrix_dump(dump, [build_matrix(ten_by_ten_example(), closed, CombineMode.CUTOFF)])
        assert json.loads(dump.read_text())["consistency"] == [[]] * 10
        assert load_matrix_dump(dump)["q1"].consistency == ((None,) * 10,) * 10

    def test_a_full_grid_cutoff_dump_loads_to_the_same_combined_scores(self, tmp_path):
        """A cutoff dump of every cell, as an external scorer may store, loads
        as it stands: its closed cells are kept but never read."""
        example, scorer = ten_by_ten_example(), self.graded_scorer()
        compact = build_matrix(example, scorer, CombineMode.CUTOFF)
        full = build_matrix(example, scorer, CombineMode.PRODUCT)
        dump = tmp_path / "full.jsonl"
        write_jsonl(dump, [{**full.to_record(), "mode": "cutoff"}])
        loaded = load_matrix_dump(dump)["q1"]
        assert loaded.consistency == full.consistency
        assert loaded.combined_grid() == compact.combined_grid()
        assert [[loaded.pair_type(i, j) for j in range(10)] for i in range(10)] == [
            [compact.pair_type(i, j) for j in range(10)] for i in range(10)
        ]

    def test_missing_cells_rejected_on_load(self, tmp_path):
        from pairqa.lineio import write_jsonl

        dump = tmp_path / "m.jsonl"
        record = {"question_id": "q", "mode": "cutoff", "evidentiality": [1, 1], "consistency": [[1, 1], [1]]}
        write_jsonl(dump, [record])
        with pytest.raises(ContractViolation, match="m.jsonl line 1: .*row of 1 values for 2 columns, 2 open"):
            load_matrix_dump(dump)

    def test_failed_write_keeps_the_previous_dump(self, tmp_path):
        from pairqa.lineio import write_jsonl

        dump = tmp_path / "m.jsonl"
        write_jsonl(dump, [{"a": 1}])

        def records():
            yield {"a": 2}
            raise TransportError("POST http://scorer failed after 4 attempts")

        with pytest.raises(TransportError):
            write_jsonl(dump, records())
        assert dump.read_text() == '{"a":1}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["m.jsonl"]


def _full_grid_dump(path: Path, examples, mode: CombineMode) -> None:
    """The oracle: every cell of every question scored one by one by the
    lexical scorer, each row of all N values."""
    scorer = LexicalMockScorer.from_examples(examples)
    records = []
    for ex in examples:
        retrieved = [rp.text() for rp in ex.retrieved]
        score = lambda kind, r, g: scorer.score(ScoreRequest(kind, ex.question, r, g, ex.question_id))
        evidentiality = [score(ScoreKind.EVIDENTIALITY, r, None) for r in retrieved]
        consistency = [[score(ScoreKind.CONSISTENCY, r, lp.text()) for r in retrieved] for lp in ex.generated]
        record = {"question_id": ex.question_id, "mode": mode.value, "evidentiality": evidentiality}
        records.append({**record, "consistency": consistency})
    write_jsonl(path, records)


@pytest.mark.parametrize("mode", list(CombineMode), ids=[m.value for m in CombineMode])
@pytest.mark.parametrize("single_pivot", [True, False], ids=["single-pivot", "multi-pivot"])
def test_stages_read_the_gated_dump_as_the_full_grid(tmp_path, single_pivot, mode):
    """``score`` (at --workers 4) and every later stage, each strategy: every
    output but the dump is byte-identical to the full-grid oracle's (at
    --workers 1), and a product dump is the oracle's itself."""
    spec = SynthSpec(
        num_questions=16, n=5, m=4, seed=9, single_pivot=single_pivot,
        p_retrieved_evidential=0.5, p_llm_hallucinated=0.5, hop_type=HopType.SINGLE_HOP,
    )  # fmt: skip
    examples, truth = generate_corpus(spec)
    dataset, truth_path, oracle = tmp_path / "corpus.jsonl", tmp_path / "truth.jsonl", tmp_path / "oracle.jsonl"
    write_examples(dataset, examples)
    write_truth(truth_path, truth)
    _full_grid_dump(oracle, examples, mode)
    flags = ["--dataset", dataset, "--scoring.mode", mode.value, "--predictor.truth", truth_path]
    gated = tmp_path / "gated" / "matrices.jsonl"
    assert main([str(a) for a in ["score", *flags, "--out", gated.parent, "--workers", 4, "--strict"]]) == 0
    if mode is CombineMode.PRODUCT:
        assert gated.read_bytes() == oracle.read_bytes()
    else:
        assert len(gated.read_bytes()) < len(oracle.read_bytes())
    for strategy in Strategy:
        trees = []
        for name, dump, workers in (("gated", gated, 4), ("oracle", oracle, 1)):
            out = tmp_path / f"{name}-{strategy.value}"
            common = [*flags, "--out", out, "--workers", workers, "--strict"]
            for stage in (["match", "--matching.matrices", dump, "--strategy", strategy.value], ["serialize"], ["mine"]):
                assert main([str(a) for a in [*stage, *common]]) == 0
            assert main([str(a) for a in ["analyze", *common, "--analyze.matrices", dump]]) == 0
            trees.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert trees[0] == trees[1]
        assert {"matchings.jsonl", "reader_inputs.jsonl", "labels.consistency.jsonl", "pair_types.jsonl"} <= trees[0].keys()
