from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairqa.errors import ContractViolation, TransportError
from pairqa.providers import ScoreKind
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

    def score_many(self, reqs):
        return [self.score(req) for req in reqs]


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
    def test_call_counts_for_ten_by_ten(self):
        scorer = CountingScorer()
        matrix = build_matrix(ten_by_ten_example(), scorer, CombineMode.CUTOFF)
        assert scorer.evid_calls == 10
        assert scorer.cons_calls == 100
        assert matrix.m == matrix.n == 10

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

            def score_many(self, reqs):
                return map(self.score, reqs)

        with pytest.raises(TransportError, match="status 400"):
            build_matrix(make_example(), FailingScorer(), CombineMode.CUTOFF)

    def test_empty_pool_is_a_contract_violation(self):
        example = make_example()
        from dataclasses import replace

        with pytest.raises(ContractViolation):
            build_matrix(replace(example, generated=()), CountingScorer(), CombineMode.CUTOFF)


class TestDumpRoundTrip:
    def test_dump_store_round_trip(self, tmp_path):
        example = ten_by_ten_example()
        scorer = CountingScorer(
            evidentiality={f"retrieved passage {j}": j / 10 for j in range(10)},
            consistency={
                (f"generated claim {i}", f"retrieved passage {j}"): (i * 10 + j) / 100 for i in range(10) for j in range(10)
            },
        )
        for mode in CombineMode:
            matrix = build_matrix(example, scorer, mode)
            dump = tmp_path / "matrices.jsonl"
            write_matrix_dump(dump, [matrix])

            loaded = list(load_matrix_dump(dump).values())
            assert len(loaded) == 1
            assert loaded[0].combined_grid() == matrix.combined_grid()
            assert loaded[0].mode is mode
            assert loaded[0] == matrix

    def test_missing_cells_rejected_on_load(self, tmp_path):
        from pairqa.lineio import write_jsonl

        dump = tmp_path / "m.jsonl"
        record = {"question_id": "q", "mode": "cutoff", "evidentiality": [1, 1], "consistency": [[1, 1], [1]]}
        write_jsonl(dump, [record])
        with pytest.raises(ContractViolation, match="m.jsonl line 1: .*ragged"):
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
