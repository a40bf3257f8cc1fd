from __future__ import annotations

import random

import pytest

from pairqa.analysis import (
    BIN_EDGES,
    ConflictStats,
    bin_index,
    bin_report,
    bin_report_rows,
    conflicting_rate,
    format_bin_report,
    label_confusion,
    pair_type_distribution,
)
from pairqa.errors import ContractViolation
from pairqa.scoring import CombineMode, CompatibilityMatrix, PairType

from conftest import make_chain
from pairqa.corpus import QAExample


def example_with_counts(n, m, n_a, m_a, question_id="q1"):
    """n retrieved / m generated chains, of which n_a / m_a contain the answer."""
    answer = "gold token"
    retrieved = tuple(
        make_chain(
            f"passage {j} mentions {answer}" if j < n_a else f"passage {j} is unrelated",
            f"r{j}",
        )
        for j in range(n)
    )
    generated = tuple(
        make_chain(
            f"claim {i} mentions {answer}" if i < m_a else f"claim {i} says wrong thing",
            f"g{i}",
        )
        for i in range(m)
    )
    return QAExample(
        question_id=question_id,
        question="which token",
        answers=(answer,),
        retrieved=retrieved,
        generated=generated,
    )


class TestConflictingRate:
    def test_direct_substitution(self):
        stats = conflicting_rate(example_with_counts(10, 10, 5, 3))
        assert stats.n_a == 5 and stats.m_a == 3
        assert stats.conflicting_rate == 5 * 7 / 100 == 0.35

    def test_zero_numerator_cases(self):
        assert conflicting_rate(example_with_counts(4, 4, 0, 2)).conflicting_rate == 0.0
        assert conflicting_rate(example_with_counts(4, 4, 2, 4)).conflicting_rate == 0.0

    def test_permutation_invariance(self):
        from dataclasses import replace

        example = example_with_counts(10, 10, 5, 3)
        base = conflicting_rate(example).conflicting_rate
        rng = random.Random(0)
        for _ in range(100):
            retrieved = list(example.retrieved)
            generated = list(example.generated)
            rng.shuffle(retrieved)
            rng.shuffle(generated)
            shuffled = replace(example, retrieved=tuple(retrieved), generated=tuple(generated))
            assert conflicting_rate(shuffled).conflicting_rate == base

    def test_empty_pool_named_in_error(self):
        from dataclasses import replace

        example = example_with_counts(2, 2, 1, 1)
        with pytest.raises(ContractViolation, match="generated"):
            conflicting_rate(replace(example, generated=()))


class TestBinIndex:
    @pytest.mark.parametrize(
        "rate,expected",
        [(0.05, 0), (0.15, 1), (0.25, 2), (0.35, 3), (0.45, 4), (0.75, 5)],
    )
    def test_membership(self, rate, expected):
        assert bin_index(rate) == expected

    def test_boundaries(self):
        assert bin_index(0.0) == 0
        assert bin_index(0.1) == 1  # left-closed bins
        assert bin_index(0.5) == 5
        assert bin_index(1.0) == 5  # last bin is closed


def _stats(qid, rate):
    return ConflictStats(question_id=qid, n=10, m=10, n_a=1, m_a=1, conflicting_rate=rate)


class TestBinReport:
    # Populations follow the published distribution at 20x scale, which
    # makes every subset fraction exact; the first bin's EM count (545 of
    # 1124) reproduces 48.5 at one-decimal display precision.
    POPULATIONS = (1124, 454, 310, 36, 44, 32)
    FIRST_BIN_CORRECT = 545

    def _fixture(self):
        examples, stats, predictions = [], [], {"combo": {}}
        qid = 0
        for bin_idx, population in enumerate(self.POPULATIONS):
            rate = BIN_EDGES[bin_idx][0] + 0.05
            correct = self.FIRST_BIN_CORRECT if bin_idx == 0 else population // 2
            for k in range(population):
                name = f"q{qid:05d}"
                qid += 1
                examples.append(
                    QAExample(
                        question_id=name,
                        question="q",
                        answers=("yes",),
                        retrieved=(make_chain("text", "r0"),),
                        generated=(make_chain("text", "g0"),),
                    )
                )
                stats.append(_stats(name, rate))
                predictions["combo"][name] = "yes" if k < correct else "no"
        return examples, stats, predictions

    def test_published_first_row_shape(self):
        examples, stats, predictions = self._fixture()
        bins = bin_report(stats, predictions, examples)
        first = bins[0]
        assert len(stats) == 2000
        assert first.subset_fraction == 1124 / 2000 == 0.562
        assert round(100 * first.em_by_method["combo"], 1) == 48.5

    def test_populations_sum_to_total(self):
        examples, stats, predictions = self._fixture()
        bins = bin_report(stats, predictions, examples)
        assert sum(b.count for b in bins) == len(stats)
        assert sum(b.subset_fraction for b in bins) == pytest.approx(1.0, abs=1e-9)

    def test_em_is_plain_mean_of_booleans(self):
        examples, stats, predictions = self._fixture()
        bins = bin_report(stats, predictions, examples)
        for idx, b in enumerate(bins):
            correct = self.FIRST_BIN_CORRECT if idx == 0 else self.POPULATIONS[idx] // 2
            assert b.em_by_method["combo"] == correct / self.POPULATIONS[idx]

    def test_single_bin_when_all_rates_zero(self):
        examples = [example_with_counts(2, 2, 0, 0, f"q{k}") for k in range(5)]
        stats = [conflicting_rate(ex) for ex in examples]
        predictions = {"m": {ex.question_id: "gold token" for ex in examples}}
        bins = bin_report(stats, predictions, examples)
        assert bins[0].subset_fraction == 1.0
        assert all(b.count == 0 for b in bins[1:])

    def test_rows_and_table_rendering(self):
        examples, stats, predictions = self._fixture()
        bins = bin_report(stats, predictions, examples)
        rows = list(bin_report_rows(bins))
        assert len(rows) == len(BIN_EDGES)
        assert {"bin_lower", "bin_upper", "fraction", "method", "em"} == set(rows[0])
        table = format_bin_report(bins)
        assert "EM(combo)" in table


def matrix_from_grid(evidentiality, consistency, qid="q1"):
    """One evidentiality value per column, one consistency value per cell."""
    return CompatibilityMatrix(
        question_id=qid,
        evidentiality=tuple(evidentiality),
        consistency=tuple(tuple(row) for row in consistency),
        mode=CombineMode.CUTOFF,
    )


class TestPairTypeDistribution:
    def test_all_compatible(self):
        matrix = matrix_from_grid([0.9, 0.8], [[0.9, 0.8], [0.7, 0.9]])
        dist = pair_type_distribution([matrix])
        assert dist[PairType.COMPATIBLE] == 1.0

    def test_single_cell_non_evidential(self):
        dist = pair_type_distribution([matrix_from_grid([0.3], [[0.9]])])
        assert dist == {
            PairType.COMPATIBLE: 0.0,
            PairType.CONFLICTING: 0.0,
            PairType.NON_EVIDENTIAL: 1.0,
        }

    def test_hand_counted_mixture(self):
        # column 0: compatible twice; column 1: conflicting (0.2), then
        # compatible (0.7); columns 2 and 3 are non-evidential (0.3, and 0.5
        # on the gate), whatever their consistency
        matrix = matrix_from_grid([0.9, 0.6, 0.3, 0.5], [[0.9, 0.2, 0.9, 0.9], [0.8, 0.7, 0.1, 0.4]])
        dist = pair_type_distribution([matrix])
        assert dist[PairType.COMPATIBLE] == 3 / 8
        assert dist[PairType.CONFLICTING] == 1 / 8
        assert dist[PairType.NON_EVIDENTIAL] == 4 / 8

    def test_fractions_sum_to_one(self):
        rng = random.Random(5)
        matrices = [
            matrix_from_grid(
                [rng.random() for _ in range(4)], [[rng.random() for _ in range(4)] for _ in range(3)], f"q{k}"
            )
            for k in range(10)
        ]
        dist = pair_type_distribution(matrices)
        assert abs(sum(dist.values()) - 1.0) < 1e-12


class TestLabelConfusion:
    def test_identical_lists(self):
        labels = [PairType.COMPATIBLE, PairType.CONFLICTING, PairType.NON_EVIDENTIAL] * 50
        counts, accuracy = label_confusion(labels, list(labels))
        assert accuracy == 1.0
        assert sum(counts[p][a] for p in PairType for a in PairType) == 150

    def test_paper_shaped_fixture(self):
        # 150 annotated pairs with 117 agreements: accuracy exactly 0.78
        predicted, annotated = [], []
        cycle = [PairType.COMPATIBLE, PairType.CONFLICTING, PairType.NON_EVIDENTIAL]
        for k in range(150):
            p = cycle[k % 3]
            predicted.append(p)
            annotated.append(p if k < 117 else cycle[(k + 1) % 3])
        counts, accuracy = label_confusion(predicted, annotated)
        assert accuracy == 117 / 150 == 0.78
