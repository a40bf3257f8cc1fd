from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairqa.corpus import HopType, PassageChain
from pairqa.errors import ContractViolation
from pairqa.lineio import read_keyed, string
from pairqa.matching import PairMatching, Strategy
from pairqa.readerio import (
    Variant,
    default_budget,
    parse_pair_block,
    serialize_variant,
    write_reader_examples,
)

from conftest import make_chain, make_example


def matching_for(example, pairs):
    return PairMatching(
        question_id=example.question_id,
        strategy=Strategy.OPTIMAL,
        pairs=tuple(pairs),
        total_weight=sum(s for _, _, s in pairs),
    )


def tiny_example():
    return make_example(
        question="q",
        retrieved_texts=("b",),
        generated_texts=("a",),
    )


class TestPairwiseBlocks:
    def test_golden_block(self):
        example = tiny_example()
        matching = matching_for(example, [(0, 0, 1.0)])
        reader = serialize_variant(example, matching, Variant.PAIRWISE, 400)
        assert reader.blocks == ("question: q generated passage: a retrieved passage: b",)

    def test_block_order_follows_scores(self):
        example = make_example(
            question="q",
            retrieved_texts=("rp zero", "rp one"),
            generated_texts=("lp zero", "lp one"),
        )
        matching = matching_for(example, [(1, 1, 0.9), (0, 0, 0.2)])
        reader = serialize_variant(example, matching, Variant.PAIRWISE, 400)
        assert "lp one" in reader.blocks[0] and "lp zero" in reader.blocks[1]

    def test_budget_truncates_to_exact_token_count(self):
        example = make_example(
            question="q",
            retrieved_texts=(" ".join(f"r{k}" for k in range(10)),),
            generated_texts=(" ".join(f"g{k}" for k in range(10)),),
        )
        matching = matching_for(example, [(0, 0, 1.0)])
        reader = serialize_variant(example, matching, Variant.PAIRWISE, 6)
        assert len(reader.blocks[0].split()) == 6

    def test_budget_splits_room_between_passages(self):
        example = make_example(
            question="q",
            retrieved_texts=(" ".join(f"r{k}" for k in range(10)),),
            generated_texts=(" ".join(f"g{k}" for k in range(10)),),
        )
        matching = matching_for(example, [(0, 0, 1.0)])
        reader = serialize_variant(example, matching, Variant.PAIRWISE, 12)
        tokens = reader.blocks[0].split()
        assert len(tokens) == 12
        assert tokens.count("g0") == 1 and tokens.count("r0") == 1

    def test_titles_prepended(self):
        example = make_example()
        chain = make_chain("body text", "r0", title="Dolphins")
        from dataclasses import replace

        example = replace(example, retrieved=(chain,), generated=example.generated[:1])
        matching = matching_for(example, [(0, 0, 1.0)])
        reader = serialize_variant(example, matching, Variant.PAIRWISE, 400)
        assert "retrieved passage: Dolphins . body text" in reader.blocks[0]

    def test_out_of_range_pair_rejected(self):
        example = tiny_example()
        with pytest.raises(ContractViolation):
            serialize_variant(example, matching_for(example, [(0, 5, 1.0)]), Variant.PAIRWISE, 400)


class TestVariants:
    def _two_pair_example(self):
        example = make_example(
            question="what",
            retrieved_texts=("rp zero", "rp one"),
            generated_texts=("lp zero", "lp one"),
        )
        matching = matching_for(example, [(0, 0, 0.9), (1, 1, 0.4)])
        return example, matching

    def test_linearized_emits_two_blocks_per_pair(self):
        example, matching = self._two_pair_example()
        reader = serialize_variant(example, matching, Variant.LINEARIZED, budget=200)
        assert len(reader.blocks) == 4
        assert reader.blocks[0] == "question: what generated passage: lp zero"
        assert reader.blocks[1] == "question: what retrieved passage: rp zero"

    def test_shuffled_pairs_is_seed_deterministic(self):
        example, matching = self._two_pair_example()
        a = serialize_variant(example, matching, Variant.SHUFFLED_PAIRS, 400, seed=5)
        b = serialize_variant(example, matching, Variant.SHUFFLED_PAIRS, 400, seed=5)
        assert a.blocks == b.blocks
        base = serialize_variant(example, matching, Variant.PAIRWISE, 400)
        assert sorted(a.blocks) == sorted(base.blocks)

    def test_shuffled_within_pair_preserves_contents(self):
        example, matching = self._two_pair_example()
        reader = serialize_variant(example, matching, Variant.SHUFFLED_WITHIN_PAIR, 400, seed=3)
        for block, (lp_index, rp_index, _) in zip(reader.blocks, matching.pairs):
            question, lp, rp = parse_pair_block(block)
            assert question == "what"
            assert lp == example.generated[lp_index].text()
            assert rp == example.retrieved[rp_index].text()

    def test_shuffled_within_pair_produces_both_orders(self):
        example = make_example(
            question="q",
            retrieved_texts=tuple(f"rp {k}" for k in range(20)),
            generated_texts=tuple(f"lp {k}" for k in range(20)),
        )
        matching = matching_for(example, [(k, k, 1.0) for k in range(20)])
        reader = serialize_variant(example, matching, Variant.SHUFFLED_WITHIN_PAIR, 400, seed=11)
        orders = {block.find("generated passage:") < block.find("retrieved passage:") for block in reader.blocks}
        assert orders == {True, False}

    def test_pairwise_via_variant_dispatch(self):
        example, matching = self._two_pair_example()
        direct = serialize_variant(example, matching, Variant.PAIRWISE, 400)
        routed = serialize_variant(example, matching, Variant.PAIRWISE, 400, seed=9)
        assert direct.blocks == routed.blocks


class TestRoundTrip:
    def test_parse_recovers_fields(self):
        example = tiny_example()
        matching = matching_for(example, [(0, 0, 1.0)])
        block = serialize_variant(example, matching, Variant.PAIRWISE, 400).blocks[0]
        assert parse_pair_block(block) == ("q", "a", "b")

    @given(
        st.text(alphabet="abc d", min_size=1, max_size=30).filter(str.strip),
        st.text(alphabet="efg h", min_size=1, max_size=30).filter(str.strip),
        st.text(alphabet="ijk l", min_size=1, max_size=30).filter(str.strip),
    )
    def test_parse_round_trip_property(self, question, lp_text, rp_text):
        example = make_example(
            question=" ".join(question.split()),
            retrieved_texts=(" ".join(rp_text.split()),),
            generated_texts=(" ".join(lp_text.split()),),
        )
        matching = matching_for(example, [(0, 0, 1.0)])
        block = serialize_variant(example, matching, Variant.PAIRWISE, 10_000).blocks[0]
        parsed = parse_pair_block(block)
        assert parsed == (example.question, example.generated[0].text(), example.retrieved[0].text())

    @given(st.integers(6, 40))
    def test_budget_never_exceeded(self, budget):
        example = make_example(
            question="q",
            retrieved_texts=(" ".join(f"r{k}" for k in range(30)),),
            generated_texts=(" ".join(f"g{k}" for k in range(30)),),
        )
        matching = matching_for(example, [(0, 0, 1.0)])
        for variant in (Variant.PAIRWISE, Variant.LINEARIZED, Variant.SHUFFLED_WITHIN_PAIR):
            reader = serialize_variant(example, matching, variant, budget, seed=1)
            assert all(len(b.split()) <= budget for b in reader.blocks)


class TestDefaultBudget:
    @pytest.mark.parametrize(
        "hop,variant,expected",
        [
            (HopType.SINGLE_HOP, Variant.PAIRWISE, 400),
            (HopType.MULTI_HOP_BRIDGE, Variant.PAIRWISE, 1000),
            (HopType.MULTI_HOP_COMPARISON, Variant.PAIRWISE, 1000),
            (HopType.SINGLE_HOP, Variant.LINEARIZED, 200),
            (HopType.MULTI_HOP_BRIDGE, Variant.LINEARIZED, 500),
            (HopType.UNKNOWN, Variant.PAIRWISE, 400),
            (HopType.SINGLE_HOP, Variant.SHUFFLED_PAIRS, 400),
        ],
    )
    def test_values(self, hop, variant, expected):
        assert default_budget(dataclasses.replace(tiny_example(), hop_type=hop), variant) == expected

    @pytest.mark.parametrize("hop", [HopType.SINGLE_HOP, HopType.UNKNOWN])
    @pytest.mark.parametrize("pool", ["retrieved", "generated"])
    def test_a_chain_of_two_segments_is_multi_hop(self, hop, pool):
        example = dataclasses.replace(tiny_example(), hop_type=hop)
        two = (*getattr(example, pool)[0].segments, make_chain("second hop", "s1").segments[0])
        example = dataclasses.replace(example, **{pool: (PassageChain(two),)})
        assert default_budget(example, Variant.PAIRWISE) == 1000
        assert default_budget(example, Variant.LINEARIZED) == 500


def read_predictions(path):
    """A prediction file read as ``analyze`` reads it."""
    return read_keyed(path, "prediction", lambda rec: string(rec["answer"]))


class TestPredictionsIO:
    def test_two_valid_lines(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        path.write_text(
            json.dumps({"question_id": "q1", "answer": "a"})
            + "\n"
            + json.dumps({"question_id": "q2", "answer": "b"})
            + "\n"
        )
        assert read_predictions(path) == {"q1": "a", "q2": "b"}

    def test_repeated_id_raises_naming_its_line(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        path.write_text(
            json.dumps({"question_id": "q1", "answer": "first"})
            + "\n"
            + json.dumps({"question_id": "q1", "answer": "second"})
            + "\n"
        )
        with pytest.raises(ContractViolation, match="predictions.jsonl line 2: bad prediction record: repeated question_id 'q1'"):
            read_predictions(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        path.write_text("")
        assert read_predictions(path) == {}

    def test_malformed_line_reported(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        for line, problem in [
            (json.dumps({"question_id": "q1"}), "bad prediction record: missing field 'answer'"),
            (json.dumps({"question_id": "q1", "answer": 7}), "bad prediction record: 7 is not a string"),
            (json.dumps({"question_id": 7, "answer": "a"}), "bad prediction record: 7 is not a string"),
            (json.dumps({"answer": "a"}), "bad prediction record: missing field 'question_id'"),
            ("{broken json", "invalid JSON"),
        ]:
            path.write_text(json.dumps({"question_id": "q0", "answer": "a"}) + "\n" + line + "\n")
            with pytest.raises(ContractViolation, match=f"predictions.jsonl line 2: {problem}"):
                read_predictions(path)

    def test_writer_round_trip(self, tmp_path):
        example = tiny_example()
        matching = matching_for(example, [(0, 0, 1.0)])
        reader = serialize_variant(example, matching, Variant.PAIRWISE, 400)
        path = tmp_path / "reader.jsonl"
        write_reader_examples(path, [reader])
        record = json.loads(path.read_text())
        assert record == {"question_id": "q1", "blocks": list(reader.blocks)}
