from __future__ import annotations

import re
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairqa.corpus import (
    HopType,
    Passage,
    PassageChain,
    contains_answer,
    exact_match,
    example_from_record,
    example_to_record,
    normalize_answer,
    read_examples,
    text_contains_answer,
    write_examples,
)
from pairqa.errors import ContractViolation

from conftest import make_chain


def reference_squad_normalize(s: str) -> str:
    """The standard SQuAD evaluation normalizer, kept independent on purpose."""

    def remove_articles(text):
        return re.sub(r"\b(a|an|the)\b", " ", text)

    def white_space_fix(text):
        return " ".join(text.split())

    def remove_punc(text):
        exclude = set(string.punctuation)
        return "".join(ch for ch in text if ch not in exclude)

    def lower(text):
        return text.lower()

    return white_space_fix(remove_articles(remove_punc(lower(s))))


class TestNormalizeAnswer:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("The Beatles!", "beatles"),
            ("", ""),
            ("a  An THE", ""),
            ("Don Shula", "don shula"),
            ("don't stop", "dont stop"),
            ("  The  Answer.  ", "answer"),
        ],
    )
    def test_fixed_cases(self, raw, expected):
        assert normalize_answer(raw) == expected

    @given(st.text(max_size=80))
    def test_matches_reference_normalizer(self, s):
        assert normalize_answer(s) == reference_squad_normalize(s)

    @given(st.text(max_size=80))
    def test_idempotent(self, s):
        once = normalize_answer(s)
        assert normalize_answer(once) == once


class TestExactMatch:
    def test_exact(self):
        assert exact_match("Don Shula", ["Don Shula"]) is True

    def test_hallucinated_answer(self):
        assert exact_match("George Halas", ["Don Shula"]) is False

    def test_partial_overlap_is_not_a_match(self):
        assert exact_match("shula", ["Don Shula"]) is False

    def test_alias_list(self):
        assert exact_match("the beatles", ["Beatles", "The Beatles Band"]) is True


class TestContainsAnswer:
    def test_answer_in_passage(self):
        chain = make_chain("head coach Don Shula won", "r0")
        assert contains_answer(chain, ["Don Shula"]) is True

    def test_empty_text(self):
        assert text_contains_answer("", ["anything"]) is False

    def test_case_and_article_insensitive(self):
        chain = make_chain("the beatles", "r0")
        assert contains_answer(chain, ["Beatles"]) is True
        # independent scan: normalized alias tokens as a contiguous run
        tokens = normalize_answer("the beatles").split()
        alias = normalize_answer("Beatles").split()
        found = any(tokens[k : k + len(alias)] == alias for k in range(len(tokens)))
        assert found is True

    def test_subword_is_not_a_match(self):
        chain = make_chain("shularize the data", "r0")
        assert contains_answer(chain, ["Shula"]) is False

    def test_multi_segment_concatenation(self):
        chain = PassageChain(
            segments=(
                Passage(id="r0.0", text="the first hop mentions Don"),
                Passage(id="r0.1", text="Shula in the second hop"),
            ),
        )
        assert contains_answer(chain, ["Don Shula"]) is True

    # words, articles, accented capitals, punctuation and runs of whitespace, joined as drawn
    _pieces = st.lists(
        st.sampled_from(["bob", "Bob", "x1", "a", "An", "THE", "Élan", "élan", ",", ".", "'", "-", " ", "  ", "\t", "\u00a0"]),
        max_size=14,
    ).map("".join)

    @given(_pieces, st.lists(_pieces, min_size=1, max_size=3))
    def test_matches_a_token_window_scan(self, text, answers):
        tokens = normalize_answer(text).split()
        windows = [normalize_answer(alias).split() for alias in answers]
        found = any(w and any(tokens[k : k + len(w)] == w for k in range(len(tokens))) for w in windows)
        assert text_contains_answer(text, answers) is found

    @given(st.text(alphabet="abcd ", min_size=1, max_size=20), st.lists(st.text(alphabet="abcd ", min_size=1, max_size=10), min_size=1, max_size=3))
    def test_em_implies_containment(self, prediction, answers):
        if exact_match(prediction, answers) and normalize_answer(prediction):
            chain = make_chain(prediction, "r0")
            assert contains_answer(chain, answers) is True


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _record(question_id="q1", **overrides):
    record = {
        "question_id": question_id,
        "question": "who won",
        "answers": ["Don Shula"],
        "retrieved": [[{"id": "r0", "text": "Don Shula won"}]],
        "generated": [[{"id": "g0", "text": "George Halas won"}]],
    }
    record.update(overrides)
    return record


class TestIngestion:
    def test_two_valid_records_in_order(self, tmp_path):
        import json

        path = tmp_path / "data.jsonl"
        _write_lines(path, [json.dumps(_record("q1")), "", json.dumps(_record("q2"))])  # a blank line is skipped
        examples, errors, _ = read_examples(path)
        assert [e.question_id for e in examples] == ["q1", "q2"]
        assert not errors

    def test_duplicate_question_id_is_an_error(self, tmp_path):
        import json

        path = tmp_path / "data.jsonl"
        _write_lines(path, [json.dumps(_record("q1")), json.dumps(_record("q2")), json.dumps(_record("q1"))])
        examples, errors, _ = read_examples(path)
        assert [e.question_id for e in examples] == ["q1", "q2"]
        assert [e.line for e in errors] == [3]
        assert "q1" in errors[0].message

    def test_empty_question_is_an_error(self, tmp_path):
        import json

        path = tmp_path / "data.jsonl"
        _write_lines(path, [json.dumps(_record(question=""))])
        examples, errors, _ = read_examples(path)
        assert examples == []
        assert len(errors) == 1
        assert errors[0].line == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"retrieved": [[{"id": "r0", "text": "   "}]]},
            {"generated": [[]]},
            {"answers": []},
            {"answers": ["a", 3]},
            {"question": " \t "},
            {"retrieved": [["Don Shula won"]]},
            {"retrieved": [[{"id": "r0", "text": "Don Shula won", "title": 5}]]},
            {"generated": "George Halas won"},
            {"question_id": None},
        ],
        ids=[
            "blank-segment-text",
            "empty-chain",
            "no-answers",
            "non-string-answer",
            "blank-question",
            "segment-not-an-object",
            "title-not-a-string",
            "pool-not-an-array",
            "no-question-id",
        ],
    )
    def test_bad_record_is_an_ingest_error(self, tmp_path, overrides):
        # ingest is the one check of these facts: the data classes do not check them again
        import json

        path = tmp_path / "data.jsonl"
        _write_lines(path, [json.dumps(_record("q1")), json.dumps({**_record("q2"), **overrides}), json.dumps(_record("q3"))])
        examples, errors, _ = read_examples(path)
        assert [e.question_id for e in examples] == ["q1", "q3"]
        assert [e.line for e in errors] == [2]

    def test_ten_by_ten_pools(self, tmp_path):
        import json

        record = _record(
            retrieved=[[{"id": f"r{j}", "text": f"passage {j}"}] for j in range(10)],
            generated=[[{"id": f"g{i}", "text": f"claim {i}"}] for i in range(10)],
        )
        path = tmp_path / "data.jsonl"
        _write_lines(path, [json.dumps(record)])
        examples, _, _ = read_examples(path)
        assert examples[0].n == 10 and examples[0].m == 10

    def test_bare_object_chain_normalized(self):
        record = _record(retrieved=[{"id": "r0", "text": "Don Shula won"}])
        example = example_from_record(record)
        assert example.retrieved[0].segments[0].id == "r0"
        assert len(example.retrieved[0].segments) == 1

    def test_missing_or_null_segment_id_gets_its_default_name(self):
        record = _record(
            retrieved=[[{"text": "one"}], [{"id": None, "text": "hop one"}, {"text": "hop two"}]],
            generated=[{"id": None, "text": "claim"}],
        )
        example = example_from_record(record)
        assert [[seg.id for seg in c.segments] for c in example.retrieved] == [["r0"], ["r1.0", "r1.1"]]
        assert example.generated[0].id == "g0"

    @pytest.mark.parametrize("pid", [True, [1], {"k": 1}, 5], ids=["true", "array", "object", "number"])
    def test_segment_id_must_be_a_string(self, tmp_path, pid):
        import json

        path = tmp_path / "data.jsonl"
        bad = _record("q2", generated=[[{"id": pid, "text": "George Halas won"}]])
        _write_lines(path, [json.dumps(_record("q1")), json.dumps(bad)])
        examples, errors, _ = read_examples(path)
        assert [e.question_id for e in examples] == ["q1"]
        assert [e.line for e in errors] == [2]
        assert f"id must be a string, got {pid!r}" in errors[0].message

    def test_duplicate_passage_id_rejected(self):
        record = _record(
            retrieved=[
                [{"id": "r0", "text": "one"}],
                [{"id": "r0", "text": "two"}],
            ]
        )
        with pytest.raises(ContractViolation, match="duplicate"):
            example_from_record(record)

    def test_empty_pool_is_flagged_not_dropped(self, tmp_path):
        import json

        path = tmp_path / "data.jsonl"
        _write_lines(path, [json.dumps(_record(generated=[], retrieved=[]))])
        examples, _, warnings = read_examples(path)
        assert len(examples) == 1
        assert any("empty generated pool" in w.message for w in warnings)
        assert [(w.line, w.message) for w in warnings] == [(1, "q1: empty retrieved pool"), (1, "q1: empty generated pool")]

    def test_malformed_json_line_reported(self, tmp_path):
        import json

        path = tmp_path / "data.jsonl"
        _write_lines(path, [json.dumps(_record("q1")), "{not json"])
        examples, errors, _ = read_examples(path)
        assert len(examples) == 1
        assert errors[0].line == 2

    def test_integer_of_too_many_digits_reported(self, tmp_path):
        # json.loads raises a plain ValueError, not JSONDecodeError, past int()'s digit limit
        import json

        path = tmp_path / "data.jsonl"
        _write_lines(path, [json.dumps(_record("q1")), '{"question_id": ' + "9" * 5000 + "}", json.dumps(_record("q2"))])
        examples, errors, _ = read_examples(path)
        assert [e.question_id for e in examples] == ["q1", "q2"]
        assert [e.line for e in errors] == [2]
        assert "invalid JSON" in errors[0].message

    def test_line_not_utf8_reported(self, tmp_path):
        import json

        path = tmp_path / "data.jsonl"
        lines = [json.dumps(_record("q1")).encode(), b'{"question_id": "q\xff"}', json.dumps(_record("q2")).encode()]
        path.write_bytes(b"\n".join(lines) + b"\n")
        examples, errors, _ = read_examples(path)
        assert [e.question_id for e in examples] == ["q1", "q2"]
        assert [e.line for e in errors] == [2]
        assert "not UTF-8" in errors[0].message

    def test_hop_type_inference_and_parse(self):
        assert example_from_record(_record()).hop_type is HopType.SINGLE_HOP
        multi = _record(
            retrieved=[[{"id": "r0.0", "text": "one"}, {"id": "r0.1", "text": "two"}]],
            hop_type="bridge",
        )
        assert example_from_record(multi).hop_type is HopType.MULTI_HOP_BRIDGE
        with pytest.raises(ContractViolation):
            example_from_record(_record(hop_type="sideways"))

    def test_round_trip_is_fixed_point(self, tmp_path):
        import json

        record = _record(
            retrieved=[
                [{"id": "r0", "text": "Don Shula won", "title": "Dolphins"}],
                [{"id": "r1.0", "text": "hop one"}, {"id": "r1.1", "text": "hop two"}],
            ],
            hop_type="unknown",
        )
        src = tmp_path / "src.jsonl"
        _write_lines(src, [json.dumps(record)])
        first, errors, _ = read_examples(src)
        assert not errors
        out = tmp_path / "out.jsonl"
        write_examples(out, first)
        second, _, _ = read_examples(out)
        assert [example_to_record(e) for e in first] == [example_to_record(e) for e in second]
        # a second serialization is byte-identical
        out2 = tmp_path / "out2.jsonl"
        write_examples(out2, second)
        assert out.read_bytes() == out2.read_bytes()
