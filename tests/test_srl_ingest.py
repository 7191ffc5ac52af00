import io
import json

import pytest

from tempomine.srl_ingest import (
    SchemaError,
    SrlFrame,
    SrlSentence,
    is_temporal_role,
    parse_sentence,
    read_corpus,
    sentence_to_json_dict,
    text_lines,
)


def make_record(**overrides) -> dict:
    record = {
        "doc_id": "d0",
        "sent_index": 0,
        "tokens": ["Jack", "rested", "for", "an", "hour"],
        "frames": [{"verb_index": 1, "args": [{"role": "ARGM-TMP", "span": [2, 5]}]}],
    }
    record.update(overrides)
    return record


def test_parse_valid_sentence():
    s = parse_sentence(make_record())
    assert s.doc_id == "d0"
    assert s.tokens == ("Jack", "rested", "for", "an", "hour")
    assert s.frames[0].verb_index == 1
    assert s.frames[0].arguments == (("ARGM-TMP", (2, 5)),)
    assert s.left_context is None and s.right_context is None


def test_parse_contexts():
    s = parse_sentence(make_record(left_context=["He", "was", "tired", "."],
                                   right_context=["Then", "he", "left", "."]))
    assert s.left_context == ("He", "was", "tired", ".")
    assert s.right_context == ("Then", "he", "left", ".")


@pytest.mark.parametrize(
    "mutation",
    [
        {"doc_id": 7},
        {"sent_index": -1},
        {"sent_index": "0"},
        {"sent_index": True},  # a bool is no index, though Python counts it an int
        {"tokens": []},
        {"tokens": ["a", 3]},
        {"tokens": "not a list"},
        {"frames": "nope"},
        {"frames": [{"verb_index": 9}]},
        {"frames": [{"verb_index": -1}]},
        {"frames": [{"verb_index": 1, "args": [{"role": "ARGM-TMP", "span": [3, 2]}]}]},
        {"frames": [{"verb_index": 1, "args": [{"role": "ARGM-TMP", "span": [2, 9]}]}]},
        {"frames": [{"verb_index": 1, "args": [{"role": "ARGM-TMP", "span": [0, 3]}]}]},
        {"frames": [{"verb_index": 1, "args": [{"role": 5, "span": [2, 5]}]}]},
        {"frames": [{"verb_index": 1, "args": [{"role": "ARGM-TMP", "span": [2]}]}]},
        {"frames": [{"verb_index": 0, "args": [{"role": "ARGM-TMP", "span": [True, 4]}]}]},
        {"tokens": ["Jack", "", "for", "an", "hour"]},
        {"left_context": [1, 2]},
        {"frames": [{"verb_index": True}]},
        {"frames": [{"verb_index": 1.0}]},
    ],
)
def test_parse_rejects_schema_violations(mutation):
    with pytest.raises(SchemaError):
        parse_sentence(make_record(**mutation))


@pytest.mark.parametrize("mutation, message", [
    ({"tokens": ["a", 3]}, "tokens must be a list of strings"),
    ({"tokens": ["Jack", "", "for", "an", "hour"]},
     "tokens must hold no empty strings, got one at 1"),
    ({"frames": [{"verb_index": 0, "args": [{"role": "ARGM-TMP", "span": [True, 4]}]}]},
     "span [True, 4] must be a [start, end) integer pair"),
    ({"sent_index": True}, "sent_index must be an integer, got true"),
    ({"sent_index": 2.0}, "sent_index must be an integer, got 2.0"),
    ({"frames": [{"verb_index": True}]}, "verb_index must be an integer, got true"),
    ({"frames": [{"verb_index": 2.0}]}, "verb_index must be an integer, got 2.0"),
    ({"frames": [{"verb_index": 1, "args": [{"role": "ARGM-TMP", "span": [2.0, 5]}]}]},
     "span [2.0, 5] must be a [start, end) integer pair"),
    ({"frames": [{"verb_index": 1, "args": [{"role": "ARGM-TMP", "span": [2, True]}]}]},
     "span [2, True] must be a [start, end) integer pair"),
    ({"frames": [{"verb_index": 1, "args": [{"role": "ARGM-TMP", "span": [2, 5.0]}]}]},
     "span [2, 5.0] must be a [start, end) integer pair"),
], ids=["non-string-token", "empty-token", "bool-span-bound", "bool-sent-index",
        "float-sent-index", "bool-verb-index", "float-verb-index", "float-span-start",
        "bool-span-end", "float-span-end"])
def test_parse_names_the_defect(mutation, message):
    with pytest.raises(SchemaError) as exc:
        parse_sentence(make_record(**mutation))
    assert str(exc.value) == message


def _args(*args):
    return {"frames": [{"verb_index": 1, "args": list(args)}]}


# Each record has two defects; the reader names the one it checks first.
@pytest.mark.parametrize("mutation, message", [
    ({"doc_id": 7, "sent_index": -1}, "doc_id must be a string"),
    ({"sent_index": -1, "tokens": []}, "sent_index must be a non-negative integer"),
    ({"tokens": ["", 3]}, "tokens must be a list of strings"),
    ({"tokens": ["a", ""], "frames": "nope"}, "tokens must hold no empty strings, got one at 1"),
    ({"frames": "nope", "left_context": [1]}, "frames must be a list"),
    ({"frames": ["nope", {"verb_index": 9}]}, "frame must be an object"),
    ({"frames": [{"verb_index": 9, "args": "nope"}]}, "verb_index 9 out of bounds for 5 tokens"),
    ({"frames": [{"verb_index": 1, "args": "nope"}, {"verb_index": 9}]}, "args must be a list"),
    (_args({"role": 5, "span": [9]}), "argument must be an object with a string role"),
    (_args({"role": "ARGM-TMP", "span": [2.0, 9]}),
     "span [2.0, 9] must be a [start, end) integer pair"),
    (_args({"role": "ARGM-TMP", "span": [0, 9]}), "span [0, 9] out of bounds for 5 tokens"),
    (_args({"role": "ARGM-TMP", "span": [0, 3]}, {"role": 5}), "span [0, 3] overlaps verb at 1"),
    ({**_args({"role": "ARGM-TMP", "span": [3, 2]}), "left_context": [1]},
     "span [3, 2] out of bounds for 5 tokens"),
    ({"left_context": [1], "right_context": [2]}, "left_context must be a list of strings"),
], ids=["doc-id-before-sent-index", "sent-index-before-tokens", "token-type-before-empty-token",
        "tokens-before-frames", "frames-before-contexts", "frame-before-next-frame",
        "verb-index-before-args", "args-before-next-frame", "role-before-span",
        "span-type-before-bounds", "span-bounds-before-overlap", "overlap-before-next-arg",
        "frames-before-left-context", "left-context-before-right-context"])
def test_parse_reports_the_first_of_two_defects(mutation, message):
    with pytest.raises(SchemaError) as exc:
        parse_sentence(make_record(**mutation))
    assert str(exc.value) == message


def test_parse_accepts_str_subclass_tokens():
    class Word(str):
        pass

    tokens = [Word(t) for t in ("Jack", "rested", "for", "an", "hour")]
    s = parse_sentence(make_record(tokens=tokens, left_context=[Word("He")]))
    assert s.tokens == ("Jack", "rested", "for", "an", "hour")
    assert s.left_context == ("He",)


def test_parse_accepts_int_subclass_indices():
    class Index(int):
        pass

    s = parse_sentence(make_record(
        sent_index=Index(3),
        frames=[{"verb_index": Index(1), "args": [{"role": "ARGM-TMP",
                                                  "span": [Index(2), Index(5)]}]}]))
    assert s.sent_index == 3
    assert s.frames == (SrlFrame(1, (("ARGM-TMP", (2, 5)),)),)


def test_span_overlapping_verb_rejected():
    bad = make_record(frames=[{"verb_index": 3,
                               "args": [{"role": "ARGM-TMP", "span": [2, 5]}]}])
    with pytest.raises(SchemaError, match="overlaps verb"):
        parse_sentence(bad)


def test_reader_skips_and_counts_malformed_lines():
    lines = [
        "# header comment",
        json.dumps(make_record()),
        "",
        "{not json",
        json.dumps(make_record(sent_index=-2)),
        json.dumps(make_record(sent_index=1)),
    ]
    reader = read_corpus(io.StringIO("\n".join(lines)))
    sentences = list(reader)
    assert len(sentences) == 2
    assert reader.records_read == 2
    assert reader.records_skipped == 2
    # errors carry 1-based line numbers of the offending lines
    assert [line_no for line_no, _ in reader.errors] == [4, 5]


def test_reader_ignores_comments_and_blanks_silently():
    text = "#a\n\n#b\n"
    reader = read_corpus(io.StringIO(text))
    assert list(reader) == []
    assert reader.records_read == 0
    assert reader.records_skipped == 0


def test_temporal_role_case_insensitive():
    assert is_temporal_role("ARGM-TMP")
    assert is_temporal_role("argm-tmp")
    assert is_temporal_role("Arg-Tmp")
    assert not is_temporal_role("ARG1")


def test_json_round_trip():
    original = make_record(left_context=["Before", "."],
                           right_context=["After", "."])
    sentence = parse_sentence(original)
    redumped = sentence_to_json_dict(sentence)
    assert parse_sentence(redumped) == sentence


def test_round_trip_omits_absent_contexts():
    obj = sentence_to_json_dict(parse_sentence(make_record()))
    assert "left_context" not in obj
    assert "right_context" not in obj


def test_frames_default_empty():
    record = make_record()
    del record["frames"]
    s = parse_sentence(record)
    assert s.frames == ()


def test_dataclasses_are_frozen():
    s = parse_sentence(make_record())
    with pytest.raises(AttributeError):
        s.doc_id = "other"
    f = SrlFrame(verb_index=0, arguments=())
    with pytest.raises(AttributeError):
        f.verb_index = 2
    with pytest.raises(AttributeError):
        s.frames[0].arguments = ()
    assert isinstance(s, SrlSentence)
    # The reader fills each field by position, so check that each landed in its own.
    assert s == SrlSentence(doc_id="d0", sent_index=0,
                            tokens=("Jack", "rested", "for", "an", "hour"),
                            frames=(SrlFrame(verb_index=1, arguments=(("ARGM-TMP", (2, 5)),)),),
                            left_context=None, right_context=None)


def test_text_lines_names_the_line_that_is_not_utf8(tmp_path):
    # Far past the decoder's first chunk, so the line is found by a rescan.
    path = tmp_path / "in.txt"
    lines = [f"line {i}\n".encode() for i in range(3000)]
    lines[2500] = b"caf\xe9\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(SchemaError, match=r"in\.txt:2501: not UTF-8 text: byte 0xe9 "
                                          r"\(invalid continuation byte\)"):
        list(text_lines(str(path)))
    path.write_bytes(b"".join(lines[:2500]))
    assert list(text_lines(str(path))) == [line.decode() for line in lines[:2500]]
