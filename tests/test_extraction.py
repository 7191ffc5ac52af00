import collections
import json
import random

import pytest

from tempomine import extraction as extraction_module
from tempomine.extraction import (
    TemporalTuple,
    classify_temporal_argument,
    extract_duration,
    extract_frequency,
    extract_hierarchy,
    extract_sentence,
    extract_typical_time,
    extract_upper_bound,
    parse_numeric,
    read_tuples_jsonl,
    write_tuples_jsonl,
)
from tempomine.label_space import TemporalDimension
from tempomine.srl_ingest import SrlFrame, SrlSentence, parse_sentence, read_corpus


# ---------------------------------------------------------------- numerics

# next_at is where the count ends: every count is one token, so the
# token after it (a unit word here) does not parse as a count.
@pytest.mark.parametrize(
    "tokens,at,value,next_at",
    [
        (["3", "days"], 0, 3.0, 1),
        (["36", "hours"], 0, 36.0, 1),
        (["1,200", "years"], 0, 1200.0, 1),
        (["2.5", "hours"], 0, 2.5, 1),
        (["twelve", "minutes"], 0, 12.0, 1),
        (["a", "week"], 0, 1.0, 1),
        (["an", "hour"], 0, 1.0, 1),
        (["two", "weeks"], 0, 2.0, 1),
    ],
)
def test_parse_numeric_accepts(tokens, at, value, next_at):
    got = parse_numeric(tokens, at)
    assert type(got) is float
    assert got == value
    assert parse_numeric(tokens, next_at) is None


@pytest.mark.parametrize("tokens", [["many"], ["-3"], ["0"], ["hello"], ["."],
                                    ["nan"], ["inf"], ["-inf"], ["1e999"]])
def test_parse_numeric_rejects(tokens):
    assert parse_numeric(tokens, 0) is None


def test_parse_numeric_out_of_range():
    assert parse_numeric(["3"], 5) is None


def test_unit_surfaces_are_singulars_and_plurals():
    assert extraction_module._UNIT_SURFACES == {
        "second": "second", "seconds": "second", "minute": "minute", "minutes": "minute",
        "hour": "hour", "hours": "hour", "day": "day", "days": "day",
        "week": "week", "weeks": "week", "month": "month", "months": "month",
        "year": "year", "years": "year", "decade": "decade", "decades": "decade",
        "century": "century", "centuries": "century",
    }


# ---------------------------------------------------------------- duration

@pytest.mark.parametrize(
    "arg,expected",
    [
        (["for", "an", "hour"], "hour"),
        (["for", "3", "days"], "week"),        # 259200 s rounds up in log space
        (["for", "36", "hours"], "day"),
        (["for", "twelve", "minutes"], "hour"),  # 720 s crosses the log midpoint
        (["for", "a", "week"], "week"),
        (["for", "decades"], "decade"),         # omitted count defaults to 1
        (["for", "a", "second", "chance"], None),  # "second" here is an ordinal
        (["over", "an", "hour"], None),          # only "for" opens a duration
        (["for"], None),
        (["for", "1e308", "centuries"], None),  # the span overflows to inf s
    ],
)
def test_extract_duration(arg, expected):
    assert extract_duration(arg) == expected


# ---------------------------------------------------------------- frequency

@pytest.mark.parametrize(
    "arg,expected",
    [
        (["every", "day"], "day"),
        (["every", "morning"], "day"),
        (["each", "summer"], "year"),
        (["four", "times", "per", "week"], "day"),  # week/4 = 1.75 days
        (["twice", "a", "month"], "month"),
        (["once", "every", "two", "weeks"], "week"),
        (["annually"], "year"),
        (["hourly"], "hour"),
        (["daily"], "day"),
        (["every", "few", "decades"], "decade"),
        (["when", "it", "rains"], None),
        (["sometimes"], None),
        (["yearly"], "year"),
        (["twice", "per", "5e-324", "seconds"], None),  # the period underflows to 0 s
        (["5e-324", "times", "a", "century"], None),  # the period overflows to inf s
    ],
)
def test_extract_frequency(arg, expected):
    assert extract_frequency(arg) == expected


def test_twice_a_month_value():
    # 2592000 / 2 = 1296000 s; in log space that is still closer to
    # month (0.69) than to week (0.76), so the label stays "month".
    assert extract_frequency(["twice", "a", "month"]) == "month"


# ---------------------------------------------------------------- typical

@pytest.mark.parametrize(
    "arg,expected",
    [
        (["on", "Monday"], (TemporalDimension.TYPICAL_WEEK, "Monday")),
        (["on", "Mondays"], (TemporalDimension.TYPICAL_WEEK, "Monday")),
        (["in", "October"], (TemporalDimension.TYPICAL_MONTH, "October")),
        (["in", "autumn"], (TemporalDimension.TYPICAL_SEASON, "fall")),
        (["in", "the", "fall"], (TemporalDimension.TYPICAL_SEASON, "fall")),
        (["at", "dawn"], (TemporalDimension.TYPICAL_DAY, "dawn")),
        (["at", "noon"], (TemporalDimension.TYPICAL_DAY, "noon")),
        (["overnight"], (TemporalDimension.TYPICAL_DAY, "overnight")),
        (["in", "the", "morning"], (TemporalDimension.TYPICAL_DAY, "morning")),
        (["until", "Monday"], None),
        (["since", "January"], None),
        (["following", "winter"], None),
        (["on", "the", "table"], None),
    ],
)
def test_extract_typical_time(arg, expected):
    assert extract_typical_time(arg) == expected


# ---------------------------------------------------------------- upper bound

@pytest.mark.parametrize(
    "arg,expected",
    [
        (["in", "3", "days"], "week"),
        (["in", "5", "minutes"], "minute"),
        (["in", "an", "hour"], "hour"),
        (["yesterday"], "day"),
        (["next", "week"], "week"),
        (["last", "month"], "month"),
        (["previous", "year"], "year"),
        (["in", "the", "morning"], None),  # no numeric, falls through to typical
        (["soon"], None),
        (["in", "1e308", "centuries"], None),  # the bound overflows to inf s
    ],
)
def test_extract_upper_bound(arg, expected):
    assert extract_upper_bound(arg) == expected


# ---------------------------------------------------------------- hierarchy

@pytest.mark.parametrize(
    "arg,expected",
    [
        (["before", "the", "speech"], ("before", ["the", "speech"])),
        (["after", "dinner"], ("after", ["dinner"])),
        (["while", "driving"], ("during", ["driving"])),
        (["during", "winter"], ("during", ["winter"])),
        (["when", "the", "war", "ended"], ("when", ["the", "war", "ended"])),
        (["before"], None),  # embedded phrase must be non-empty
        (["the", "day", "before"], None),
    ],
)
def test_extract_hierarchy(arg, expected):
    assert extract_hierarchy(arg) == expected


# ---------------------------------------------------------------- classify

def _sentence(tokens, verb_index, span, role="ARGM-TMP"):
    return parse_sentence({
        "doc_id": "t",
        "sent_index": 0,
        "tokens": tokens,
        "frames": [{"verb_index": verb_index, "args": [{"role": role, "span": list(span)}]}],
    })


# Each argument is also matched on its own by a rule ranked below the one
# that classifies it, so every row checks one step of the precedence.
_PRECEDENCE = [
    ("before every morning", TemporalDimension.HIERARCHY, "before", ("every", "morning"),
     extract_frequency, "day"),
    ("for an hour every day", TemporalDimension.FREQUENCY, "day", (),
     extract_duration, "hour"),
    ("for a week last year", TemporalDimension.DURATION, "week", (),
     extract_upper_bound, "year"),
    ("last week on Monday", TemporalDimension.UPPER_BOUND, "week", (),
     extract_typical_time, (TemporalDimension.TYPICAL_WEEK, "Monday")),
    ("during winter", TemporalDimension.HIERARCHY, "during", ("winter",),
     extract_typical_time, (TemporalDimension.TYPICAL_SEASON, "winter")),
]


@pytest.mark.parametrize("arg, dimension, value, embedded, lower_rule, lower_alone",
                         _PRECEDENCE, ids=[row[0] for row in _PRECEDENCE])
def test_classify_precedence(arg, dimension, value, embedded, lower_rule, lower_alone):
    tokens = ["They", "hiked", *arg.split()]
    s = _sentence(tokens, 1, (2, len(tokens)))
    (t,) = classify_temporal_argument(s, s.frames[0], (2, len(tokens)))
    assert (t.dimension, t.value, t.arg_tmp_event_tokens) == (dimension, value, embedded)
    assert lower_rule(arg.split()) == lower_alone


def test_classify_span_deletion_and_verb_reindex():
    s = _sentence(["Before", "dawn", ",", "Jack", "rested", "for", "an", "hour"],
                  4, (5, 8))
    tuples = classify_temporal_argument(s, s.frames[0], (5, 8))
    assert tuples[0].event_tokens == ("Before", "dawn", ",", "Jack", "rested")
    assert tuples[0].verb_index == 4

    s2 = _sentence(["For", "an", "hour", "Jack", "rested"], 4, (0, 3))
    tuples2 = classify_temporal_argument(s2, s2.frames[0], (0, 3))
    assert tuples2[0].event_tokens == ("Jack", "rested")
    assert tuples2[0].verb_index == 1


def test_classify_empty_event_dropped():
    # If removing the argument leaves nothing, no tuple is emitted.
    s = parse_sentence({
        "doc_id": "t", "sent_index": 0,
        "tokens": ["wait", "for", "an", "hour"],
        "frames": [{"verb_index": 0, "args": [{"role": "ARGM-TMP", "span": [1, 4]}]}],
    })
    tuples = classify_temporal_argument(s, s.frames[0], (1, 4))
    assert len(tuples) == 1
    assert tuples[0].event_tokens == ("wait",)
    assert tuples[0].verb_index == 0


def test_classify_unmatched_argument_yields_nothing():
    s = _sentence(["He", "slept", "on", "the", "couch"], 1, (2, 5))
    assert classify_temporal_argument(s, s.frames[0], (2, 5)) == []


def test_provenance_recorded():
    s = _sentence(["He", "slept", "every", "day"], 1, (2, 4))
    t = classify_temporal_argument(s, s.frames[0], (2, 4), frame_ordinal=3)[0]
    assert t.provenance == ("t", 0, 3)


def test_extract_sentence_multiple_frames():
    s = parse_sentence({
        "doc_id": "m", "sent_index": 5,
        "tokens": ["He", "paused", "before", "leaving", "and", "returned",
                   "in", "5", "minutes"],
        "frames": [
            {"verb_index": 1, "args": [{"role": "ARGM-TMP", "span": [2, 4]}]},
            {"verb_index": 5, "args": [{"role": "ARGM-TMP", "span": [6, 9]}]},
        ],
    })
    tuples = extract_sentence(s)
    assert [t.dimension for t in tuples] == [
        TemporalDimension.HIERARCHY, TemporalDimension.UPPER_BOUND]
    assert tuples[0].provenance == ("m", 5, 0)
    assert tuples[1].provenance == ("m", 5, 1)
    assert tuples[1].value == "minute"


def test_extract_sentence_ignores_non_temporal_roles():
    s = parse_sentence({
        "doc_id": "m", "sent_index": 0,
        "tokens": ["She", "studied", "the", "charts", "in", "January"],
        "frames": [{"verb_index": 1, "args": [
            {"role": "ARG1", "span": [2, 4]},
            {"role": "ARGM-TMP", "span": [4, 6]},
        ]}],
    })
    tuples = extract_sentence(s)
    assert len(tuples) == 1
    assert tuples[0].dimension is TemporalDimension.TYPICAL_MONTH
    assert tuples[0].value == "January"
    # ARG1 stays inside the event tokens; only the temporal span is removed
    assert tuples[0].event_tokens == ("She", "studied", "the", "charts")


def test_lowercase_role_accepted():
    s = _sentence(["He", "ate", "at", "noon"], 1, (2, 4), role="arg-tmp")
    assert len(extract_sentence(s)) == 1


# ---------------------------------------------------------------- trigger gating

# Argument words, one list per kind: every keyword table, counts that
# parse, overflow or fail to parse, the filter words, the ordinal
# "second" before a word, and fillers. Each word of an argument is drawn
# as a random kind, then a random word of that kind.
_WORD_KINDS = [
    sorted(extraction_module._HIERARCHY_KEYWORDS),
    sorted(extraction_module._FREQUENCY_TRIGGERS),
    sorted(extraction_module._UPPER_BOUND_MODIFIERS),
    sorted(extraction_module._TYPICAL_KEYWORDS),
    sorted(extraction_module._UNIT_SURFACES),
    [*sorted(extraction_module._NUMBER_WORDS), "a", "an"],
    ["1", "2.5", "1,000", "1e308", "5e-324", "inf", "nan", "0", "-3"],
    ["for"],
    ["in", "yesterday"],
    ["when", "until", "since", "following"],
    ["second chance", "second opinion", "second ."],
    ["the", "rain", "soon", "of", ",", "."],
]


def _random_arguments(rng, n, without=frozenset()):
    """``n`` arguments of 1-5 words in random case, none of them a word of ``without``."""
    kinds = [[w.split() for w in kind if without.isdisjoint(w.split())] for kind in _WORD_KINDS]
    kinds = [kind for kind in kinds if kind]
    cases = (str.lower, str.upper, str.title)
    return [[rng.choice(cases)(t)
             for _ in range(rng.randint(1, 5)) for t in rng.choice(rng.choice(kinds))]
            for _ in range(n)]


def _classified_by_public_rules(arg):
    """What the public rules make of ``arg``, tried in order of precedence."""
    found = extract_hierarchy(arg)
    if found is not None:
        return TemporalDimension.HIERARCHY, found[0], tuple(found[1])
    for dimension, rule in ((TemporalDimension.FREQUENCY, extract_frequency),
                            (TemporalDimension.DURATION, extract_duration),
                            (TemporalDimension.UPPER_BOUND, extract_upper_bound)):
        value = rule(arg)
        if value is not None:
            return dimension, value, ()
    found = extract_typical_time(arg)
    return None if found is None else (*found, ())


def test_classify_equals_the_public_rules_in_order_of_precedence():
    rng = random.Random(20200705)
    dimensions = collections.Counter()
    for arg in _random_arguments(rng, 20_000):
        s = SrlSentence("t", 0, ("They", "hiked", *arg),
                        (SrlFrame(1, (("ARGM-TMP", (2, 2 + len(arg))),)),))
        got = [(t.dimension, t.value, t.arg_tmp_event_tokens)
               for t in classify_temporal_argument(s, s.frames[0], (2, 2 + len(arg)))]
        expected = _classified_by_public_rules(arg)
        assert got == ([] if expected is None else [expected]), arg
        dimensions[None if expected is None else expected[0]] += 1
    # Every dimension, and no match at all, occurs many times over.
    assert set(dimensions) == {None, *TemporalDimension}
    assert min(dimensions.values()) >= 50, dimensions


@pytest.mark.parametrize("triggers, rule", extraction_module._RULES,
                         ids=["hierarchy", "frequency", "duration", "upper-bound", "typical-time"])
def test_a_rule_matches_no_argument_without_a_trigger_word(triggers, rule):
    rng = random.Random(7)
    for arg in _random_arguments(rng, 2_000, without=triggers):
        assert rule([t.lower() for t in arg]) is None, arg


# ---------------------------------------------------------------- round trip

def test_tuple_jsonl_round_trip(tmp_path):
    tuples = [
        TemporalTuple(("Jack", "rested"), 1, TemporalDimension.DURATION, "hour",
                      provenance=("d", 0, 0)),
        TemporalTuple(("He", "paused"), 1, TemporalDimension.HIERARCHY, "before",
                      arg_tmp_event_tokens=("the", "speech"),
                      provenance=("d", 1, 0)),
    ]
    path = tmp_path / "tuples.jsonl"
    write_tuples_jsonl(str(path), tuples, header_lines=["test header"])
    back = read_tuples_jsonl(str(path))
    assert back == tuples
    text = path.read_text()
    assert text.startswith("# test header\n")
    # keys are sorted so files are byte-stable
    body = [json.loads(line) for line in text.splitlines() if not line.startswith("#")]
    for obj in body:
        assert list(obj) == sorted(obj)


def test_tuple_lines_are_sorted_json_dumps(tmp_path):
    odd = ['say "hi"', "back\\slash", "line\nbreak", "bell\x07", "café", "emoji \U0001F600"]
    tuples = [
        TemporalTuple(tuple(odd), 4, TemporalDimension.DURATION, "hour", provenance=(odd[5], 7, 2)),
        TemporalTuple(("He", "paused"), 1, TemporalDimension.HIERARCHY, "before",
                      arg_tmp_event_tokens=tuple(odd[:3]), provenance=("", 0, 0)),
    ]
    expected = [
        {"doc_id": odd[5], "sent_index": 7, "frame_ordinal": 2, "event_tokens": odd,
         "verb_index": 4, "dimension": "duration", "value": "hour", "arg_tmp_event_tokens": []},
        {"doc_id": "", "sent_index": 0, "frame_ordinal": 0, "event_tokens": ["He", "paused"],
         "verb_index": 1, "dimension": "hierarchy", "value": "before",
         "arg_tmp_event_tokens": odd[:3]},
    ]
    path = tmp_path / "tuples.jsonl"
    write_tuples_jsonl(str(path), tuples)
    assert path.read_text() == "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in expected)
    assert read_tuples_jsonl(str(path)) == tuples


# ------------------------------------------------- full fixture derivation

# Hand-derived expectations for every sentence of the fixture corpus:
# (doc_id, sent_index, frame_ordinal) -> list of (dimension, value).
EXPECTED = {
    ("fx-a", 0): [(TemporalDimension.DURATION, "hour")],
    ("fx-a", 1): [],                       # "for a second chance" trap
    ("fx-a", 2): [(TemporalDimension.FREQUENCY, "day")],
    ("fx-a", 3): [],                       # "until Monday" rejected
    ("fx-a", 4): [(TemporalDimension.UPPER_BOUND, "day")],
    ("fx-a", 5): [(TemporalDimension.UPPER_BOUND, "week")],
    ("fx-a", 6): [(TemporalDimension.HIERARCHY, "before")],
    ("fx-a", 7): [(TemporalDimension.HIERARCHY, "during")],
    ("fx-a", 8): [(TemporalDimension.FREQUENCY, "day")],
    ("fx-a", 9): [(TemporalDimension.TYPICAL_WEEK, "Monday")],
    ("fx-a", 10): [(TemporalDimension.TYPICAL_MONTH, "October")],
    ("fx-a", 11): [(TemporalDimension.HIERARCHY, "during")],
    ("fx-a", 12): [(TemporalDimension.TYPICAL_SEASON, "fall")],
    ("fx-a", 13): [(TemporalDimension.DURATION, "day")],
    ("fx-a", 14): [(TemporalDimension.FREQUENCY, "month")],
    ("fx-a", 15): [(TemporalDimension.FREQUENCY, "week")],
    ("fx-a", 16): [(TemporalDimension.FREQUENCY, "year")],
    ("fx-b", 0): [(TemporalDimension.FREQUENCY, "hour")],
    ("fx-b", 1): [(TemporalDimension.DURATION, "minute")],
    ("fx-b", 2): [(TemporalDimension.FREQUENCY, "year")],
    ("fx-b", 3): [(TemporalDimension.UPPER_BOUND, "month")],
    ("fx-b", 4): [(TemporalDimension.UPPER_BOUND, "week")],
    ("fx-b", 5): [(TemporalDimension.HIERARCHY, "when")],
    ("fx-b", 6): [(TemporalDimension.TYPICAL_DAY, "dawn")],
    ("fx-b", 7): [(TemporalDimension.TYPICAL_DAY, "overnight")],
    ("fx-b", 8): [(TemporalDimension.FREQUENCY, "decade")],
    ("fx-b", 9): [(TemporalDimension.DURATION, "hour")],
    ("fx-b", 10): [(TemporalDimension.HIERARCHY, "before"),
                   (TemporalDimension.UPPER_BOUND, "minute")],
    ("fx-b", 11): [(TemporalDimension.TYPICAL_DAY, "noon")],
    ("fx-b", 12): [(TemporalDimension.DURATION, "hour"),
                   (TemporalDimension.TYPICAL_WEEK, "Sunday")],
    ("fx-b", 13): [(TemporalDimension.TYPICAL_MONTH, "January")],
    ("fx-b", 14): [(TemporalDimension.FREQUENCY, "day")],
    ("fx-b", 15): [(TemporalDimension.TYPICAL_DAY, "morning")],
}


def test_fixture_corpus_extraction_matches_hand_derivation(fixture_corpus_path):
    with open(fixture_corpus_path) as f:
        sentences = list(read_corpus(f))
    assert len(sentences) == 33
    got: dict[tuple[str, int], list] = {}
    for s in sentences:
        got[(s.doc_id, s.sent_index)] = [
            (t.dimension, t.value) for t in extract_sentence(s)]
    assert got == EXPECTED
    total = sum(len(v) for v in EXPECTED.values())
    assert total == 33  # 31 single-tuple sentences + 2 two-tuple, 2 empty
