"""Pattern rules that turn SRL temporal arguments into (event, value, dimension) tuples.

Each temporal argument is classified by the first rule of ``_RULES`` that
matches it, so output is deterministic when several rule families could
fire (e.g. "every morning" is frequency, not typical time); that table's
order is the precedence. The matched argument span is deleted from the
sentence, the verb index re-pointed, and at most one tuple is emitted per
argument.

All keyword matching is case-insensitive on token surfaces; there is no
lemmatization.
"""

import math
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence
from json.encoder import encode_basestring_ascii

from .label_space import UNIT_ORDER, UNIT_SECONDS, TemporalDimension, label_space, nearest_unit
from .srl_ingest import (SchemaError, SrlFrame, SrlSentence, _as_int, _as_str, _as_token_list,
                         is_temporal_role, parse_json_lines, text_lines, write_text)

__all__ = [
    "TemporalTuple",
    "parse_numeric",
    "extract_duration",
    "extract_frequency",
    "extract_typical_time",
    "extract_upper_bound",
    "extract_hierarchy",
    "classify_temporal_argument",
    "extract_sentence",
    "write_tuples_jsonl",
    "read_tuples_jsonl",
]


@dataclass(frozen=True)
class TemporalTuple:
    """One mined fact: the event (argument removed), a dimension, a value.

    ``arg_tmp_event_tokens`` carries the embedded event phrase and is
    non-empty exactly for hierarchy tuples. ``provenance`` is
    (doc_id, sent_index, frame_ordinal). A verb index outside the event
    tokens or a value outside the dimension's labels raises ValueError.
    """

    event_tokens: tuple[str, ...]
    verb_index: int
    dimension: TemporalDimension
    value: str
    arg_tmp_event_tokens: tuple[str, ...] = ()
    provenance: tuple[str, int, int] = ("", 0, 0)

    def __post_init__(self) -> None:
        if not 0 <= self.verb_index < len(self.event_tokens):
            raise ValueError(f"verb_index {self.verb_index} out of bounds for "
                             f"{len(self.event_tokens)} event tokens")
        if self.value not in label_space(self.dimension):
            raise ValueError(f"label {self.value!r} not in the {self.dimension.value} space")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TemporalTuple":
        """The tuple of one tuple-file line, whose embedded event must be
        non-empty exactly when its dimension is hierarchy."""
        doc_id = obj.get("doc_id", "")
        if not isinstance(doc_id, str):
            raise SchemaError("doc_id must be a string")
        t = cls(
            event_tokens=_as_token_list(obj["event_tokens"], "event_tokens"),
            verb_index=_as_int(obj["verb_index"], "verb_index"),
            dimension=TemporalDimension.parse(obj["dimension"]),
            value=_as_str(obj["value"], "value"),
            arg_tmp_event_tokens=_as_token_list(obj.get("arg_tmp_event_tokens", []),
                                                "arg_tmp_event_tokens"),
            provenance=(doc_id, _as_int(obj.get("sent_index", 0), "sent_index"),
                        _as_int(obj.get("frame_ordinal", 0), "frame_ordinal")),
        )
        hierarchy = t.dimension is TemporalDimension.HIERARCHY
        if bool(t.arg_tmp_event_tokens) != hierarchy:
            raise SchemaError(f"arg_tmp_event_tokens must be {'non-empty' if hierarchy else 'empty'} "
                              f"on a {t.dimension.value} tuple")
        return t


_NUMBER_WORDS = {
    "one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
    "seven": 7, "eight": 8, "nine": 9, "ten": 10, "eleven": 11, "twelve": 12,
}

# Surface form -> unit name: each unit's singular and plural.
_UNIT_SURFACES = {surface: unit for unit in UNIT_ORDER
                  for surface in (unit, "centuries" if unit == "century" else unit + "s")}

_FREQ_ADVERB_PERIOD = {
    "annually": "year", "yearly": "year", "monthly": "month",
    "weekly": "week", "daily": "day", "hourly": "hour",
}

_FREQUENCY_TRIGGERS = frozenset({"every", "each", "per", "once", "twice", "times"}
                                | _FREQ_ADVERB_PERIOD.keys())

_INVALID_TYPICAL_PREPOSITIONS = frozenset({"until", "since", "following"})

_HIERARCHY_KEYWORDS = frozenset({"before", "after", "during", "while", "when"})

_UPPER_BOUND_MODIFIERS = frozenset({"next", "last", "previous", "recent"})


def _typical_keyword_table() -> dict[str, tuple[TemporalDimension, str]]:
    table: dict[str, tuple[TemporalDimension, str]] = {}
    for label in label_space(TemporalDimension.TYPICAL_DAY).labels:
        table[label.lower()] = (TemporalDimension.TYPICAL_DAY, label)
    for label in ("morning", "afternoon", "evening", "night"):
        table[label + "s"] = (TemporalDimension.TYPICAL_DAY, label)
    for label in label_space(TemporalDimension.TYPICAL_WEEK).labels:
        table[label.lower()] = (TemporalDimension.TYPICAL_WEEK, label)
        table[label.lower() + "s"] = (TemporalDimension.TYPICAL_WEEK, label)
    for label in label_space(TemporalDimension.TYPICAL_MONTH).labels:
        table[label.lower()] = (TemporalDimension.TYPICAL_MONTH, label)
    for label in label_space(TemporalDimension.TYPICAL_SEASON).labels:
        table[label.lower()] = (TemporalDimension.TYPICAL_SEASON, label)
        table[label.lower() + "s"] = (TemporalDimension.TYPICAL_SEASON, label)
    table["autumn"] = (TemporalDimension.TYPICAL_SEASON, "fall")
    table["autumns"] = (TemporalDimension.TYPICAL_SEASON, "fall")
    return table


_TYPICAL_KEYWORDS = _typical_keyword_table()

# Recurrence cycle for "every <typical keyword>": a day phase recurs daily,
# a weekday weekly, a month or season yearly.
_TYPICAL_CYCLE = {
    TemporalDimension.TYPICAL_DAY: "day",
    TemporalDimension.TYPICAL_WEEK: "week",
    TemporalDimension.TYPICAL_MONTH: "year",
    TemporalDimension.TYPICAL_SEASON: "year",
}


def parse_numeric(tokens: list[str] | tuple[str, ...], at: int) -> float | None:
    """Parse the one-token count at ``tokens[at]``: digit strings,
    one..twelve, a/an -> 1.

    Returns the positive, finite value, or None.
    """
    if not 0 <= at < len(tokens):
        return None
    surface = tokens[at].lower()
    if surface in ("a", "an"):
        return 1.0
    if surface in _NUMBER_WORDS:
        return float(_NUMBER_WORDS[surface])
    try:
        value = float(surface.replace(",", ""))
    except ValueError:
        return None
    if not math.isfinite(value) or value <= 0:
        return None
    return value


def _unit_near(seconds: float) -> str | None:
    """``nearest_unit`` of a count times a unit's seconds, or None when
    that product under- or overflows ("for 1e308 centuries" is inf s)."""
    return nearest_unit(seconds) if 0.0 < seconds < math.inf else None


def extract_duration(arg_tokens: list[str] | tuple[str, ...]) -> str | None:
    """Duration rule: argument starts with "for" + optional count + unit word.

    The ordinal sense of singular "second" ("for a second chance") is
    rejected whenever further lexical material follows the unit word.
    """
    lower = [t.lower() for t in arg_tokens]
    if not lower or lower[0] != "for":
        return None
    count = parse_numeric(lower, 1)
    i = 1 if count is None else 2
    if i >= len(lower) or lower[i] not in _UNIT_SURFACES:
        return None
    unit = _UNIT_SURFACES[lower[i]]
    if lower[i] == "second" and any(t.isalpha() for t in lower[i + 1:]):
        return None
    return _unit_near((count or 1.0) * UNIT_SECONDS[unit])


def _parse_period_seconds(lower: list[str], start: int) -> float | None:
    """Seconds spanned by the period phrase beginning at ``start``.

    Finds the first unit word (with an optional immediately-preceding
    count), frequency adverb, or typical-time keyword (mapped to its
    recurrence cycle).
    """
    for j in range(start, len(lower)):
        t = lower[j]
        if t in _UNIT_SURFACES:
            mult = parse_numeric(lower, j - 1) if j > start else None
            return (mult or 1.0) * UNIT_SECONDS[_UNIT_SURFACES[t]]
        if t in _FREQ_ADVERB_PERIOD:
            return float(UNIT_SECONDS[_FREQ_ADVERB_PERIOD[t]])
        if t in _TYPICAL_KEYWORDS:
            dim, _ = _TYPICAL_KEYWORDS[t]
            return float(UNIT_SECONDS[_TYPICAL_CYCLE[dim]])
    return None


def extract_frequency(arg_tokens: list[str] | tuple[str, ...]) -> str | None:
    """Frequency rule: a trigger keyword plus a recoverable period.

    The result is the unit nearest to (period seconds / occurrence count):
    "four times per week" recurs every 1.75 days, extracted as "day".
    Arguments containing "when" are rejected outright.
    """
    lower = [t.lower() for t in arg_tokens]
    if "when" in lower:
        return None
    trigger_idx = next((i for i, t in enumerate(lower) if t in _FREQUENCY_TRIGGERS), None)
    if trigger_idx is None:
        return None
    trigger = lower[trigger_idx]

    if trigger == "times":
        count = parse_numeric(lower, trigger_idx - 1)
        if count is None:
            return None
    elif trigger == "twice":
        count = 2.0
    else:
        count = 1.0

    # No trigger parses as a count, and an adverb trigger is its own period.
    period = _parse_period_seconds(lower, trigger_idx)
    return None if period is None else _unit_near(period / count)


def extract_typical_time(arg_tokens: list[str] | tuple[str, ...]) -> tuple[TemporalDimension, str] | None:
    """Typical-time rule: first time-of-day/weekday/month/season keyword.

    Arguments containing "until"/"since"/"following" do not describe an
    occurrence time and are filtered out.
    """
    lower = [t.lower() for t in arg_tokens]
    if any(t in _INVALID_TYPICAL_PREPOSITIONS for t in lower):
        return None
    for t in lower:
        if t in _TYPICAL_KEYWORDS:
            return _TYPICAL_KEYWORDS[t]
    return None


def extract_upper_bound(arg_tokens: list[str] | tuple[str, ...]) -> str | None:
    """Upper-bound rule: "in" + count + unit, "yesterday", or
    next/last/previous/recent + unit ("last week" bounds the event by a week)."""
    lower = [t.lower() for t in arg_tokens]
    if not lower:
        return None
    if lower[0] == "in":
        count = parse_numeric(lower, 1)
        if count is not None and len(lower) > 2 and lower[2] in _UNIT_SURFACES:
            return _unit_near(count * UNIT_SECONDS[_UNIT_SURFACES[lower[2]]])
    for i, t in enumerate(lower):
        if t == "yesterday":
            return "day"
        if t in _UPPER_BOUND_MODIFIERS and i + 1 < len(lower) and lower[i + 1] in _UNIT_SURFACES:
            return _UNIT_SURFACES[lower[i + 1]]
    return None


def extract_hierarchy(arg_tokens: list[str] | tuple[str, ...]) -> tuple[str, list[str]] | None:
    """Hierarchy rule: argument-initial before/after/during/while/when.

    "while" merges into "during". The remainder of the argument is the
    embedded event phrase and must be non-empty.
    """
    if not arg_tokens:
        return None
    keyword = arg_tokens[0].lower()
    if keyword not in _HIERARCHY_KEYWORDS:
        return None
    rest = list(arg_tokens[1:])
    if not rest:
        return None
    label = "during" if keyword in ("during", "while") else keyword
    return label, rest


# What a rule makes of an argument's tokens: (dimension, value, embedded tokens), or None.
_Match = tuple[TemporalDimension, str, Sequence[str]] | None


def _tagged(dimension: TemporalDimension,
            extract: Callable[[Sequence[str]], str | None]) -> Callable[[Sequence[str]], _Match]:
    """The rule that tags ``extract``'s value with ``dimension``; it embeds no tokens."""
    def rule(arg_tokens: Sequence[str]) -> _Match:
        value = extract(arg_tokens)
        return None if value is None else (dimension, value, ())
    return rule


def _hierarchy_rule(arg_tokens: Sequence[str]) -> _Match:
    found = extract_hierarchy(arg_tokens)
    return None if found is None else (TemporalDimension.HIERARCHY, *found)


def _typical_time_rule(arg_tokens: Sequence[str]) -> _Match:
    found = extract_typical_time(arg_tokens)
    return None if found is None else (*found, ())


# The order is the precedence: an argument takes the first rule that matches it.
_RULES = (
    _hierarchy_rule,
    _tagged(TemporalDimension.FREQUENCY, extract_frequency),
    _tagged(TemporalDimension.DURATION, extract_duration),
    _tagged(TemporalDimension.UPPER_BOUND, extract_upper_bound),
    _typical_time_rule,
)


def _delete_span(tokens: tuple[str, ...], span: tuple[int, int], verb_index: int) -> tuple[tuple[str, ...], int]:
    start, end = span
    remaining = tokens[:start] + tokens[end:]
    new_verb = verb_index if verb_index < start else verb_index - (end - start)
    return remaining, new_verb


def classify_temporal_argument(
    sentence: SrlSentence,
    frame: SrlFrame,
    span: tuple[int, int],
    frame_ordinal: int = 0,
) -> list[TemporalTuple]:
    """Classify one temporal argument; returns at most one tuple.

    The emitted event keeps every sentence token outside the argument
    span, with the verb index re-pointed at the same surface token.
    """
    arg_tokens = sentence.tokens[span[0]:span[1]]
    for rule in _RULES:
        match = rule(arg_tokens)
        if match is not None:
            break
    else:
        return []
    dimension, value, embedded = match

    event_tokens, verb_index = _delete_span(sentence.tokens, span, frame.verb_index)
    if not event_tokens:
        return []
    return [
        TemporalTuple(
            event_tokens=event_tokens,
            verb_index=verb_index,
            dimension=dimension,
            value=value,
            arg_tmp_event_tokens=tuple(embedded),
            provenance=(sentence.doc_id, sentence.sent_index, frame_ordinal),
        )
    ]


def _json_strings(tokens: Iterable[str]) -> str:
    return f"[{', '.join(map(encode_basestring_ascii, tokens))}]"


def _tuple_line(t: TemporalTuple) -> str:
    """The tuple-file line of ``t``: what ``json.dumps(..., sort_keys=True)``
    writes for its keys, formatted without building the dict."""
    doc_id, sent_index, frame_ordinal = t.provenance
    return (f'{{"arg_tmp_event_tokens": {_json_strings(t.arg_tmp_event_tokens)}, '
            f'"dimension": {encode_basestring_ascii(t.dimension.value)}, '
            f'"doc_id": {encode_basestring_ascii(doc_id)}, '
            f'"event_tokens": {_json_strings(t.event_tokens)}, '
            f'"frame_ordinal": {frame_ordinal}, "sent_index": {sent_index}, '
            f'"value": {encode_basestring_ascii(t.value)}, "verb_index": {t.verb_index}}}')


def write_tuples_jsonl(path: str, tuples: Iterable[TemporalTuple],
                       header_lines: Sequence[str] = ()) -> None:
    write_text(path, header_lines, map(_tuple_line, tuples))


def read_tuples_jsonl(path: str) -> list[TemporalTuple]:
    """Every tuple of a tuple file; a line with a missing key, a bad value
    or bytes that are not UTF-8 raises SchemaError as ``path:line``."""
    return parse_json_lines(text_lines(path), path, TemporalTuple.from_json_dict)


def extract_sentence(sentence: SrlSentence) -> list[TemporalTuple]:
    """All tuples minable from one sentence, one candidate per
    (frame, temporal argument) pair, in frame-then-argument order."""
    tuples: list[TemporalTuple] = []
    for frame_ordinal, frame in enumerate(sentence.frames):
        for role, span in frame.arguments:
            if is_temporal_role(role):
                tuples.extend(classify_temporal_argument(sentence, frame, span, frame_ordinal))
    return tuples
