"""Planted-rule synthetic corpus for end-to-end mechanism checks.

Each verb is deterministically tied to one (dimension, value) pair, and
every generated sentence realizes that pair through a surface form the
extraction rules recover exactly. Training on mined tuples from such a
corpus must therefore drive held-out predictions toward the planted
labels; that is the property the test suite measures.

The corpus stays on ordinal dimensions (duration, frequency, upper
bound, typical times) because the planted check scores rank distance.
"""

from dataclasses import dataclass

from .extraction import TemporalTuple
from .label_space import TemporalDimension
from .seeding import stream_rng
from .srl_ingest import SrlFrame, SrlSentence

__all__ = [
    "VerbRule",
    "PLANTED_RULES",
    "planted_argument",
    "generate_corpus",
    "split_sentences",
    "planted_eval_instances",
]


@dataclass(frozen=True)
class VerbRule:
    verb: str
    dimension: TemporalDimension
    value: str


PLANTED_RULES: tuple[VerbRule, ...] = (
    VerbRule("blinked", TemporalDimension.DURATION, "second"),
    VerbRule("paused", TemporalDimension.DURATION, "minute"),
    VerbRule("rehearsed", TemporalDimension.DURATION, "hour"),
    VerbRule("traveled", TemporalDimension.DURATION, "day"),
    VerbRule("camped", TemporalDimension.DURATION, "week"),
    VerbRule("renovated", TemporalDimension.DURATION, "month"),
    VerbRule("studied", TemporalDimension.DURATION, "year"),
    VerbRule("governed", TemporalDimension.DURATION, "decade"),
    VerbRule("endured", TemporalDimension.DURATION, "century"),
    VerbRule("snacked", TemporalDimension.FREQUENCY, "hour"),
    VerbRule("exercised", TemporalDimension.FREQUENCY, "day"),
    VerbRule("shopped", TemporalDimension.FREQUENCY, "week"),
    VerbRule("invoiced", TemporalDimension.FREQUENCY, "month"),
    VerbRule("vacationed", TemporalDimension.FREQUENCY, "year"),
    VerbRule("sprinted", TemporalDimension.UPPER_BOUND, "minute"),
    VerbRule("emailed", TemporalDimension.UPPER_BOUND, "hour"),
    VerbRule("commuted", TemporalDimension.TYPICAL_DAY, "morning"),
    VerbRule("dreamed", TemporalDimension.TYPICAL_DAY, "night"),
    VerbRule("worshipped", TemporalDimension.TYPICAL_WEEK, "Sunday"),
    VerbRule("audited", TemporalDimension.TYPICAL_WEEK, "Friday"),
    VerbRule("brunched", TemporalDimension.TYPICAL_WEEK, "Saturday"),
    VerbRule("harvested", TemporalDimension.TYPICAL_MONTH, "October"),
    VerbRule("skied", TemporalDimension.TYPICAL_MONTH, "January"),
    VerbRule("planted", TemporalDimension.TYPICAL_SEASON, "spring"),
    VerbRule("hibernated", TemporalDimension.TYPICAL_SEASON, "winter"),
)

_SUBJECTS: tuple[tuple[str, ...], ...] = (
    ("the", "teacher"),
    ("the", "nurse"),
    ("a", "farmer"),
    ("the", "committee"),
    ("my", "neighbor"),
    ("the", "student"),
    ("a", "tourist"),
    ("the", "engineer"),
    ("her", "brother"),
    ("the", "mayor"),
)

_FILLERS: tuple[tuple[str, ...], ...] = (
    (),
    ("quietly",),
    ("together",),
    ("downtown",),
    ("with", "great", "care"),
    ("near", "the", "station"),
)


def planted_argument(rule: VerbRule) -> list[str]:
    """Temporal-argument surface that extraction maps back to the rule."""
    d = rule.dimension
    if d is TemporalDimension.DURATION:
        article = "an" if rule.value == "hour" else "a"
        return ["for", article, rule.value]
    if d is TemporalDimension.FREQUENCY:
        return ["every", rule.value]
    if d is TemporalDimension.UPPER_BOUND:
        article = "an" if rule.value == "hour" else "a"
        return ["in", article, rule.value]
    if d is TemporalDimension.TYPICAL_DAY:
        return ["at", rule.value]
    if d is TemporalDimension.TYPICAL_WEEK:
        return ["on", rule.value]
    if d in (TemporalDimension.TYPICAL_MONTH, TemporalDimension.TYPICAL_SEASON):
        return ["in", rule.value]
    raise ValueError(f"no planted surface for dimension {d.value}")


def _compose(rule: VerbRule, subject: tuple[str, ...], filler: tuple[str, ...],
             doc_id: str, sent_index: int) -> SrlSentence:
    tokens = list(subject) + [rule.verb] + list(filler)
    span_start = len(tokens)
    tokens.extend(planted_argument(rule))
    frame = SrlFrame(
        verb_index=len(subject),
        arguments=(("ARGM-TMP", (span_start, len(tokens))),),
    )
    return SrlSentence(
        doc_id=doc_id,
        sent_index=sent_index,
        tokens=tuple(tokens),
        frames=(frame,),
    )


def generate_corpus(n_sentences: int = 6000, seed: int = 0) -> list[SrlSentence]:
    """Seeded sentences, one temporal frame each, rule chosen uniformly."""
    if n_sentences <= 0:
        raise ValueError("n_sentences must be positive")
    sentences = []
    for i in range(n_sentences):
        rng = stream_rng(seed, "synthetic", i)
        rule = PLANTED_RULES[int(rng.integers(len(PLANTED_RULES)))]
        subject = _SUBJECTS[int(rng.integers(len(_SUBJECTS)))]
        filler = _FILLERS[int(rng.integers(len(_FILLERS)))]
        sentences.append(_compose(rule, subject, filler, f"synth-{i:06d}", 0))
    return sentences


def split_sentences(
    sentences: list[SrlSentence],
    seed: int,
    train_fraction: float = 0.9,
) -> tuple[list[SrlSentence], list[SrlSentence]]:
    """Per-sentence coin-flip split keyed on position, order-preserving."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    train, test = [], []
    for i, sentence in enumerate(sentences):
        if stream_rng(seed, "split", i).random() < train_fraction:
            train.append(sentence)
        else:
            test.append(sentence)
    return train, test


def _rule_for_verb(verb: str) -> VerbRule:
    for rule in PLANTED_RULES:
        if rule.verb == verb:
            return rule
    raise KeyError(f"no planted rule for verb {verb!r}")


def planted_eval_instances(sentences: list[SrlSentence]) -> list[TemporalTuple]:
    """Gold events: each sentence minus its temporal argument, valued with
    its verb's planted label."""
    instances = []
    for sentence in sentences:
        frame = sentence.frames[0]
        (_, (start, end)),= frame.arguments
        event = sentence.tokens[:start] + sentence.tokens[end:]
        rule = _rule_for_verb(sentence.tokens[frame.verb_index])
        instances.append(
            TemporalTuple(
                event_tokens=event,
                verb_index=frame.verb_index,
                dimension=rule.dimension,
                value=rule.value,
            )
        )
    return instances
