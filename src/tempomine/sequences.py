"""Token vocabulary, training-sequence template, masking, and record IO.

A mined tuple becomes one token-id sequence:

    [W1 .. [Vrb] W_verb .. Wn] [SEP] [Vrb] [Dim:d] [Val:d:v] [embedded..]

where [Vrb] is a single marker token inserted left of the verb and repeated
after [SEP], and the embedded tail is non-empty only for hierarchy tuples.
Masking then selects the [Val] slot, the [Dim] slot, or (when neither was
selected) individual event tokens, and each selected slot goes through the
80/10/10 mask/keep/randomize branches.

Vocabulary id layout: 0..3 are [PAD]/[UNK]/[MASK]/[SEP], corpus words
follow from id 4 ordered by descending count then token, and the reserved
block ([Vrb], every [Dim:*], every [Val:*:*] grouped by dimension) sits
above the words. Random replacement draws word ids only.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from collections import Counter
from contextlib import closing
from collections.abc import Iterable, Sequence
from json.encoder import encode_basestring_ascii

import numpy as np

from .extraction import TemporalTuple
from .label_space import TemporalDimension, label_space
from .srl_ingest import SchemaError, _as_int, parse_json_lines, text_lines, write_text
from .targets import soft_target

__all__ = [
    "PAD_TOKEN", "UNK_TOKEN", "MASK_TOKEN", "SEP_TOKEN", "VERB_MARKER",
    "PAD_ID", "UNK_ID", "MASK_ID", "SEP_ID",
    "dim_token", "val_token",
    "Vocabulary", "build_vocabulary",
    "BuiltSequence", "build_sequence",
    "MaskingConfig", "MaskTarget", "TrainingRecord", "apply_masking", "val_targets",
    "record_from_json_dict",
    "write_records_jsonl", "read_records_jsonl", "dataset_vocab_sha256",
    "MAX_SEQUENCE_LENGTH", "MIN_SEQUENCE_LENGTH",
]

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
MASK_TOKEN = "[MASK]"
SEP_TOKEN = "[SEP]"
VERB_MARKER = "[Vrb]"

PAD_ID = 0
UNK_ID = 1
MASK_ID = 2
SEP_ID = 3
_SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, MASK_TOKEN, SEP_TOKEN)  # at their ids

MAX_SEQUENCE_LENGTH = 128
# The shortest template: [Vrb], one event word, then [SEP] [Vrb] [Dim] [Val].
MIN_SEQUENCE_LENGTH = 6

_DIMENSIONS = tuple(TemporalDimension)


def dim_token(dimension: TemporalDimension) -> str:
    return f"[Dim:{dimension.value}]"


def val_token(dimension: TemporalDimension, label: str) -> str:
    return f"[Val:{dimension.value}:{label}]"


@dataclass(frozen=True)
class Vocabulary:
    """Immutable token <-> id tables with the reserved block on top."""

    id_to_token: tuple[str, ...]
    token_to_id: dict[str, int]
    word_id_start: int
    word_id_end: int  # exclusive: [word_id_start, word_id_end) are corpus words

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode_word(self, token: str) -> int:
        """Corpus text maps to word ids only; anything else becomes [UNK]."""
        wid = self.token_to_id.get(token, UNK_ID)
        if self.word_id_start <= wid < self.word_id_end:
            return wid
        return UNK_ID

    @property
    def verb_marker_id(self) -> int:
        return self.token_to_id[VERB_MARKER]

    def dim_id(self, dimension: TemporalDimension) -> int:
        return self.token_to_id[dim_token(dimension)]

    def val_id(self, dimension: TemporalDimension, label: str) -> int:
        return self.token_to_id[val_token(dimension, label)]

    def val_block(self, dimension: TemporalDimension) -> tuple[int, tuple[str, ...]]:
        """(first id, labels) of the dimension's contiguous [Val] id block."""
        labels = label_space(dimension).labels
        return self.val_id(dimension, labels[0]), labels

    def to_tsv_lines(self) -> list[str]:
        return [f"{tok}\t{i}" for i, tok in enumerate(self.id_to_token)]

    def sha256(self) -> str:
        """Hex sha256 of the TSV rows: the bytes of a vocabulary file below its header."""
        rows = "".join(f"{row}\n" for row in self.to_tsv_lines())
        return hashlib.sha256(rows.encode("utf-8")).hexdigest()

    @classmethod
    def from_tsv_lines(cls, lines: Iterable[str], source: str = "<vocabulary>") -> "Vocabulary":
        """Parse ``token<TAB>id`` rows after an optional '#' header; a row
        out of id order raises SchemaError as ``source:line``, any other
        defect naming ``source``."""
        id_to_token: list[str] = []
        for line_no, line in enumerate(lines, start=1):
            line = line.rstrip("\n")
            # A word may start with '#', so only lines above the first row are header.
            if not line or (line.startswith("#") and not id_to_token):
                continue
            tok, _, idx = line.rpartition("\t")
            if idx.strip() != str(len(id_to_token)):
                raise SchemaError(f"{source}:{line_no}: vocabulary ids must be dense, "
                                  f"expected {len(id_to_token)}, got {idx!r}")
            id_to_token.append(tok)
        try:
            return cls._from_tokens(tuple(id_to_token))
        except ValueError as exc:
            raise SchemaError(f"{source}: {exc}") from exc

    @classmethod
    def _from_tokens(cls, id_to_token: tuple[str, ...]) -> "Vocabulary":
        """The vocabulary of the module docstring's id layout; ValueError
        naming the first id that breaks it, or a duplicate token."""
        token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
        if len(token_to_id) != len(id_to_token):
            raise ValueError("duplicate token in vocabulary")
        reserved = _reserved_tokens()
        word_end = len(id_to_token) - len(reserved)
        if word_end < len(_SPECIAL_TOKENS):
            raise ValueError(f"{len(id_to_token)} tokens cannot hold the special and reserved ones")
        for i, tok in (*enumerate(_SPECIAL_TOKENS), *enumerate(reserved, start=word_end)):
            if id_to_token[i] != tok:
                raise ValueError(f"id {i} must be {tok}, got {id_to_token[i]}")
        return cls(id_to_token, token_to_id, len(_SPECIAL_TOKENS), word_end)


def _val_labels() -> list[tuple[TemporalDimension, str]]:
    """Every (dimension, label) pair in [Val] id order."""
    return [(d, lab) for d in _DIMENSIONS for lab in label_space(d).labels]


def _reserved_tokens() -> list[str]:
    return [VERB_MARKER, *map(dim_token, _DIMENSIONS),
            *(val_token(d, lab) for d, lab in _val_labels())]


def val_targets(targets: str, sigma_log: float, sigma_circular: float) -> np.ndarray:
    """The (n, n) target table of the n [Val] ids, the last ids of every
    vocabulary: row k is the k-th [Val] label's ``soft_target`` on its
    dimension's block for "soft", and one-hot for "hard"."""
    pairs = _val_labels()
    table = np.eye(len(pairs))
    if targets == "soft":
        for k, (dimension, label) in enumerate(pairs):
            start = k - label_space(dimension).index(label)
            row = soft_target(dimension, label, sigma_log=sigma_log, sigma_circular=sigma_circular)
            table[k, start : start + len(row)] = row
    return table


def build_vocabulary(
    token_sequences: Iterable[Sequence[str]],
    min_count: int = 1,
) -> Vocabulary:
    """Count corpus words and lay out the full id space.

    Words ordered by (-count, token). Bracketed surfaces that collide
    with the special-token format, and tokens holding a line break, which
    no vocabulary TSV row can carry, are dropped from the word list.
    """
    counts: Counter[str] = Counter()
    for seq in token_sequences:
        counts.update(seq)
    words = sorted(
        (tok for tok, c in counts.items()
         if c >= min_count and not (tok.startswith("[") and tok.endswith("]"))
         and "\n" not in tok and "\r" not in tok),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary._from_tokens((*_SPECIAL_TOKENS, *words, *_reserved_tokens()))


@dataclass(frozen=True)
class BuiltSequence:
    """Token ids plus the slot geometry masking needs."""

    ids: tuple[int, ...]
    val_position: int
    dim_position: int
    event_positions: tuple[int, ...]  # maskable event word slots, verb surface included
    dimension: TemporalDimension


def _truncate_event(tokens: list[str], verb_index: int, budget: int) -> tuple[list[str], int]:
    """Keep the ``budget`` (at least 1) event tokens nearest the verb, in order.

    Equidistant candidates lose from the right. The verb, at distance 0,
    survives.
    """
    nearest = sorted(range(len(tokens)), key=lambda i: (abs(i - verb_index), i))
    keep = sorted(nearest[:budget])
    return [tokens[i] for i in keep], keep.index(verb_index)


def build_sequence(
    tup: TemporalTuple,
    vocab: Vocabulary,
    left_context: Sequence[str] = (),
    right_context: Sequence[str] = (),
    max_length: int = MAX_SEQUENCE_LENGTH,
) -> BuiltSequence:
    """Assemble the template for one tuple.

    Over-length sequences lose context tokens first (right context from
    its far end, then left context from its far end), then event tokens
    farthest from the verb. The verb, its marker, and the tail block are
    never dropped.
    """
    if max_length < MIN_SEQUENCE_LENGTH:
        raise ValueError(f"maximum sequence length {max_length} cannot hold the template "
                         f"(at least {MIN_SEQUENCE_LENGTH})")
    tail_words = list(tup.arg_tmp_event_tokens)
    # [SEP] [Vrb] [Dim] [Val] plus the embedded phrase
    tail_len = 4 + len(tail_words)
    event_tokens = list(tup.event_tokens)
    verb_index = tup.verb_index
    left = list(left_context)
    right = list(right_context)

    # Event part carries one marker token in addition to its words.
    def total() -> int:
        return len(left) + len(event_tokens) + 1 + len(right) + tail_len

    while total() > max_length and right:
        right.pop()
    while total() > max_length and left:
        left.pop(0)
    event_budget = max_length - tail_len - 1
    if event_budget < 1:
        # Trim the embedded tail from its right; MIN_SEQUENCE_LENGTH
        # guarantees that dropping all of it is enough.
        overflow = tail_len - (max_length - 2)
        tail_words = tail_words[: len(tail_words) - overflow]
        tail_len = 4 + len(tail_words)
        event_budget = max_length - tail_len - 1
    if len(event_tokens) > event_budget:
        event_tokens, verb_index = _truncate_event(event_tokens, verb_index, event_budget)

    ids: list[int] = []
    event_positions: list[int] = []
    for tok in left:
        ids.append(vocab.encode_word(tok))
    for i, tok in enumerate(event_tokens):
        if i == verb_index:
            ids.append(vocab.verb_marker_id)
        event_positions.append(len(ids))
        ids.append(vocab.encode_word(tok))
    for tok in right:
        ids.append(vocab.encode_word(tok))
    ids.append(SEP_ID)
    ids.append(vocab.verb_marker_id)
    dim_position = len(ids)
    ids.append(vocab.dim_id(tup.dimension))
    val_position = len(ids)
    ids.append(vocab.val_id(tup.dimension, tup.value))
    for tok in tail_words:
        ids.append(vocab.encode_word(tok))

    assert len(ids) <= max_length
    return BuiltSequence(
        ids=tuple(ids),
        val_position=val_position,
        dim_position=dim_position,
        event_positions=tuple(event_positions),
        dimension=tup.dimension,
    )


@dataclass(frozen=True)
class MaskingConfig:
    p_mask: float = 0.6
    p_dim: float = 0.1
    p_event: float = 0.15

    def __post_init__(self) -> None:
        for name in ("p_mask", "p_dim", "p_event"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")


@dataclass(frozen=True)
class MaskTarget:
    """One selected slot and the original id it restores."""

    position: int
    token_id: int


@dataclass(frozen=True)
class TrainingRecord:
    input_ids: tuple[int, ...]
    targets: tuple[MaskTarget, ...]
    weight: float
    dimension: TemporalDimension
    val_position: int

    @property
    def val_token_id(self) -> int:
        """The gold [Val] id: the slot's target if it has one, else its input id."""
        for t in self.targets:
            if t.position == self.val_position:
                return t.token_id
        return self.input_ids[self.val_position]


def apply_masking(
    built: BuiltSequence,
    cfg: MaskingConfig,
    vocab: Vocabulary,
    rng: "np.random.Generator",
    weight: float = 1.0,
) -> TrainingRecord:
    """Select slots and run each through the 80/10/10 branches.

    Draw order is pinned for reproducibility: the [Val] draw, the [Dim]
    draw, per-event-token draws in position order (only when both slot
    draws missed), then one branch draw per selected position ascending
    (plus one id draw on the randomize branch). Random ids come from the
    word range only, never the special block.
    """
    selected: list[int] = []
    if rng.random() < cfg.p_mask:
        selected.append(built.val_position)
    if rng.random() < cfg.p_dim:
        selected.append(built.dim_position)
    if not selected:
        for pos in built.event_positions:
            if rng.random() < cfg.p_event:
                selected.append(pos)
    selected.sort()

    ids = list(built.ids)
    targets: list[MaskTarget] = []
    for pos in selected:
        targets.append(MaskTarget(pos, ids[pos]))
        branch = rng.random()
        if branch < 0.8:
            ids[pos] = MASK_ID
        elif branch < 0.9:
            pass
        else:
            if vocab.word_id_end <= vocab.word_id_start:
                raise ValueError("vocabulary has no word ids to draw noise from")
            ids[pos] = int(rng.integers(vocab.word_id_start, vocab.word_id_end))

    return TrainingRecord(
        input_ids=tuple(ids),
        targets=tuple(targets),
        weight=float(weight),
        dimension=built.dimension,
        val_position=built.val_position,
    )


def _target_from_json_dict(t: dict) -> MaskTarget:
    if "soft" in t:
        raise ValueError("target holds a stored soft row, which records no longer carry; "
                         "rebuild the dataset with build-dataset")
    return MaskTarget(position=_as_int(t["position"], "target position"),
                      token_id=_as_int(t["token_id"], "target token_id"))


def record_from_json_dict(obj: dict) -> TrainingRecord:
    """The record ``obj`` holds; ValueError unless its ids and slots are
    JSON integers, its targets a list of objects and its weight a JSON
    number (a bool is neither)."""
    ids, weight, targets = obj["input_ids"], obj["weight"], obj["targets"]
    if not isinstance(ids, list):
        raise ValueError(f"input_ids must be a list of integers, got {json.dumps(ids)}")
    if not isinstance(targets, list) or not all(isinstance(t, dict) for t in targets):
        raise ValueError(f"targets must be a list of objects, got {json.dumps(targets)}")
    if not {int}.issuperset(map(type, ids)):  # one pass for the common, valid case
        for i, token_id in enumerate(ids):
            _as_int(token_id, f"input_ids[{i}]")
    if not isinstance(weight, (int, float)) or isinstance(weight, bool):
        raise ValueError(f"weight must be a number, got {json.dumps(weight)}")
    return TrainingRecord(
        input_ids=tuple(ids),
        targets=tuple(map(_target_from_json_dict, targets)),
        weight=float(weight),
        dimension=TemporalDimension.parse(obj["dimension"]),
        val_position=_as_int(obj["val_position"], "val_position"),
    )


def _record_line(rec: TrainingRecord) -> str:
    """The dataset line of ``rec``: what ``json.dumps(..., sort_keys=True)``
    writes for its keys, formatted without building the dict."""
    targets = ", ".join([f'{{"position": {t.position}, "token_id": {t.token_id}}}'
                         for t in rec.targets])
    # json.dumps writes a float as its repr, and NaN and the infinities by name.
    weight = repr(rec.weight) if math.isfinite(rec.weight) else json.dumps(rec.weight)
    return (f'{{"dimension": {encode_basestring_ascii(rec.dimension.value)}, '
            f'"input_ids": [{", ".join(map(str, rec.input_ids))}], "targets": [{targets}], '
            f'"val_position": {rec.val_position}, "weight": {weight}}}')


def write_records_jsonl(path: str, records: Iterable[TrainingRecord], header_lines: Sequence[str] = ()) -> None:
    write_text(path, header_lines, map(_record_line, records))


def _check_record(record: TrainingRecord, vocab: Vocabulary) -> TrainingRecord:
    """``record`` itself if its ids fit ``vocab``, its slots fit the record,
    its [Val] slot holds an id of its dimension's [Val] block and its
    weight is finite and positive; otherwise ValueError naming the first
    defect."""
    if not math.isfinite(record.weight) or record.weight <= 0:
        raise ValueError(f"weight must be finite and positive, got {record.weight}")
    length, vocab_size = len(record.input_ids), len(vocab)
    for token_id in record.input_ids:
        if not 0 <= token_id < vocab_size:
            raise ValueError(f"input id {token_id} outside the {vocab_size}-token vocabulary")
    if not 0 <= record.val_position < length:
        raise ValueError(f"val_position {record.val_position} outside the record's {length} ids")
    for t in record.targets:
        if not 0 <= t.position < length:
            raise ValueError(f"target position {t.position} outside the record's {length} ids")
        if not 0 <= t.token_id < vocab_size:
            raise ValueError(f"target token_id {t.token_id} outside the "
                             f"{vocab_size}-token vocabulary")
    start, labels = vocab.val_block(record.dimension)
    if not start <= record.val_token_id < start + len(labels):
        raise ValueError(f"[Val] slot {record.val_position} holds id {record.val_token_id}, "
                         f"not a {record.dimension.value} [Val] id "
                         f"({start}..{start + len(labels) - 1})")
    return record


def read_records_jsonl(path: str, vocab: Vocabulary) -> list[TrainingRecord]:
    """Every record of a JSONL dataset for ``vocab``.

    A line with a missing key, a bad value, an id outside the vocabulary,
    a slot outside its record, a [Val] slot without a [Val] id of its
    dimension, a weight that is not finite and positive, a stored soft
    row (a dataset of an earlier format) or bytes that are not UTF-8
    raises SchemaError as ``path:line``.
    """
    return parse_json_lines(text_lines(path), path,
                            lambda obj: _check_record(record_from_json_dict(obj), vocab))


def dataset_vocab_sha256(path: str) -> str | None:
    """The ``vocab_sha256`` a dataset's '#' header states (see
    ``Vocabulary.sha256``), or None if its header states none."""
    with closing(text_lines(path)) as lines:
        for line in lines:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].strip().partition("=")
            if key == "vocab_sha256":
                return value
    return None
