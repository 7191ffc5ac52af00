"""The damage matrix: each file the CLI reads, each way it can be damaged,
and what each command that reads it must then do.

A check is a (file kind, damage, command) triple. ``damage`` builds the
damaged copy of the kind's ``pipeline`` file and the ERROR line it gives;
``check`` runs the command on it and asserts:
- the documented exit code, which is never 1;
- stderr is exactly the expected ``ERROR code=N`` line, which names the
  file, as ``path:line`` when a line is at fault (``build-dataset --ms``
  warns of a corpus record it skips first);
- no file is written.
``extract`` without ``--strict`` skips a damaged corpus record: it exits
0, and its one warning names the record as ``path:line``.

Each check runs once, in ``MATRIX`` under the id ``kind-damage-command``.
"""

import dataclasses
import json
import struct
from dataclasses import dataclass
from types import SimpleNamespace

from tempomine import cli
from tempomine.label_space import TemporalDimension, label_space
from tempomine.model import TrainConfig
from tempomine.sequences import Vocabulary
from tempomine.srl_ingest import text_lines

# Each file kind: its pipeline file, and the commands that read it. Eval
# instances are query lines with a gold label, so one file serves both.
KINDS = {
    "corpus": ("corpus", ("extract --strict", "build-dataset --ms")),
    "tuples": ("tuples", ("build-dataset", "stats")),
    "records": ("dataset", ("train",)),
    "vocabulary": ("vocab", ("train", "eval", "predict --input", "predict --event")),
    "checkpoint": ("model", ("eval", "predict --event")),
    "instances": ("instances", ("eval",)),
    "queries": ("instances", ("predict --input",)),
}


def argv(command, files, out):
    """The argv of ``command`` reading ``files`` (pipeline key -> path)."""
    model = ["--model", files["model"], "--vocab", files["vocab"]]
    return [*{
        "extract": ["extract", "--input", files["corpus"]],
        "extract --strict": ["extract", "--strict", "--input", files["corpus"]],
        "build-dataset": ["build-dataset", "--input", files["tuples"]],
        "build-dataset --ms": ["build-dataset", "--ms", "--corpus", files["corpus"],
                               "--input", files["tuples"]],
        "stats": ["stats", "--input", files["tuples"]],
        "train": ["train", "--input", files["dataset"], "--vocab", files["vocab"], "--epochs", "1"],
        "eval": ["eval", "--input", files["instances"], *model],
        "predict --input": ["predict", "--input", files["instances"], *model],
        "predict --event": ["predict", "--event", "they met", "--verb-index", "1",
                            "--dimension", "duration", *model],
    }[command], "--output", out]


@dataclass(frozen=True)
class Damage:
    """A damaged file (``data``; None leaves it missing) and the ERROR line
    it gives after ``code=N``: ``message``, after ``path:line: `` when
    ``line`` is set. ``skipped`` is the (doc_id, sent_index) of a corpus
    record that the corpus reader skips."""

    data: bytes | None
    code: int
    message: str
    line: int | None = None
    skipped: tuple[str, int] | None = None


def check(pipeline, tmp_path, capsys, kind, name, command):
    """Run ``command`` on the ``name`` damage of the ``kind`` file and
    assert the contract of the module docstring."""
    source = KINDS[kind][0]
    bad = tmp_path / f"damaged-{pipeline[source].name}"
    files = {key: str(path) for key, path in pipeline.items()} | {source: str(bad)}
    found = damage(pipeline, files, kind, name, command)
    if found.data is not None:
        bad.write_bytes(found.data)
    at = f"{bad}:{found.line}: {found.message}" if found.line else found.message
    code, expected = found.code, [f"ERROR code={found.code} {at}"]
    if found.skipped and command == "extract":
        code, expected = 0, [f"skipping malformed record at {at}"]
    elif found.skipped and command == "build-dataset --ms":
        expected = [f"skipping malformed record at {at}",
                    f"ERROR code=4 {files['tuples']}: a tuple's sentence (doc_id, sent_index) "
                    f"= {found.skipped} is not in {bad}; {bad}:{found.line} was skipped as "
                    f"malformed: {found.message}"]
    capsys.readouterr()
    assert cli.main(argv(command, files, str(tmp_path / "out"))) == code
    printed = capsys.readouterr()
    assert printed.err.splitlines() == expected
    assert str(bad) in expected[-1]
    if code:
        assert list(tmp_path.iterdir()) == ([] if found.data is None else [bad])
    else:
        assert printed.out.endswith(" (1 records skipped)\n")


_GONE = object()  # the value of a key that the damage deletes


def _edited(data, row, path, value):
    """``data`` with the key at ``path`` (keys and list indices) of the
    object on line index ``row`` set to ``value`` (a function of the
    object, or _GONE), and the edited object."""
    lines = data.splitlines(keepends=True)
    obj = json.loads(lines[row])
    *steps, last = (path,) if isinstance(path, str) else path
    value = value(obj) if callable(value) else value
    node = obj
    for step in steps:
        node = node[step]
    if value is _GONE:
        del node[last]
    else:
        node[last] = value
    lines[row] = json.dumps(obj).encode() + b"\n"
    return b"".join(lines), obj


def _first(lines):
    """The index of the first line below the '#' header."""
    return next(i for i, line in enumerate(lines) if not line.startswith(b"#"))


def _key(line):
    obj = json.loads(line)
    return obj["doc_id"], obj["sent_index"]


# The lines that are JSON but no object, by name.
NOT_OBJECTS = {"list": "[1, 2]", "number": "5", "string": '"x"', "null": "null"}
_FILE_DAMAGES = ("missing", "empty", "header-only", "truncated-first", "truncated-middle",
                 "truncated-last", "not-utf8")

# Line defects of each JSON-lines kind: (key path, value, message), set on
# the first line below the header. A message that is a function is given
# the damaged row: the edited object's keys, and ``n``, its token count.
# A dimension that is not one of the eight names gives this, then the
# value as JSON.
NOT_A_DIMENSION = ("dimension must be one of: duration, frequency, upper_bound, typical_day, "
                   "typical_week, typical_month, typical_season, hierarchy; got ")
# Queries and eval instances go through one parser.
QUERY_DEFECTS = {
    "string-tokens": ("event_tokens", "they met", "event_tokens must be a list of strings"),
    "empty-token": (("event_tokens", 0), "", "event_tokens must hold no empty strings, got one at 0"),
    "fractional-verb-index": ("verb_index", 2.9, "verb_index must be an integer, got 2.9"),
    "string-verb-index": ("verb_index", "2", 'verb_index must be an integer, got "2"'),
    "bool-verb-index": ("verb_index", True, "verb_index must be an integer, got true"),
    "verb-index": ("verb_index", 99, lambda r: f"verb_index 99 out of bounds for {r.n} tokens"),
    "unknown-dimension": ("dimension", "bogus", NOT_A_DIMENSION + '"bogus"'),
    "integer-dimension": ("dimension", 5, NOT_A_DIMENSION + "5"),
    # A hierarchy relation needs a second event, which a query line lacks.
    "hierarchy": ("dimension", "hierarchy",
                  "a hierarchy query relates two events, and a query line names one"),
}
LINE_DEFECTS = {"corpus": {
    "missing-doc_id": ("doc_id", _GONE, "doc_id must be a string"),
    "missing-sent_index": ("sent_index", _GONE, "sent_index must be an integer, got null"),
    "missing-tokens": ("tokens", _GONE, "tokens must be a list of strings"),
    "missing-verb_index": (("frames", 0, "verb_index"), _GONE, "verb_index must be an integer, got null"),
    "missing-span": (("frames", 0, "args", 0, "span"), _GONE,
                     "span None must be a [start, end) integer pair"),
    "wrong-doc_id": ("doc_id", 5, "doc_id must be a string"),
    "wrong-sent_index": ("sent_index", "0", 'sent_index must be an integer, got "0"'),
    "bool-sent_index": ("sent_index", True, "sent_index must be an integer, got true"),
    "negative-sent_index": ("sent_index", -1, "sent_index must be a non-negative integer"),
    "wrong-tokens": ("tokens", "a b", "tokens must be a list of strings"),
    "integer-token": (("tokens", 1), 3, "tokens must be a list of strings"),
    "empty-tokens": ("tokens", [], "tokens must be non-empty"),
    "empty-token": (("tokens", 0), "", "tokens must hold no empty strings, got one at 0"),
    "wrong-frames": ("frames", "nope", "frames must be a list"),
    "wrong-args": (("frames", 0, "args"), "nope", "args must be a list"),
    "wrong-verb_index": (("frames", 0, "verb_index"), True, "verb_index must be an integer, got true"),
    "float-verb_index": (("frames", 0, "verb_index"), 1.0, "verb_index must be an integer, got 1.0"),
    "verb_index-out-of-range": (("frames", 0, "verb_index"), 99,
                                lambda r: f"verb_index 99 out of bounds for {r.n} tokens"),
    "negative-verb_index": (("frames", 0, "verb_index"), -1,
                            lambda r: f"verb_index -1 out of bounds for {r.n} tokens"),
    "integer-role": (("frames", 0, "args", 0, "role"), 5, "argument must be an object with a string role"),
    "short-span": (("frames", 0, "args", 0, "span"), [2], "span [2] must be a [start, end) integer pair"),
    "bool-span-bound": (("frames", 0, "args", 0, "span"), [True, 4],
                        "span [True, 4] must be a [start, end) integer pair"),
    "span-out-of-range": (("frames", 0, "args", 0, "span"), [0, 99],
                          lambda r: f"span [0, 99] out of bounds for {r.n} tokens"),
    "reversed-span": (("frames", 0, "args", 0, "span"), [3, 2],
                      lambda r: f"span [3, 2] out of bounds for {r.n} tokens"),
    "span-over-verb": (("frames", 0, "args", 0, "span"), [0, 3],
                       lambda r: f"span [0, 3] overlaps verb at {r.frames[0]['verb_index']}"),
    "wrong-left_context": ("left_context", [1, 2], "left_context must be a list of strings"),
    "wrong-right_context": ("right_context", "x", "right_context must be a list of strings"),
    "empty-left_context-token": ("left_context", ["", "x"], "left_context must hold no empty strings, got one at 0"),
    "empty-right_context-token": ("right_context", ["x", ""], "right_context must hold no empty strings, got one at 1"),
}, "tuples": {
    "string-tokens": ("event_tokens", "they met", "event_tokens must be a list of strings"),
    "integer-tokens": ("event_tokens", [0, 1], "event_tokens must be a list of strings"),
    "integer-embedded": ("arg_tmp_event_tokens", [7], "arg_tmp_event_tokens must be a list of strings"),
    "unknown-value": ("value", "fortnight", lambda r: f"label 'fortnight' not in the {r.dimension} space"),
    "verb-index": ("verb_index", 99, lambda r: f"verb_index 99 out of bounds for {r.n} event tokens"),
    "empty-event": ("event_tokens", [],
                    lambda r: f"verb_index {r.verb_index} out of bounds for 0 event tokens"),
    "fractional-verb-index": ("verb_index", 2.9, "verb_index must be an integer, got 2.9"),
    "string-verb-index": ("verb_index", "2", 'verb_index must be an integer, got "2"'),
    "bool-verb-index": ("verb_index", True, "verb_index must be an integer, got true"),
    "fractional-sent-index": ("sent_index", 0.9, "sent_index must be an integer, got 0.9"),
    "bool-frame-ordinal": ("frame_ordinal", True, "frame_ordinal must be an integer, got true"),
    "integer-doc-id": ("doc_id", 7, "doc_id must be a string"),
    # The embedded event is the second event of a hierarchy relation, and
    # only of one.
    "embedded-event-off-hierarchy": ("arg_tmp_event_tokens", ["lunch", "ended"],
                                     lambda r: f"arg_tmp_event_tokens must be empty on a {r.dimension} tuple"),
    "hierarchy-without-embedded-event": (
        "dimension", lambda t: t.update(value="before") or "hierarchy",
        "arg_tmp_event_tokens must be non-empty on a hierarchy tuple"),
    "integer-dimension": ("dimension", 5, NOT_A_DIMENSION + "5"),
    "object-value": ("value", {}, "value must be a string, got {}"),
    "empty-token": (("event_tokens", 1), "", "event_tokens must hold no empty strings, got one at 1"),
    "empty-embedded-token": ("arg_tmp_event_tokens", ["", "ended"],
                             "arg_tmp_event_tokens must hold no empty strings, got one at 0"),
}, "records": {
    # Set on the first record whose targets are its [Val] slot and one
    # more. A message function is also given the vocabulary's ``size``, the
    # [Val] id ``block`` of the record's dimension, and the record's
    # ``first`` id, ``n`` ids and damaged [Val] target ``val_id``.
    "input-id": (("input_ids", 0), 9999, lambda r: f"input id 9999 outside the {r.size}-token vocabulary"),
    "negative-input-id": (("input_ids", 0), -1, lambda r: f"input id -1 outside the {r.size}-token vocabulary"),
    "hard-token-id": (("targets", 0, "token_id"), 9999,
                      lambda r: f"target token_id 9999 outside the {r.size}-token vocabulary"),
    "target-position": (("targets", 0, "position"), lambda r: len(r["input_ids"]),
                        lambda r: f"target position {r.n} outside the record's {r.n} ids"),
    "val-position": ("val_position", lambda r: len(r["input_ids"]),
                     lambda r: f"val_position {r.n} outside the record's {r.n} ids"),
    "weight-negative": ("weight", -1.0, "weight must be finite and positive, got -1.0"),
    "weight-not-finite": ("weight", float("inf"), "weight must be finite and positive, got inf"),
    "weight-zero": ("weight", 0.0, "weight must be finite and positive, got 0.0"),
    # The [Val] slot must name a label of the record's dimension: its
    # target's token_id if it has one, else the id in place.
    "val-slot-not-a-val-id": ("val_position", 0, lambda r: f"[Val] slot 0 holds id {r.first}, "
                                                           f"not a {r.dimension} [Val] id {r.block}"),
    "val-target-outside-the-block": (
        ("targets", 1, "token_id"),
        lambda r: r["targets"][1]["token_id"] - len(label_space(TemporalDimension(r["dimension"]))),
        lambda r: f"[Val] slot {r.val_position} holds id {r.val_id}, not a {r.dimension} [Val] id {r.block}"),
    # Ids, slots and the weight must have their JSON type, not convert to it.
    "input-id-float": (("input_ids", 0), 4.9, "input_ids[0] must be an integer, got 4.9"),
    "input-id-bool": (("input_ids", 1), True, "input_ids[1] must be an integer, got true"),
    "val-position-string": ("val_position", "9", 'val_position must be an integer, got "9"'),
    "weight-string": ("weight", "2.5", 'weight must be a number, got "2.5"'),
    "weight-bool": ("weight", True, "weight must be a number, got true"),
    "target-position-float": (("targets", 0, "position"), 3.5,
                              "target position must be an integer, got 3.5"),
    "target-token-id-string": (("targets", 0, "token_id"), "5",
                               'target token_id must be an integer, got "5"'),
    "targets-string": ("targets", "", 'targets must be a list of objects, got ""'),
    "targets-object": ("targets", {}, "targets must be a list of objects, got {}"),
    "targets-integers": ("targets", [5], "targets must be a list of objects, got [5]"),
    "stored-soft-row": (("targets", 0, "soft"), None,
                        "target holds a stored soft row, which records no longer carry; "
                        "rebuild the dataset with build-dataset"),
    "input-ids-string": ("input_ids", "abc", 'input_ids must be a list of integers, got "abc"'),
    "unknown-dimension": ("dimension", "eon", NOT_A_DIMENSION + '"eon"'),
    "integer-dimension": ("dimension", 5, NOT_A_DIMENSION + "5"),
    "missing-target-position": (("targets", 0, "position"), _GONE, "missing key 'position'"),
    "missing-target-token_id": (("targets", 0, "token_id"), _GONE, "missing key 'token_id'"),
}, "queries": QUERY_DEFECTS, "instances": {
    **QUERY_DEFECTS,
    "unknown-gold-label": ("gold_label", "fortnight",
                           lambda r: f"label 'fortnight' not in the {r.dimension} space"),
    "object-gold-label": ("gold_label", {}, "gold_label must be a string, got {}"),
}}
REQUIRED_KEYS = {
    "tuples": ("event_tokens", "verb_index", "dimension", "value"),
    "records": ("input_ids", "targets", "weight", "dimension", "val_position"),
    "instances": ("event_tokens", "verb_index", "dimension", "gold_label"),
    "queries": ("event_tokens", "verb_index", "dimension"),
}
for _kind, _keys in REQUIRED_KEYS.items():
    LINE_DEFECTS[_kind].update({f"missing-{k}": (k, _GONE, f"missing key '{k}'") for k in _keys})


def _line_damage(pipeline, kind, name, data):
    lines = data.splitlines(keepends=True)
    row = _first(lines)
    if kind == "records":
        row = next(i for i, line in enumerate(lines[row:], row)
                   if len(json.loads(line)["targets"]) == 2 and _val_target(json.loads(line)))
    skipped = _key(lines[row]) if kind == "corpus" else None
    if name in NOT_OBJECTS:
        lines[row] = NOT_OBJECTS[name].encode() + b"\n"
        message = "record must be an object" if kind == "corpus" else "expected a JSON object"
        return Damage(b"".join(lines), 4, message, row + 1, skipped=skipped)
    path, value, message = LINE_DEFECTS[kind][name]
    original = json.loads(lines[row])
    data, obj = _edited(data, row, path, value)
    if callable(message):
        fields = {**obj, "n": len(original.get("tokens", original.get("event_tokens", ())))}
        if kind == "records":
            vocab = Vocabulary.from_tsv_lines(text_lines(str(pipeline["vocab"])))
            start, labels = vocab.val_block(TemporalDimension(original["dimension"]))
            fields.update(size=len(vocab), block=f"({start}..{start + len(labels) - 1})",
                          first=original["input_ids"][0], n=len(original["input_ids"]),
                          val_id=(_val_target(obj) or {}).get("token_id"))
        message = message(SimpleNamespace(**fields))
    return Damage(data, 4, message, row + 1, skipped=skipped)


def _val_target(record):
    return next((t for t in record.get("targets", ())
                 if isinstance(t, dict) and t.get("position") == record.get("val_position")), None)


def _no_vocab_digest(bad):
    return f"{bad} states no vocab_sha256 header line; rebuild the dataset with build-dataset"


def _empty(kind, name, key, files):
    """What an empty or header-only file gives: (exit code, message)."""
    bad = files[KINDS[kind][0]]
    return {
        "corpus": (4, f"{files['tuples']}: a tuple's sentence (doc_id, sent_index) = {key} "
                      f"is not in {bad}"),
        "tuples": (2, f"no tuples in {bad}; nothing to build"),
        "records": (4, _no_vocab_digest(bad)) if name == "empty" else (2, f"no records in {bad}"),
        "vocabulary": (4, f"{bad}: 0 tokens cannot hold the special and reserved ones"),
        "instances": (2, f"no evaluation instances in {bad}"),
        "queries": (2, f"no queries in {bad}"),
    }[kind]


def _text_damage(kind, name, data, files):
    lines = data.splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if not line.startswith(b"#")]
    if name in ("empty", "header-only"):
        key = _key(lines[rows[0]]) if kind == "corpus" else None
        code, message = _empty(kind, name, key, files)
        return Damage(b"" if name == "empty" else b"".join(lines[:rows[0]]), code, message)
    if name == "not-utf8":
        lines[-1] = lines[-1].replace(b"e", b"\xe9", 1)
        return Damage(b"".join(lines), 4, "not UTF-8 text: byte 0xe9 (invalid continuation byte)",
                      len(lines))
    # A truncation cuts the first line below the header, the middle line
    # or the last line in half.
    row = {"truncated-first": rows[0], "truncated-middle": rows[len(rows) // 2],
           "truncated-last": rows[-1]}[name]
    cut = lines[row][: len(lines[row]) // 2].decode()
    if kind == "vocabulary":
        message = (f"vocabulary ids must be dense, expected {row - rows[0]}, "
                   f"got {cut.rpartition(chr(9))[2]!r}")
    else:
        try:
            json.loads(cut)
        except ValueError as exc:
            message = str(exc)
    return Damage(b"".join(lines[:row]) + cut.encode(), 4, message, row + 1,
                  skipped=_key(lines[row]) if kind == "corpus" else None)


# Vocabulary defects: the rows from the first word's (id 4) on, given that
# word and the rest. A row's damage is named as ``path:line``.
VOCABULARY_DEFECTS = {
    "row-out-of-order": lambda word, rest: rest,
    "id-not-a-number": lambda word, rest: [f"{word}\tx\n", *rest],
    "row-without-id": lambda word, rest: [f"{word}\n", *rest],
    "duplicate-token": lambda word, rest: [f"{word}\t4\n", f"{word}\t5\n", *rest[1:]],
    # Another vocabulary: of the same size and layout, and of another size.
    "swapped-words": lambda word, rest: [rest[0].replace("\t5", "\t4"), f"{word}\t5\n", *rest[1:]],
    "dropped-word": lambda word, rest: [f"{line.rpartition(chr(9))[0]}\t{i}\n"
                                        for i, line in enumerate(rest, 4)],
}
# Each reserved token must hold its id: these are renamed.
_RESERVED = ("[Dim:duration]", "[Val:duration:second]", "[SEP]")


def _vocabulary_damage(name, data, files, command):
    bad = files["vocab"]
    lines = data.decode().splitlines(keepends=True)
    if name.startswith("renamed-"):
        token = name.removeprefix("renamed-")
        row = next(i for i, line in enumerate(lines) if line.startswith(f"{token}\t"))
        lines[row] = lines[row].replace(token, "[renamed]")
        token_id = lines[row].rpartition("\t")[2].strip()
        return Damage("".join(lines).encode(), 4, f"{bad}: id {token_id} must be {token}, got [renamed]")
    row = next(i for i, line in enumerate(lines) if line.endswith("\t4\n"))
    word = lines[row].partition("\t")[0]
    lines[row:] = VOCABULARY_DEFECTS[name](word, lines[row + 1:])
    data = "".join(lines).encode()
    if name in ("swapped-words", "dropped-word"):
        if command == "train":
            return Damage(data, 4, f"{bad} is not the vocabulary {files['dataset']} was built with: "
                                   f"the sha256 of its rows is not the dataset's vocab_sha256")
        return Damage(data, 4, f"{bad} is not the vocabulary {files['model']} was trained on: the "
                               f"sha256 of its rows is not the one the checkpoint stores")
    if name == "duplicate-token":
        return Damage(data, 4, f"{bad}: duplicate token in vocabulary")
    got = {"row-out-of-order": "5", "id-not-a-number": "x", "row-without-id": word}[name]
    return Damage(data, 4, f"vocabulary ids must be dense, expected 4, got {got!r}", row + 1)


_CKPT_START = 4 + struct.calcsize("<HI")
_CONFIG_TYPES = {**{f.name: f.type for f in dataclasses.fields(TrainConfig)},
                 "vocab_size": int, "vocab_sha256": str}
# What each config value of "x" gives after its key, by its type; the str
# field is targets.
_NOT_A = {int: ": invalid literal for int() with base 10: 'x'",
          float: ": could not convert string to float: 'x'", str: " must be 'soft' or 'hard', got 'x'"}
# Damages to the config line: (key, value or _GONE, message).
CHECKPOINT_DEFECTS = {
    "max-len-below-template": ("max_len", "5", "--max-len must be at least 6 to hold [Vrb], one "
                               "event word and [SEP] [Vrb] [Dim] [Val], got 5"),
    "vocab-size-zero": ("vocab_size", "0", "vocab_size must be positive"),
    "n-heads-not-dividing-d-model": ("n_heads", "3", "d_model must be divisible by n_heads"),
    "unknown-key": ("dropout", "0.1", "unknown config keys ['dropout']"),
    **{f"missing-{key}": (key, _GONE, f"missing key '{key}'") for key in _CONFIG_TYPES},
    **{f"wrong-{key}": (key, "x", key + _NOT_A[kind]) for key, kind in _CONFIG_TYPES.items()},
}


def _checkpoint_damage(name, data, files):
    bad = files["model"]
    version, header_len = struct.unpack_from("<HI", data, 4)
    blocks = _CKPT_START + header_len
    cut = {"empty": 0, "header-only": blocks, "truncated-first": 3,
           "truncated-middle": data.index(b"# config"),
           "truncated-last": (blocks + len(data)) // 2}.get(name)
    if cut is not None or name == "trailing-bytes":
        damaged = data[:cut] if cut is not None else data + bytes(4)
        if len(damaged) < _CKPT_START:
            message = "not a checkpoint file (bad magic)"
        elif len(damaged) < blocks:
            message = "bad checkpoint header: missing key 'vocab_sha256'"
        else:
            message = f"{len(damaged)} bytes, but its config line calls for {len(data)}"
        return Damage(damaged, 4, f"{bad}: {message}")
    if name == "bad-magic":
        return Damage(b"JUNK" + data[4:], 4, f"{bad}: not a checkpoint file (bad magic)")
    if name == "not-utf8":
        at = data.index(b"e", _CKPT_START)
        return Damage(data[:at] + b"\xe9" + data[at + 1:], 4,
                      f"{bad}: bad checkpoint header: 'utf-8' codec can't decode byte 0xe9 in "
                      f"position {at - _CKPT_START}: invalid continuation byte")
    if name.startswith("version-"):
        # Version 1 listed each block's shape, and version 2 stated only
        # the model's shape in its config line.
        return Damage(data[:4] + struct.pack("<H", int(name[8:])) + data[6:], 4,
                      f"{bad}: checkpoint version {name[8:]} is not the supported version 3; "
                      f"retrain the model with train")
    key, value, message = CHECKPOINT_DEFECTS[name]
    lines = data[_CKPT_START:blocks].decode().splitlines(keepends=True)
    pairs = dict(pair.split("=", 1) for pair in lines[-1].split()[2:])
    pairs[key] = value
    lines[-1] = " ".join(["# config", *(f"{k}={v}" for k, v in pairs.items() if v is not _GONE)])
    header = "".join(lines).encode() + b"\n"
    damaged = data[:4] + struct.pack("<HI", version, len(header)) + header + data[blocks:]
    if name == "wrong-vocab_sha256":
        return Damage(damaged, 4, f"{files['vocab']} is not the vocabulary {bad} was trained on: "
                                  f"the sha256 of its rows is not the one the checkpoint stores")
    return Damage(damaged, 4, f"{bad}: bad checkpoint header: {message}")


def _legacy_binary(lines):
    """The records of ``lines`` in the length-prefixed binary dataset of
    earlier releases."""
    dims = [dimension.value for dimension in TemporalDimension]
    blobs = [b"TMDS", struct.pack("<HI", 1, 0)]
    for record in map(json.loads, lines[_first(lines):]):
        ids, targets = record["input_ids"], record["targets"]
        payload = struct.pack(f"<HdHH{len(ids)}IH", dims.index(record["dimension"]),
                              record["weight"], record["val_position"], len(ids), *ids, len(targets))
        # position, token_id, then an empty stored-row flag and length
        payload += b"".join(struct.pack("<HIBH", t["position"], t["token_id"], 0, 0)
                            for t in targets)
        blobs += [struct.pack("<I", len(payload)), payload]
    return b"".join(blobs)


def damage(pipeline, files, kind, name, command):
    """The ``name`` damage of the ``kind`` file of ``pipeline``, as
    ``command`` reads it. ``files`` maps each pipeline key to the path the
    command reads: the damaged copy's for the ``kind`` file."""
    bad = files[KINDS[kind][0]]
    data = pipeline[KINDS[kind][0]].read_bytes()
    if name == "missing":
        return Damage(None, 3, f"missing input file: {bad}")
    if kind == "checkpoint":
        return _checkpoint_damage(name, data, files)
    if kind == "vocabulary" and (name in VOCABULARY_DEFECTS or name.startswith("renamed-")):
        return _vocabulary_damage(name, data, files, command)
    if not data.startswith(b"#"):
        # A header line, which the reader must count, above the first record.
        data = b"# a header line\n" + data
    lines = data.splitlines(keepends=True)
    if name == "no-supervised-slot":  # every slot unmasked: the records' ids are their targets'
        def unmasked(line):
            record = json.loads(line)
            for target in record.pop("targets"):
                record["input_ids"][target["position"]] = target["token_id"]
            return json.dumps({**record, "targets": []}).encode() + b"\n"
        return Damage(b"".join(line if line.startswith(b"#") else unmasked(line) for line in lines),
                      4, f"{bad}: no record has a supervised slot")
    if name == "legacy-binary":
        data = _legacy_binary(lines)
        try:
            data.split(b"\n")[0].decode()
        except UnicodeDecodeError as exc:  # the reader names the first such byte of line 1
            return Damage(data, 4, f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                                   f"({exc.reason})", 1)
    if name == "no-vocab-digest":
        return Damage(b"".join(line for line in lines if not line.startswith(b"# vocab_sha256=")),
                      4, _no_vocab_digest(bad))
    if name == "repeated-sentence":  # which record's context would a tuple take?
        row = _first(lines)
        repeat = json.dumps({**json.loads(lines[row]), "left_context": ["gamma", "delta"]})
        return Damage(data + repeat.encode() + b"\n", 4, f"(doc_id, sent_index) = {_key(lines[row])} "
                      f"repeats line {row + 1}, so its context is ambiguous", len(lines) + 1)
    if name in _FILE_DAMAGES:
        return _text_damage(kind, name, data, files)
    return _line_damage(pipeline, kind, name, data)


CELLS = [
    *((kind, name) for kind in KINDS for name in _FILE_DAMAGES),
    *(("checkpoint", name) for name in ("bad-magic", "trailing-bytes", "version-1", "version-2",
                                        *CHECKPOINT_DEFECTS)),
    *(("vocabulary", name) for name in (*VOCABULARY_DEFECTS, *(f"renamed-{t}" for t in _RESERVED))),
    ("records", "no-vocab-digest"), ("records", "no-supervised-slot"), ("records", "legacy-binary"),
    ("corpus", "repeated-sentence"),
    *((kind, name) for kind in LINE_DEFECTS for name in [*NOT_OBJECTS, *LINE_DEFECTS[kind]]),
]
# The readers that refuse an empty file, where others succeed on it: an
# empty corpus mines no tuple, and an empty tuple file has no label to
# count.
_EMPTY_READERS = {"corpus": ("build-dataset --ms",), "tuples": ("build-dataset",)}


def commands(kind, name):
    """The commands that refuse the ``name`` damage of a ``kind`` file,
    and ``extract``, which skips a damaged corpus record (and refuses a
    missing or non-UTF-8 corpus)."""
    readers = KINDS[kind][1]
    if name in ("empty", "header-only"):
        return _EMPTY_READERS.get(kind, readers)
    if name == "repeated-sentence":
        return ("build-dataset --ms",)
    return (*readers, "extract") if kind == "corpus" else readers


CHECKS = [(kind, name, command) for kind, name in CELLS for command in commands(kind, name)]
# Each check by its test id; damage names and commands hold "-", so two
# checks could share one, which a test refuses.
MATRIX = {"-".join(check): check for check in CHECKS}
