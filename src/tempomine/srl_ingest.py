"""Streaming reader for SRL sentences in JSON Lines form; reader and
writer of the pipeline's text files.

One record per line:

    {"doc_id": "d0", "sent_index": 3,
     "tokens": ["Jack", "rested", "for", "2", "hours"],
     "frames": [{"verb_index": 1,
                 "args": [{"role": "ARGM-TMP", "span": [2, 5]}]}],
     "left_context": ["..."], "right_context": ["..."]}

``left_context``/``right_context`` are optional neighbor-sentence token
lists. The reader skips malformed records and counts them with their line
numbers and messages; the caller decides whether to report or refuse them.
"""

import json
import sys
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain, islice

__all__ = [
    "SrlFrame",
    "SrlSentence",
    "SchemaError",
    "text_lines",
    "write_text",
    "parse_json_lines",
    "CorpusReader",
    "read_corpus",
    "parse_sentence",
    "sentence_to_json_dict",
    "is_temporal_role",
    "TEMPORAL_ROLES",
]

# Both spellings occur in common SRL outputs; matching is case-insensitive.
TEMPORAL_ROLES = frozenset({"ARG-TMP", "ARGM-TMP"})


@dataclass(frozen=True)
class SrlFrame:
    verb_index: int
    arguments: tuple[tuple[str, tuple[int, int]], ...]  # (role, [start, end))


@dataclass(frozen=True)
class SrlSentence:
    doc_id: str
    sent_index: int
    tokens: tuple[str, ...]
    frames: tuple[SrlFrame, ...]
    left_context: tuple[str, ...] | None = None
    right_context: tuple[str, ...] | None = None


class SchemaError(ValueError):
    """A record violates the input schema."""


def text_lines(path: str) -> Iterator[str]:
    """Lines of the UTF-8 text file ``path``; bytes that are not UTF-8
    raise SchemaError as ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
            return
        except UnicodeDecodeError as exc:
            error = exc
    # The decoder works in chunks, so find the offending line again.
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{path}:{line_no}: not UTF-8 text: byte "
                                  f"0x{raw[exc.start]:02x} ({exc.reason})") from None
    raise SchemaError(f"{path}: not UTF-8 text: {error.reason}")


def write_text(path: str | None, header_lines: Iterable[str], lines: Iterable[str]) -> None:
    """Each header line after '# ', then each of ``lines``, one per line
    of the UTF-8 file ``path``, or of stdout when ``path`` is None."""
    rows = chain((f"# {line}" for line in header_lines), lines)
    with nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as fh:
        # One write per 1024 lines: a write per line costs more than the line.
        while chunk := list(islice(rows, 1024)):
            fh.write("\n".join(chunk) + "\n")


def parse_json_lines(lines: Iterable[str], source: str, parse) -> list:
    """``parse`` applied to each JSON line; '#' and blank lines are skipped.

    A line that is not a JSON object, or that ``parse`` rejects with
    KeyError, TypeError or ValueError, raises SchemaError as ``source:line``.
    """
    rows = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise TypeError("expected a JSON object")
            rows.append(parse(obj))
        except KeyError as exc:
            raise SchemaError(f"{source}:{line_no}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{source}:{line_no}: {exc}") from exc
    return rows


def _as_token_list(value, what: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise SchemaError(f"{what} must be a list of strings")
    return tuple(value)


def _as_int(value, what: str) -> int:
    # A JSON float, string or bool is no index: int() would truncate 2.9
    # and accept "2", and bool is an int subclass.
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _parse_frame(obj, n_tokens: int) -> SrlFrame:
    if not isinstance(obj, dict):
        raise SchemaError("frame must be an object")
    verb_index = _as_int(obj.get("verb_index"), "verb_index")
    if not 0 <= verb_index < n_tokens:
        raise SchemaError(f"verb_index {verb_index} out of bounds for {n_tokens} tokens")
    args = obj.get("args", [])
    if not isinstance(args, list):
        raise SchemaError("args must be a list")
    parsed = []
    for arg in args:
        if not isinstance(arg, dict) or not isinstance(arg.get("role"), str):
            raise SchemaError("argument must be an object with a string role")
        span = arg.get("span")
        # bool is an int subclass, but no bound.
        if not (isinstance(span, list) and len(span) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in span)):
            raise SchemaError(f"span {span!r} must be a [start, end) integer pair")
        start, end = span
        if not (0 <= start < end <= n_tokens):
            raise SchemaError(f"span {span!r} out of bounds for {n_tokens} tokens")
        if start <= verb_index < end:
            raise SchemaError(f"span {span!r} overlaps verb at {verb_index}")
        parsed.append((arg["role"], (start, end)))
    return SrlFrame(verb_index=verb_index, arguments=tuple(parsed))


def parse_sentence(obj: dict) -> SrlSentence:
    """Validate one decoded record; raises SchemaError on any violation."""
    if not isinstance(obj, dict):
        raise SchemaError("record must be an object")
    doc_id = obj.get("doc_id")
    if not isinstance(doc_id, str):
        raise SchemaError("doc_id must be a string")
    sent_index = _as_int(obj.get("sent_index"), "sent_index")
    if sent_index < 0:
        raise SchemaError("sent_index must be a non-negative integer")
    tokens = _as_token_list(obj.get("tokens"), "tokens")
    if not tokens:
        raise SchemaError("tokens must be non-empty")
    if "" in tokens:
        raise SchemaError(f"tokens must hold no empty strings, got one at {tokens.index('')}")
    frames_obj = obj.get("frames", [])
    if not isinstance(frames_obj, list):
        raise SchemaError("frames must be a list")
    frames = tuple(_parse_frame(f, len(tokens)) for f in frames_obj)
    left = obj.get("left_context")
    right = obj.get("right_context")
    return SrlSentence(
        doc_id=doc_id,
        sent_index=sent_index,
        tokens=tokens,
        frames=frames,
        left_context=_as_token_list(left, "left_context") if left is not None else None,
        right_context=_as_token_list(right, "right_context") if right is not None else None,
    )


@dataclass
class CorpusReader:
    """Iterable over a JSONL stream with skip accounting.

    Comment lines starting with '#' and blank lines are ignored (output
    files in this pipeline carry a '#' config echo header). After
    iteration, ``records_read + records_skipped`` equals the number of
    records seen. While a sentence is being consumed, ``line_no`` is the
    line it came from.
    """

    stream: Iterable[str]
    line_no: int = 0
    records_read: int = 0
    records_skipped: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)

    def __iter__(self) -> Iterator[SrlSentence]:
        for line_no, line in enumerate(self.stream, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                obj = json.loads(stripped)
                sentence = parse_sentence(obj)
            except (json.JSONDecodeError, SchemaError) as exc:
                self.records_skipped += 1
                self.errors.append((line_no, str(exc)))
                continue
            self.records_read += 1
            self.line_no = line_no
            yield sentence


def read_corpus(stream: Iterable[str]) -> CorpusReader:
    """Stream SRL sentences from ``stream`` in file order."""
    return CorpusReader(stream)


def sentence_to_json_dict(sentence: SrlSentence) -> dict:
    """Inverse of parse_sentence, for writing corpora."""
    obj: dict = {
        "doc_id": sentence.doc_id,
        "sent_index": sentence.sent_index,
        "tokens": list(sentence.tokens),
        "frames": [
            {
                "verb_index": f.verb_index,
                "args": [{"role": role, "span": list(span)} for role, span in f.arguments],
            }
            for f in sentence.frames
        ],
    }
    if sentence.left_context is not None:
        obj["left_context"] = list(sentence.left_context)
    if sentence.right_context is not None:
        obj["right_context"] = list(sentence.right_context)
    return obj


def is_temporal_role(role: str) -> bool:
    return role.upper() in TEMPORAL_ROLES
