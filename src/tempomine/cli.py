"""Command-line pipeline: mine tuples, build datasets, train, evaluate.

Every subcommand is a pure function of its inputs, flags, and seed.
Output files start with a '#'-commented echo of the seed and the
settings the subcommand read (no timestamps), so any artifact can be
reproduced from its own header. Environment variables are never consulted.

Exit codes:
    0  success
    2  usage error (a bad flag or value, an input path that is a
       directory, an output path that is empty, is a directory or lies in
       a directory that does not exist, or an output path that names an
       input or another output)
    3  a required input file is missing
    4  an input file violates its schema
    5  training diverged (loss passed the abort threshold)
    1  any other failure
On failure a single machine-readable line is printed to stderr:
    ERROR code=<exit code> <message>

``main`` builds its argument parser once per process; per call it checks
the paths, resolves the config and header, runs the subcommand's ``cmd_*``
handler and maps its outcome to an exit code. Handlers only do the work.
"""

import argparse
import dataclasses
import functools
import os
import sys
from dataclasses import dataclass

from .evaluation import (
    distribution_csv_lines,
    evaluate,
    read_eval_instances,
    read_queries,
    report_csv_lines,
)
from .extraction import (
    extract_sentence,
    read_tuples_jsonl,
    write_tuples_jsonl,
)
from .label_space import TemporalDimension, label_space
from .model import (
    DivergenceError,
    TrainConfig,
    gradient_check,
    load_checkpoint,
    predict_value_distribution,
    save_checkpoint,
    train,
)
from .seeding import stream_rng
from .sequences import (
    MaskingConfig,
    Vocabulary,
    apply_masking,
    build_sequence,
    build_vocabulary,
    dataset_vocab_sha256,
    read_records_jsonl,
    write_records_jsonl,
)
from .srl_ingest import SchemaError, read_corpus, text_lines, write_text
from .targets import label_count_tables, subsample_tuples, weight_table

__all__ = ["main", "PipelineConfig"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_SCHEMA = 4
EXIT_DIVERGED = 5


class UsageError(ValueError):
    """A bad flag or setting; maps to exit code 2."""


@dataclass(frozen=True)
class PipelineConfig(TrainConfig, MaskingConfig):
    """Every tunable setting; each is a flag of the subcommands that read it.

    The settings of TrainConfig and MaskingConfig keep their defaults and
    checks there; this class adds the four that no library class owns.
    """

    ms: bool = False
    min_count: int = 1
    balance: bool = False
    val_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.val_fraction <= 1.0:
            raise ValueError(f"val_fraction must lie in [0, 1], got {self.val_fraction}")
        if self.min_count < 1:
            raise ValueError("min_count must be positive")
        MaskingConfig.__post_init__(self)
        TrainConfig.__post_init__(self)


# The PipelineConfig fields each subcommand reads besides seed. A
# subcommand takes flags for these fields only and echoes them only, so
# a header states what made its artifact.
READS = {
    "extract": (),
    "stats": (),
    "build-dataset": ("balance", "min_count", "max_len", "ms", "p_mask", "p_dim", "p_event"),
    "train": ("epochs", "batch_size", "learning_rate", "val_fraction", "d_model",
              "n_layers", "n_heads", "ff_dim", "max_len", "targets", "sigma_log",
              "sigma_circular"),
    "eval": (),
    "predict": (),
    "grad-check": (),
}

_FLAG_HELP = {
    "balance": "subsample so non-frequency dimensions match the smallest one",
    "min_count": "vocabulary frequency cutoff",
    "targets": "value-slot target kind: soft or hard",
    "max_len": "maximum sequence length",
    "ms": "include neighbor-sentence context around the event (needs --corpus)",
    "p_mask": "value-slot masking probability",
    "p_dim": "dimension-slot masking probability",
    "p_event": "per-event-token masking probability",
    "val_fraction": "held-out fraction logged each epoch",
    "sigma_log": "soft-target width on the log-seconds scale",
    "sigma_circular": "soft-target width on the rings, in label steps",
}

_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """defaults < flags, validated."""
    # Every flag shares its config field's name and is None unless given.
    values = {name: getattr(args, name) for name in _CONFIG_FIELDS
              if getattr(args, name, None) is not None}
    try:
        return PipelineConfig(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def config_echo(subcommand: str, cfg: PipelineConfig) -> list[str]:
    """Header lines reproducing the run: the subcommand, then seed and
    the fields it reads (``READS``), sorted.

    Paths are deliberately not echoed, so an artifact's bytes do not
    depend on where its inputs happened to live.
    """
    lines = [f"tempomine {subcommand}"]
    for name in sorted(("seed", *READS[subcommand])):
        value = getattr(cfg, name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{name}={value}")
    return lines


def cmd_extract(args: argparse.Namespace, cfg: PipelineConfig, header: list[str]) -> None:
    reader = read_corpus(text_lines(args.input))
    sentences = list(reader)
    if args.strict and reader.errors:
        line_no, msg = reader.errors[0]
        raise SchemaError(f"{args.input}:{line_no}: {msg}")
    _warn_skipped(args.input, reader.errors)

    tuples = [t for sentence in sentences for t in extract_sentence(sentence)]
    write_tuples_jsonl(args.output, tuples, header)
    print(
        f"extracted {len(tuples)} tuples from {reader.records_read} sentences "
        f"({reader.records_skipped} records skipped)"
    )


def cmd_stats(args: argparse.Namespace, cfg: PipelineConfig, header: list[str]) -> None:
    tuples = read_tuples_jsonl(args.input)
    tables = label_count_tables(tuples)
    lines = ["dimension,label,count,weight"]
    for dim in TemporalDimension:
        if dim not in tables:
            continue
        weights = weight_table(tables[dim])
        for label, count in tables[dim].items():
            lines.append(f"{dim.value},{label},{count},{weights[label]!r}")
    write_text(args.output, header, lines)


# A corpus warns of this many skipped records by line, then counts the rest.
_SKIP_WARNINGS = 10


def _warn_skipped(path: str, errors: list[tuple[int, str]]) -> None:
    for line_no, msg in errors[:_SKIP_WARNINGS]:
        print(f"skipping malformed record at {path}:{line_no}: {msg}", file=sys.stderr)
    if len(errors) > _SKIP_WARNINGS:
        print(f"skipping {len(errors) - _SKIP_WARNINGS} more malformed records in {path}",
              file=sys.stderr)


def _context_lookup(corpus_path: str) -> tuple[dict, list[tuple[int, str]]]:
    """(doc_id, sent_index) -> (left, right) context of each sentence of
    the corpus, and the (line, message) of each record it skipped, each
    warned about as extract does. A repeated (doc_id, sent_index) raises
    SchemaError, since either record's context could be the tuple's."""
    reader = read_corpus(text_lines(corpus_path))
    contexts, lines = {}, {}
    for s in reader:
        key = (s.doc_id, s.sent_index)
        if key in lines:
            raise SchemaError(f"{corpus_path}:{reader.line_no}: (doc_id, sent_index) = {key} "
                              f"repeats line {lines[key]}, so its context is ambiguous")
        lines[key] = reader.line_no
        contexts[key] = (s.left_context or (), s.right_context or ())
    _warn_skipped(corpus_path, reader.errors)
    return contexts, reader.errors


def cmd_build_dataset(args: argparse.Namespace, cfg: PipelineConfig, header: list[str]) -> None:
    if cfg.ms != bool(args.corpus):
        raise UsageError("--ms needs --corpus to resolve neighbor sentences" if cfg.ms
                         else "--corpus is read only with --ms")
    tuples = read_tuples_jsonl(args.input)
    if not tuples:
        raise UsageError(f"no tuples in {args.input}; nothing to build")

    if cfg.balance:
        kept = subsample_tuples(tuples, cfg.seed)
    else:
        kept = list(enumerate(tuples))

    kept_tuples = [t for _, t in kept]
    token_streams = [t.event_tokens for t in kept_tuples]
    token_streams += [t.arg_tmp_event_tokens for t in kept_tuples if t.arg_tmp_event_tokens]

    contexts: dict = {}
    if cfg.ms:
        contexts, skipped = _context_lookup(args.corpus)
        for t in kept_tuples:
            key = t.provenance[:2]
            if key not in contexts:
                hint = ""
                if skipped:
                    line_no, msg = skipped[0]
                    hint = f"; {args.corpus}:{line_no} was skipped as malformed: {msg}"
                raise SchemaError(f"{args.input}: a tuple's sentence (doc_id, sent_index) "
                                  f"= {key} is not in {args.corpus}{hint}")
            left, right = contexts[key]
            if left:
                token_streams.append(left)
            if right:
                token_streams.append(right)

    vocab = build_vocabulary(token_streams, min_count=cfg.min_count)
    if vocab.word_id_end <= vocab.word_id_start:
        raise UsageError(f"--min-count {cfg.min_count} leaves no word of {args.input} "
                         f"in the vocabulary")

    tables = label_count_tables(kept_tuples)
    weights = {dim: weight_table(counts) for dim, counts in tables.items()}

    records = []
    for ordinal, t in kept:
        left, right = contexts.get(t.provenance[:2], ((), ()))
        built = build_sequence(t, vocab, left, right, max_length=cfg.max_len)
        rng = stream_rng(cfg.seed, "masking", ordinal)
        records.append(apply_masking(built, cfg, vocab, rng, weights[t.dimension][t.value]))

    write_text(args.vocab_out, header, vocab.to_tsv_lines())
    write_records_jsonl(args.output, records, [*header, f"vocab_sha256={vocab.sha256()}"])
    print(f"built {len(records)} records over a {len(vocab)}-token vocabulary")


def cmd_train(args: argparse.Namespace, cfg: PipelineConfig, header: list[str]) -> None:
    vocab = _read_vocab(args.vocab)
    stated = dataset_vocab_sha256(args.input)
    if stated is None:
        raise SchemaError(f"{args.input} states no vocab_sha256 header line; "
                          f"rebuild the dataset with build-dataset")
    if stated != vocab.sha256():
        raise SchemaError(f"{args.vocab} is not the vocabulary {args.input} was built with: "
                          f"the sha256 of its rows is not the dataset's vocab_sha256")
    records = read_records_jsonl(args.input, vocab)
    if not records:
        raise UsageError(f"no records in {args.input}")
    if not any(rec.targets for rec in records):
        raise SchemaError(f"{args.input}: no record has a supervised slot")
    for number, rec in enumerate(records, start=1):
        if len(rec.input_ids) > cfg.max_len:
            raise UsageError(f"--max-len {cfg.max_len} is shorter than record {number} "
                             f"of {args.input}, which has {len(rec.input_ids)} ids")

    if cfg.val_fraction > 0.0:
        train_records, val_records = [], []
        for i, rec in enumerate(records):
            if stream_rng(cfg.seed, "split", i).random() < cfg.val_fraction:
                val_records.append(rec)
            else:
                train_records.append(rec)
    else:
        train_records, val_records = records, []
    if not train_records:
        raise UsageError(f"--val-fraction {cfg.val_fraction} leaves no record "
                         f"in the training share of {args.input}")
    for share, part in (("training", train_records), ("validation", val_records)):
        if part and not any(rec.targets for rec in part):
            raise UsageError(f"--val-fraction {cfg.val_fraction} leaves no supervised slot "
                             f"in the {share} share of {args.input}")

    params, log = train(train_records, cfg, vocab, val_records)

    save_checkpoint(args.output, params, cfg, vocab, header)
    log_lines = ["epoch,split,loss,mean_distance"] + [row.as_csv() for row in log]
    write_text(args.loss_log, header, log_lines)
    final = next(row for row in reversed(log) if row.split == "train")
    summary = f"trained {cfg.epochs} epochs on {len(train_records)} records; final loss {final.loss:.4f}"
    if val_records:
        val = log[-1]
        dist = "none" if val.mean_distance is None else f"{val.mean_distance:.4f}"
        summary += (f"; validation loss {val.loss:.4f}, mean distance {dist} "
                    f"on {len(val_records)} records")
    print(summary)


def _read_vocab(path: str) -> Vocabulary:
    return Vocabulary.from_tsv_lines(text_lines(path), path)


def _load_model(args: argparse.Namespace) -> tuple[dict, TrainConfig, Vocabulary]:
    """The ``--model`` checkpoint and its ``--vocab``; a vocabulary that is
    not the one the checkpoint was trained on raises SchemaError naming
    both files."""
    params, train_cfg, vocab_sha256 = load_checkpoint(args.model)
    vocab = _read_vocab(args.vocab)
    if vocab.sha256() != vocab_sha256:
        raise SchemaError(f"{args.vocab} is not the vocabulary {args.model} was trained on: "
                          f"the sha256 of its rows is not the one the checkpoint stores")
    return params, train_cfg, vocab


def cmd_eval(args: argparse.Namespace, cfg: PipelineConfig, header: list[str]) -> None:
    instances = read_eval_instances(text_lines(args.input), args.input)
    if not instances:
        raise UsageError(f"no evaluation instances in {args.input}")
    params, train_cfg, vocab = _load_model(args)
    reports = evaluate(params, train_cfg, vocab, instances)
    write_text(args.output, header, report_csv_lines(reports))


def cmd_predict(args: argparse.Namespace, cfg: PipelineConfig, header: list[str]) -> None:
    if args.input:
        for flag, value in (("--event", args.event), ("--verb-index", args.verb_index),
                            ("--dimension", args.dimension)):
            if value is not None:
                raise UsageError(f"{flag} is read only without --input")
        queries = read_queries(text_lines(args.input), args.input)
        if not queries:
            raise UsageError(f"no queries in {args.input}")
        params, train_cfg, vocab = _load_model(args)
        write_text(args.output, header, distribution_csv_lines(params, train_cfg, vocab, queries))
        return

    if not args.event or args.verb_index is None or not args.dimension:
        raise UsageError("predict needs --input or all of --event/--verb-index/--dimension")
    dimension = _parse_dimension(args.dimension)
    if dimension is TemporalDimension.HIERARCHY:
        raise UsageError("--dimension hierarchy relates two events, and --event names one")
    tokens = args.event.split()
    if not 0 <= args.verb_index < len(tokens):
        raise UsageError(f"--verb-index {args.verb_index} is outside the "
                         f"{len(tokens)} tokens of --event")
    params, train_cfg, vocab = _load_model(args)
    (dist,) = predict_value_distribution(params, train_cfg, vocab,
                                         [(tokens, args.verb_index, dimension)])
    labels = label_space(dimension).labels
    lines = ["label,probability", *(f"{label},{float(p)!r}" for label, p in zip(labels, dist))]
    write_text(args.output, header, lines)


def _parse_dimension(name: str) -> TemporalDimension:
    try:
        return TemporalDimension.parse(name, "--dimension")
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_grad_check(args: argparse.Namespace, cfg: PipelineConfig, header: list[str]) -> None:
    if args.coords < 1:
        raise UsageError(f"--coords must be positive, got {args.coords}")
    results = gradient_check(seed=cfg.seed, coords_per_config=args.coords)
    worst = max(results, key=lambda r: r.rel_error)
    print(f"checked {len(results)} coordinates; worst relative error "
          f"{worst.rel_error:.3e} at {worst.key}{list(worst.index)}")
    if worst.rel_error >= 1e-4:
        raise RuntimeError(f"gradient check failed at {worst.key}")


_EXIT_CODE_HELP = (
    "exit codes: 0 success; 2 bad flag or value, an input path that is a "
    "directory, or an output path that cannot be written or that names an input "
    "or another output; 3 missing input file; "
    "4 input schema violation; 5 training divergence; 1 other failure"
)


class _Parser(argparse.ArgumentParser):
    """Exit 2 with the ERROR line on a bad command line; a flag must be
    spelled in full, so no prefix of it is taken for it. Every parser's
    help ends with the exit codes."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("epilog", _EXIT_CODE_HELP)
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):  # noqa: A003 - argparse API
        print(f"ERROR code={EXIT_USAGE} {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tempomine", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("extract", help="mine temporal tuples from an SRL corpus")
    p.add_argument("--input", required=True, help="SRL corpus (JSON Lines)")
    p.add_argument("--output", required=True, help="tuple file to write (JSON Lines)")
    p.add_argument("--strict", action="store_true",
                   help="fail with exit 4 on the first malformed record instead of skipping")

    p = sub.add_parser("stats", help="per-dimension label counts and instance weights")
    p.add_argument("--input", required=True, help="tuple file")
    p.add_argument("--output", help="CSV path (default: stdout)")

    p = sub.add_parser("build-dataset", help="masked training records from tuples")
    p.add_argument("--input", required=True, help="tuple file")
    p.add_argument("--output", required=True, help="dataset file to write")
    p.add_argument("--corpus", help="source corpus, for --ms context lookup")
    p.add_argument("--vocab-out", dest="vocab_out", help="vocabulary TSV path (default: <output>.vocab.tsv)")

    p = sub.add_parser("train", help="train the encoder on a dataset")
    p.add_argument("--input", required=True, help="dataset file (JSON Lines)")
    p.add_argument("--vocab", required=True, help="vocabulary TSV")
    p.add_argument("--output", required=True, help="checkpoint path to write")
    p.add_argument("--loss-log", dest="loss_log", help="loss CSV path (default: <output>.loss.csv)")

    p = sub.add_parser("eval", help="rank-distance report on gold-labeled events")
    p.add_argument("--input", required=True, help="evaluation instances (JSON Lines)")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--vocab", required=True, help="vocabulary TSV")
    p.add_argument("--output", help="report CSV path (default: stdout)")

    p = sub.add_parser("predict", help="value distribution for an event")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--vocab", required=True, help="vocabulary TSV")
    p.add_argument("--input", help="query file (JSON Lines of event_tokens/verb_index/dimension)")
    p.add_argument("--event", help="space-separated event tokens")
    p.add_argument("--verb-index", dest="verb_index", type=int, help="verb position in --event")
    p.add_argument("--dimension", help="dimension to query")
    p.add_argument("--output", help="CSV path (default: stdout)")

    p = sub.add_parser("grad-check", help="analytic vs finite-difference gradients")
    p.add_argument("--coords", type=int, default=40, help="coordinates probed per config")

    for name, p in sub.choices.items():
        p.add_argument("--seed", type=int, help="root seed for all named random streams")
        for field in READS[name]:
            kind = _CONFIG_FIELDS[field]
            flag = "--" + field.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None, help=_FLAG_HELP.get(field))
            else:
                p.add_argument(flag, type=kind, help=_FLAG_HELP.get(field))
    return parser


# An output flag that is not given names a file next to --output.
_DEFAULT_SUFFIX = {"vocab_out": ".vocab.tsv", "loss_log": ".loss.csv"}


def _check_paths(args: argparse.Namespace) -> None:
    """UsageError naming the flag if a given input path is a directory,
    or an output path is empty, is a directory, lies in a directory that
    does not exist or, naming both flags, is the file of an input or of
    an earlier output."""
    seen = {}  # real path -> the flag and path that named it first
    for name in ("input", "corpus", "vocab", "model"):
        if path := getattr(args, name, None):
            if os.path.isdir(path):
                raise UsageError(f"--{name} {path!r} is a directory, not a file")
            seen.setdefault(os.path.realpath(path), f"--{name} {path!r}")
    for name in ("output", "vocab_out", "loss_log"):
        path = getattr(args, name, None)
        if path is None:
            continue
        flag = "--" + name.replace("_", "-")
        if not path or os.path.isdir(path):
            raise UsageError(f"{flag} {path!r} is not a path to a file")
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise UsageError(f"{flag} {path}: directory {directory} does not exist")
        real = os.path.realpath(path)
        if real in seen:
            raise UsageError(f"{flag} {path!r} names the same file as {seen[real]}")
        seen[real] = f"{flag} {path!r}"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, suffix in _DEFAULT_SUFFIX.items():
        if getattr(args, name, "") is None:  # a flag of this subcommand, not given
            setattr(args, name, args.output + suffix)
    try:
        _check_paths(args)  # before any input is read
        cfg = resolve_config(args)
        handler = globals()["cmd_" + args.subcommand.replace("-", "_")]
        handler(args, cfg, config_echo(args.subcommand, cfg))
        return EXIT_OK
    except UsageError as exc:
        print(f"ERROR code={EXIT_USAGE} {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        name = exc.filename or exc
        print(f"ERROR code={EXIT_MISSING_FILE} missing input file: {name}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except SchemaError as exc:
        print(f"ERROR code={EXIT_SCHEMA} {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except DivergenceError as exc:
        print(f"ERROR code={EXIT_DIVERGED} {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except Exception as exc:  # keep the machine-readable contract on any failure
        print(f"ERROR code=1 {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
