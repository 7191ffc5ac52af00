import argparse
import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

from tempomine import cli
from tempomine.evaluation import eval_instance_to_json_dict
from tempomine.label_space import TemporalDimension, label_space
from tempomine.model import GradCheckResult, TrainConfig, load_checkpoint
from tempomine.seeding import stream_rng
from tempomine.sequences import MaskingConfig, Vocabulary, read_records_jsonl
from tempomine.srl_ingest import sentence_to_json_dict, text_lines
from tempomine.synthetic import generate_corpus, planted_eval_instances


def run(argv):
    return cli.main(list(argv))


def non_comment_lines(path):
    with open(path, encoding="utf-8") as f:
        return [line for line in f if not line.startswith("#")]


def header_lines(path):
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f if line.startswith("#")]


def read_dataset(path):
    """The records of the dataset ``path``, read against its vocabulary
    ``<path>.vocab.tsv``."""
    vocab = Vocabulary.from_tsv_lines(text_lines(f"{path}.vocab.tsv"))
    return read_records_jsonl(str(path), vocab)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """A small CLI pipeline: corpus -> tuples -> dataset -> model."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus.jsonl"
    sentences = generate_corpus(150, seed=21)
    with open(corpus, "w") as f:
        for s in sentences:
            f.write(json.dumps(sentence_to_json_dict(s), sort_keys=True) + "\n")

    tuples = root / "tuples.jsonl"
    assert run(["extract", "--input", str(corpus), "--output", str(tuples)]) == 0

    dataset = root / "ds.jsonl"
    vocab_path = root / "ds.jsonl.vocab.tsv"
    assert run(["build-dataset", "--input", str(tuples),
                "--output", str(dataset), "--seed", "21"]) == 0

    model = root / "model.ckpt"
    assert run(["train", "--input", str(dataset), "--vocab", str(vocab_path),
                "--output", str(model), "--seed", "21",
                "--d-model", "32", "--n-layers", "1", "--n-heads", "2",
                "--ff-dim", "64", "--epochs", "4", "--batch-size", "16",
                "--learning-rate", "0.003"]) == 0

    instances = root / "eval.jsonl"
    with open(instances, "w") as f:
        for inst in planted_eval_instances(sentences[:40]):
            f.write(json.dumps(eval_instance_to_json_dict(inst)) + "\n")

    return {
        "root": root,
        "corpus": corpus,
        "tuples": tuples,
        "dataset": dataset,
        "vocab": vocab_path,
        "model": model,
        "instances": instances,
    }


# ----------------------------------------------------------------- extract

def test_extract_matches_golden_bytes(tmp_path, fixture_corpus_path,
                                      golden_tuples_path, capsys):
    out = tmp_path / "tuples.jsonl"
    assert run(["extract", "--input", fixture_corpus_path,
                "--output", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "extracted 33 tuples from 33 sentences" in msg
    with open(golden_tuples_path, "rb") as f:
        golden = f.read()
    assert out.read_bytes() == golden


def test_extract_rerun_identical(tmp_path, fixture_corpus_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run(["extract", "--input", fixture_corpus_path, "--output", str(a)]) == 0
    assert run(["extract", "--input", fixture_corpus_path, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_extract_skips_malformed_by_default(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    good = {"doc_id": "d", "sent_index": 0,
            "tokens": ["They", "met", "at", "noon"],
            "frames": [{"verb_index": 1,
                        "args": [{"role": "ARGM-TMP", "span": [2, 4]}]}]}
    corpus.write_text(json.dumps(good) + "\n{broken\n")
    out = tmp_path / "t.jsonl"
    assert run(["extract", "--input", str(corpus), "--output", str(out)]) == 0
    assert "1 records skipped" in capsys.readouterr().out


def test_extract_strict_schema_exit_4(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"doc_id": 5}\n')
    out = tmp_path / "t.jsonl"
    assert run(["extract", "--input", str(corpus), "--output", str(out),
                "--strict"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("ERROR code=4 ")


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
def test_extract_logs_only_the_records_it_skips(tmp_path, capsys, strict):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"doc_id": "d", "sent_index": 0, "tokens": ["a", "b"], '
                      '"frames": [{"verb_index": 99}]}\n')
    argv = ["extract", "--input", str(corpus), "--output", str(tmp_path / "t.jsonl")]
    assert run(argv + ["--strict"] * strict) == (4 if strict else 0)
    skips = [line for line in capsys.readouterr().err.splitlines() if "skipping" in line]
    if strict:
        assert skips == []
    else:
        assert skips == [f"skipping malformed record at {corpus}:1: "
                         "verb_index 99 out of bounds for 2 tokens"]


def test_extract_warns_of_ten_skipped_records_then_counts_the_rest(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("{broken\n" * 13)
    assert run(["extract", "--input", str(corpus), "--output", str(tmp_path / "t.jsonl")]) == 0
    out, err = capsys.readouterr()
    assert "(13 records skipped)" in out
    warnings = err.splitlines()
    assert len(warnings) == 11
    for line_no, line in enumerate(warnings[:10], start=1):
        assert line.startswith(f"skipping malformed record at {corpus}:{line_no}: "), line
    assert warnings[10] == f"skipping 3 more malformed records in {corpus}"


@pytest.mark.parametrize("count", ["nan", "inf"])
def test_extract_count_that_is_not_finite_mines_nothing(tmp_path, capsys, count):
    corpus = tmp_path / "c.jsonl"
    sentence = {"doc_id": "d", "sent_index": 0,
                "tokens": ["Jack", "rested", "for", count, "hours", "."],
                "frames": [{"verb_index": 1,
                            "args": [{"role": "ARGM-TMP", "span": [2, 5]}]}]}
    corpus.write_text(json.dumps(sentence) + "\n")
    out = tmp_path / "t.jsonl"
    assert run(["extract", "--input", str(corpus), "--output", str(out)]) == 0
    assert "extracted 0 tuples from 1 sentences" in capsys.readouterr().out
    assert non_comment_lines(out) == []


def test_extract_yearly_is_a_frequency(tmp_path):
    corpus = tmp_path / "c.jsonl"
    sentence = {"doc_id": "d", "sent_index": 0,
                "tokens": ["She", "paid", "taxes", "yearly", "."],
                "frames": [{"verb_index": 1,
                            "args": [{"role": "ARGM-TMP", "span": [3, 4]}]}]}
    corpus.write_text(json.dumps(sentence) + "\n")
    out = tmp_path / "t.jsonl"
    assert run(["extract", "--input", str(corpus), "--output", str(out)]) == 0
    (line,) = non_comment_lines(out)
    assert (json.loads(line)["dimension"], json.loads(line)["value"]) == ("frequency", "year")


def test_missing_input_exit_3(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    assert run(["extract", "--input", str(tmp_path / "absent.jsonl"),
                "--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith("ERROR code=3 ")


@pytest.mark.parametrize("command, flag, target", [
    ("train", "--output", "absent/m.ckpt"),
    ("train", "--loss-log", "absent/loss.csv"),
    ("build-dataset", "--vocab-out", "absent/v.tsv"),
    ("stats", "--output", "."),
    ("stats", "--output", ""),
], ids=["train-output", "train-loss-log", "build-dataset-vocab-out", "output-directory",
        "output-empty"])
def test_unwritable_output_path_exit_2_before_any_work(pipeline, tmp_path, monkeypatch,
                                                       capsys, command, flag, target):
    def fail(*args, **kwargs):
        raise AssertionError("an input was read or a model trained")
    for name in ("train", "read_tuples_jsonl", "read_records_jsonl", "_read_vocab"):
        monkeypatch.setattr(cli, name, fail)
    path = str(tmp_path / target) if target else ""
    argv = {
        "train": ["train", "--input", str(pipeline["dataset"]), "--vocab", str(pipeline["vocab"]),
                  "--output", str(tmp_path / "m.ckpt")],
        "build-dataset": ["build-dataset", "--input", str(pipeline["tuples"]),
                          "--output", str(tmp_path / "ds.jsonl")],
        "stats": ["stats", "--input", str(pipeline["tuples"])],
    }[command]
    assert run([*argv, flag, path]) == 2
    if target.startswith("absent"):
        want = f"{flag} {path}: directory {tmp_path / 'absent'} does not exist"
    else:
        want = f"{flag} {path!r} is not a path to a file"
    assert capsys.readouterr().err == f"ERROR code=2 {want}\n"
    assert list(tmp_path.iterdir()) == []


_INPUT_FLAGS = {
    "extract": ["--input"], "stats": ["--input"], "build-dataset": ["--input", "--corpus"],
    "train": ["--input", "--vocab"], "eval": ["--input", "--model", "--vocab"],
    "predict": ["--model", "--vocab", "--input"],
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in _INPUT_FLAGS.items() for flag in flags])
def test_directory_input_path_exit_2_before_any_work(pipeline, tmp_path, monkeypatch,
                                                     capsys, command, flag):
    def fail(*args, **kwargs):
        raise AssertionError("an input was read or a model trained")
    for name in ("text_lines", "load_checkpoint", "train", "gradient_check"):
        monkeypatch.setattr(cli, name, fail)
    out = str(tmp_path / "out")
    argv = {
        "extract": ["--input", str(pipeline["corpus"]), "--output", out],
        "stats": ["--input", str(pipeline["tuples"]), "--output", out],
        "build-dataset": ["--ms", "--corpus", str(pipeline["corpus"]),
                          "--input", str(pipeline["tuples"]), "--output", out],
        "train": ["--input", str(pipeline["dataset"]), "--vocab", str(pipeline["vocab"]),
                  "--output", out],
        "eval": ["--input", str(pipeline["instances"]), "--model", str(pipeline["model"]),
                 "--vocab", str(pipeline["vocab"]), "--output", out],
        "predict": ["--model", str(pipeline["model"]), "--vocab", str(pipeline["vocab"]),
                    "--event", "they slept", "--verb-index", "1", "--dimension", "duration",
                    "--output", out],
    }[command]
    directory = tmp_path / "dir"
    directory.mkdir()
    assert run([command, *argv, flag, str(directory)]) == 2  # the last value of a flag wins
    assert capsys.readouterr().err == (
        f"ERROR code=2 {flag} {str(directory)!r} is a directory, not a file\n")
    assert list(tmp_path.iterdir()) == [directory]


@pytest.mark.parametrize("command, argv, flags", [
    ("train", ["--input", "ds.jsonl", "--vocab", "v.tsv", "--output", "m.ckpt",
               "--loss-log", "m.ckpt"], ("--loss-log", "--output")),
    ("train", ["--input", "ds.jsonl", "--vocab", "m.ckpt.loss.csv", "--output", "m.ckpt"],
     ("--loss-log", "--vocab")),
    ("build-dataset", ["--input", "t.jsonl", "--output", "d.jsonl", "--vocab-out", "d.jsonl"],
     ("--vocab-out", "--output")),
    ("predict", ["--model", "m.ckpt", "--vocab", "v.tsv", "--event", "they slept",
                 "--verb-index", "1", "--dimension", "duration", "--output", "m.ckpt"],
     ("--output", "--model")),
    ("extract", ["--input", "c.jsonl", "--output", "./c.jsonl"], ("--output", "--input")),
], ids=["train-loss-log-is-output", "train-default-loss-log-is-vocab",
        "build-dataset-vocab-out-is-output", "predict-output-is-model", "extract-output-is-input"])
def test_output_naming_an_input_or_output_exit_2_before_any_work(
        pipeline, tmp_path, monkeypatch, capsys, command, argv, flags):
    def fail(*args, **kwargs):
        raise AssertionError("an input was read or a model trained")
    for name in ("text_lines", "read_tuples_jsonl", "read_records_jsonl", "_read_vocab",
                 "load_checkpoint", "train"):
        monkeypatch.setattr(cli, name, fail)
    sources = {"ds.jsonl": "dataset", "v.tsv": "vocab", "m.ckpt": "model",
               "m.ckpt.loss.csv": "vocab", "t.jsonl": "tuples", "c.jsonl": "corpus"}
    files = {name: pipeline[key].read_bytes() for name, key in sources.items() if name in argv}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    assert run([command, *argv]) == 2
    paths = {flag: value for flag, value in zip(argv, argv[1:]) if flag.startswith("--")}
    paths.setdefault("--loss-log", "m.ckpt.loss.csv")
    first, second = flags
    assert capsys.readouterr().err == (f"ERROR code=2 {first} {paths[first]!r} names the "
                                       f"same file as {second} {paths[second]!r}\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


@pytest.mark.parametrize("command, flag, default", [
    ("build-dataset", "--vocab-out", "out.vocab.tsv"), ("train", "--loss-log", "out.loss.csv")])
def test_default_output_path_that_is_a_directory_exit_2_before_any_work(
        pipeline, tmp_path, monkeypatch, capsys, command, flag, default):
    def fail(*args, **kwargs):
        raise AssertionError("an input was read or a model trained")
    for name in ("train", "read_tuples_jsonl", "read_records_jsonl", "_read_vocab"):
        monkeypatch.setattr(cli, name, fail)
    (tmp_path / default).mkdir()
    inputs = {"build-dataset": ["--input", str(pipeline["tuples"])],
              "train": ["--input", str(pipeline["dataset"]), "--vocab", str(pipeline["vocab"])]}
    assert run([command, *inputs[command], "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"ERROR code=2 {flag} {str(tmp_path / default)!r} is not a path to a file\n")
    assert list(tmp_path.iterdir()) == [tmp_path / default]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_learning_rate_exit_2_before_training(pipeline, tmp_path, monkeypatch,
                                                        capsys, value):
    def fail(*args, **kwargs):
        raise AssertionError("a model was trained")
    monkeypatch.setattr(cli, "train", fail)
    assert run(["train", "--input", str(pipeline["dataset"]), "--vocab", str(pipeline["vocab"]),
                "--output", str(tmp_path / "m.ckpt"), "--learning-rate", value]) == 2
    assert capsys.readouterr().err == (
        f"ERROR code=2 learning_rate must be positive and finite, got {value}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("field", ["sigma_log", "sigma_circular"])
def test_non_finite_sigma_exit_2_before_any_input(pipeline, tmp_path, monkeypatch, capsys,
                                                  field):
    def fail(*args, **kwargs):
        raise AssertionError("an input was read or a model trained")
    for name in ("text_lines", "_read_vocab", "read_records_jsonl", "train"):
        monkeypatch.setattr(cli, name, fail)
    assert run(["train", "--input", str(pipeline["dataset"]), "--vocab", str(pipeline["vocab"]),
                "--output", str(tmp_path / "m.ckpt"), "--" + field.replace("_", "-"), "nan"]) == 2
    assert capsys.readouterr().err == f"ERROR code=2 {field} must be positive and finite, got nan\n"
    assert list(tmp_path.iterdir()) == []


def test_train_echoes_the_sigma_flags(pipeline, tmp_path):
    model = tmp_path / "m.ckpt"
    assert run(["train", "--input", str(pipeline["dataset"]), "--vocab", str(pipeline["vocab"]),
                "--output", str(model), "--d-model", "16", "--n-layers", "1", "--n-heads", "2",
                "--ff-dim", "32", "--epochs", "1", "--sigma-log", "2.0",
                "--sigma-circular", "1.0"]) == 0
    header = header_lines(tmp_path / "m.ckpt.loss.csv")
    assert "# sigma_log=2.0" in header and "# sigma_circular=1.0" in header
    assert b"\n# sigma_circular=1.0\n# sigma_log=2.0\n" in model.read_bytes()


def test_unknown_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as ei:
        run(["extract", "--nonsense"])
    assert ei.value.code == 2
    assert capsys.readouterr().err.startswith("ERROR code=2 ")


@pytest.mark.parametrize("argv", [
    ["train", "--input", "d.jsonl", "--vocab", "v.tsv", "--output", "m.ckpt",
     "--epoch", "3", "--val", "0.1"],
    ["train", "--input", "d.jsonl", "--vocab", "v.tsv", "--output", "m.ckpt", "--learning", "0.1"],
    ["predict", "--model", "m.ckpt", "--vocab", "v.tsv", "--dim", "duration",
     "--ev", "a b", "--verb", "0"],
    ["build-dataset", "--input", "t.jsonl", "--output", "d.jsonl", "--min", "2"],
    ["grad-check", "--coord", "3"],
], ids=lambda a: f"{a[0]} {a[-2]}")
def test_abbreviated_flag_exit_2(capsys, argv):
    # A flag is taken only as spelled in full, so a renamed flag cannot
    # keep parsing under a prefix of its new name.
    with pytest.raises(SystemExit) as ei:
        run(argv)
    assert ei.value.code == 2
    assert capsys.readouterr().err.startswith("ERROR code=2 unrecognized arguments: ")


def test_no_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as ei:
        run([])
    assert ei.value.code == 2


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_untyped_value_error_exit_1(tmp_path, monkeypatch, capsys):
    # Only SchemaError and UsageError name bad input; a bare ValueError
    # is a bug in the program, not a schema violation.
    def broken(*args):
        raise ValueError("internal bug")
    empty = tmp_path / "t.jsonl"
    empty.write_text("")
    # The parser exists before the patch: main finds the handler by name.
    assert run(["stats", "--input", str(empty)]) == 0
    monkeypatch.setattr(cli, "cmd_stats", broken)
    assert run(["stats", "--input", str(empty)]) == 1
    assert capsys.readouterr().err == "ERROR code=1 internal bug\n"


# --------------------------------------------------------------- settings

def test_invalid_knob_combination_exit_2(pipeline, tmp_path, capsys):
    out = tmp_path / "ds.jsonl"
    assert run(["build-dataset", "--input", str(pipeline["tuples"]), "--output", str(out),
                "--p-mask", "1.5"]) == 2
    assert capsys.readouterr().err.startswith("ERROR code=2 p_mask must lie in [0, 1]")
    assert not out.exists()


@pytest.mark.parametrize("seed", [str(2**64), "-1"])
def test_seed_outside_64_bits_exit_2(pipeline, tmp_path, capsys, seed):
    out = tmp_path / "ds.jsonl"
    assert run(["build-dataset", "--input", str(pipeline["tuples"]), "--output", str(out),
                "--seed", seed]) == 2
    assert capsys.readouterr().err == f"ERROR code=2 seed must lie in [0, 2**64), got {seed}\n"
    assert not out.exists()


def test_pipeline_config_extends_the_library_configs():
    assert issubclass(cli.PipelineConfig, TrainConfig)
    assert issubclass(cli.PipelineConfig, MaskingConfig)
    # It declares only the settings no library class owns.
    assert set(cli.PipelineConfig.__annotations__) == {"ms", "min_count", "balance",
                                                       "val_fraction"}
    library = {f.name: f.type for cls in (TrainConfig, MaskingConfig)
               for f in dataclasses.fields(cls)}
    assert cli._CONFIG_FIELDS == {**library, "ms": bool, "min_count": int, "balance": bool,
                                  "val_fraction": float}
    cfg = cli.PipelineConfig()
    for cls in (TrainConfig, MaskingConfig):
        default = cls()
        for field in dataclasses.fields(cls):
            assert getattr(cfg, field.name) == getattr(default, field.name), field.name


def test_config_checks_pipeline_settings_first(pipeline, tmp_path, capsys):
    assert run(["build-dataset", "--input", str(pipeline["tuples"]),
                "--output", str(tmp_path / "ds.jsonl"), "--p-mask", "1.5", "--min-count", "0"]) == 2
    assert capsys.readouterr().err == "ERROR code=2 min_count must be positive\n"
    assert run(["train", "--input", str(pipeline["dataset"]), "--vocab", str(pipeline["vocab"]),
                "--output", str(tmp_path / "m.ckpt"), "--learning-rate", "nan",
                "--val-fraction", "2"]) == 2
    assert capsys.readouterr().err == "ERROR code=2 val_fraction must lie in [0, 1], got 2.0\n"
    assert list(tmp_path.iterdir()) == []


# The required flags of each subcommand.
_MINIMAL_ARGV = {
    "extract": ["--input", "c.jsonl", "--output", "t.jsonl"],
    "stats": ["--input", "t.jsonl"],
    "build-dataset": ["--input", "t.jsonl", "--output", "d.jsonl"],
    "train": ["--input", "d.jsonl", "--vocab", "v.tsv", "--output", "m.ckpt"],
    "eval": ["--input", "e.jsonl", "--model", "m.ckpt", "--vocab", "v.tsv"],
    "predict": ["--model", "m.ckpt", "--vocab", "v.tsv"],
    "grad-check": [],
}


# Settings that are gone: --workers (parallel extraction), --format (the
# binary dataset), --norm-mode, and on every subcommand --config (a
# key=value settings file: every setting is a flag).
@pytest.mark.parametrize("argv", [
    ["extract", *_MINIMAL_ARGV["extract"], "--workers", "2"],
    ["build-dataset", *_MINIMAL_ARGV["build-dataset"], "--format", "jsonl"],
    ["build-dataset", *_MINIMAL_ARGV["build-dataset"], "--norm-mode", "softmax"],
    *([name, *argv, "--config", "run.cfg"] for name, argv in _MINIMAL_ARGV.items()),
], ids=lambda a: f"{a[0]} {a[-2]}")
def test_removed_flag_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as ei:
        run(argv)
    assert ei.value.code == 2
    assert capsys.readouterr().err == f"ERROR code=2 unrecognized arguments: {' '.join(argv[-2:])}\n"


# Subcommands that are gone: manifest (every vocab.tsv's reserved rows list
# the labels) and dump-target (tempomine.soft_target computes the row).
@pytest.mark.parametrize("argv", [["manifest"], ["dump-target", "duration", "hour"]],
                         ids=lambda a: a[0])
def test_removed_subcommand_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as ei:
        run(argv)
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR code=2 argument subcommand: invalid choice: '{argv[0]}'")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", [["--am"], ["--ms"], ["--p-mask", "0.3"],
                                  ["--norm-mode", "softmax"]], ids=lambda f: f[0])
def test_train_rejects_build_dataset_flags_exit_2(pipeline, tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as ei:
        run(["train", "--input", str(pipeline["dataset"]), "--vocab", str(pipeline["vocab"]),
             "--output", str(tmp_path / "m.ckpt"), "--epochs", "1", *flag])
    assert ei.value.code == 2
    assert capsys.readouterr().err.startswith("ERROR code=2 ")
    assert not (tmp_path / "m.ckpt").exists()


def test_each_subcommand_takes_and_echoes_only_what_it_reads(pipeline, tmp_path):
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subparsers) == set(cli.READS)
    for name, subparser in subparsers.items():
        knob_flags = {a.dest for a in subparser._actions if a.dest in cli._CONFIG_FIELDS}
        assert knob_flags == {"seed", *cli.READS[name]}, name
        assert " ".join(subparser.format_help().split()).endswith(cli._EXIT_CODE_HELP), name

    model = ["--model", str(pipeline["model"]), "--vocab", str(pipeline["vocab"])]
    written = {
        "extract": pipeline["tuples"],
        "build-dataset": pipeline["dataset"],
        "train": pipeline["root"] / "model.ckpt.loss.csv",
    }
    for name, argv in {
        "stats": ["--input", str(pipeline["tuples"])],
        "eval": ["--input", str(pipeline["instances"]), *model],
        "predict": ["--event", "they met", "--verb-index", "1", "--dimension", "duration",
                    *model],
    }.items():
        written[name] = tmp_path / f"{name}.out"
        assert run([name, *argv, "--output", str(written[name])]) == 0
    assert set(written) == set(cli.READS) - {"grad-check"}  # grad-check writes no file
    for name, path in written.items():
        header = [line[2:] for line in header_lines(path)]
        assert header[0] == f"tempomine {name}"
        keys = [line.partition("=")[0] for line in header[1:]]
        # A dataset also states its vocabulary's digest, after the echo.
        stated = ["vocab_sha256"] if name == "build-dataset" else []
        assert keys == sorted({"seed", *cli.READS[name]}) + stated, name


# ----------------------------------------------------------------- stats

def test_stats_output(pipeline, tmp_path):
    out = tmp_path / "stats.csv"
    assert run(["stats", "--input", str(pipeline["tuples"]),
                "--output", str(out)]) == 0
    lines = non_comment_lines(out)
    assert lines[0].strip() == "dimension,label,count,weight"
    assert len(lines) > 1
    for line in lines[1:]:
        dim, label, count, weight = line.strip().split(",")
        assert int(count) > 0
        assert 0.1 <= float(weight) <= 10.0


def test_stats_empty_input_exit_0(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("# nothing here\n")
    assert run(["stats", "--input", str(empty)]) == 0
    out = capsys.readouterr().out
    assert "dimension,label,count,weight" in out


def test_stats_to_stdout(pipeline, capsys):
    assert run(["stats", "--input", str(pipeline["tuples"])]) == 0
    out = capsys.readouterr().out
    assert "dimension,label,count,weight" in out


# ------------------------------------------------------------ build-dataset

# SHA-256 of build-dataset --ms on the fixture corpus at the default seed.
# These files hold only integers, PCG64 draws and Python-float weights, so
# unlike a checkpoint they do not depend on the BLAS or the core count.
# Update the digests only with a change that means to alter the record or
# vocabulary bytes (the id layout, the template, masking, the weights or
# the header), and say so in CHANGES.md.
GOLDEN_RECORDS_SHA256 = "a49d3894380956ef8b4385045142c7e3f5949661ff28337d84375a5b61ae6673"
GOLDEN_VOCAB_SHA256 = "ba4bc6d498bf04bda5ba122c0e0fe98187cf6ab56bf81f12fda0eacf374ebb65"


def test_build_dataset_matches_golden_digests(tmp_path, fixture_corpus_path):
    tuples, records = tmp_path / "tuples.jsonl", tmp_path / "records.jsonl"
    assert run(["extract", "--input", fixture_corpus_path, "--output", str(tuples)]) == 0
    assert run(["build-dataset", "--ms", "--corpus", fixture_corpus_path,
                "--input", str(tuples), "--output", str(records)]) == 0
    vocab = tmp_path / "records.jsonl.vocab.tsv"
    assert hashlib.sha256(records.read_bytes()).hexdigest() == GOLDEN_RECORDS_SHA256
    assert hashlib.sha256(vocab.read_bytes()).hexdigest() == GOLDEN_VOCAB_SHA256


def test_build_dataset_jsonl(pipeline):
    records = read_dataset(pipeline["dataset"])
    tuples = non_comment_lines(pipeline["tuples"])
    assert len(records) == len(tuples) == 150
    with open(pipeline["vocab"], encoding="utf-8") as f:
        vocab = Vocabulary.from_tsv_lines(f)
    assert len(vocab) > 71


@pytest.mark.parametrize("command", ["build-dataset", "stats"])
def test_tuple_missing_key_exit_4(pipeline, tmp_path, capsys, command):
    lines = pipeline["tuples"].read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    tup = json.loads(lines[first + 1])
    del tup["value"]
    lines[first + 1] = json.dumps(tup) + "\n"
    tuples = tmp_path / "t.jsonl"
    tuples.write_text("".join(lines))
    argv = [command, "--input", str(tuples), "--output", str(tmp_path / "out")]
    assert run(argv) == 4
    assert capsys.readouterr().err.startswith(
        f"ERROR code=4 {tuples}:{first + 2}: missing key 'value'")


def test_build_dataset_deterministic(pipeline, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for path in (a, b):
        assert run(["build-dataset", "--input", str(pipeline["tuples"]),
                    "--output", str(path), "--seed", "21"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.jsonl.vocab.tsv").read_bytes() == (
        tmp_path / "b.jsonl.vocab.tsv").read_bytes()


def test_build_dataset_balance(pipeline, tmp_path):
    out = tmp_path / "bal.jsonl"
    assert run(["build-dataset", "--input", str(pipeline["tuples"]),
                "--output", str(out), "--seed", "21", "--balance"]) == 0
    balanced = read_dataset(out)
    assert 0 < len(balanced) <= 150
    assert "# balance=true" in header_lines(out)


def test_build_dataset_hard_targets(pipeline, tmp_path, capsys):
    # The target kind is a train setting: build-dataset takes no --targets,
    # and one dataset serves both kinds.
    with pytest.raises(SystemExit) as ei:
        run(["build-dataset", "--input", str(pipeline["tuples"]),
             "--output", str(tmp_path / "hard.jsonl"), "--targets", "hard"])
    assert ei.value.code == 2
    assert "unrecognized arguments: --targets hard" in capsys.readouterr().err
    argv = ["train", "--input", str(pipeline["dataset"]), "--vocab", str(pipeline["vocab"]),
            "--seed", "21", "--epochs", "1", "--d-model", "16", "--n-heads", "2"]
    for kind in ("soft", "hard"):
        assert run([*argv, "--output", str(tmp_path / f"{kind}.ckpt"), "--targets", kind]) == 0
        assert f"# targets={kind}" in header_lines(tmp_path / f"{kind}.ckpt.loss.csv")
    soft = load_checkpoint(str(tmp_path / "soft.ckpt"))[0]
    hard = load_checkpoint(str(tmp_path / "hard.ckpt"))[0]
    assert not np.array_equal(soft["tok_emb"], hard["tok_emb"])
    capsys.readouterr()
    assert run([*argv, "--output", str(tmp_path / "x.ckpt"), "--targets", "smooth"]) == 2
    assert capsys.readouterr().err == (
        "ERROR code=2 targets must be 'soft' or 'hard', got 'smooth'\n")
    assert not (tmp_path / "x.ckpt").exists()


def test_target_settings_are_echoed_by_train_not_build_dataset(pipeline):
    build = header_lines(pipeline["dataset"])
    train = header_lines(pipeline["root"] / "model.ckpt.loss.csv")
    for line in ("# sigma_circular=0.5", "# sigma_log=4.0", "# targets=soft"):
        assert line in train
    assert not any(line.startswith(("# targets", "# sigma")) for line in build)


def test_build_dataset_ms_without_corpus_exit_2(pipeline, capsys):
    assert run(["build-dataset", "--input", str(pipeline["tuples"]),
                "--output", "/tmp/never-written.jsonl", "--ms"]) == 2
    assert "--corpus" in capsys.readouterr().err


def test_build_dataset_ms_corpus_without_the_sentence_exit_4(pipeline, tmp_path, capsys):
    corpus = tmp_path / "other.jsonl"
    lines = pipeline["corpus"].read_text().splitlines(keepends=True)
    corpus.write_text("".join(line.replace('"doc_id": "', '"doc_id": "other-')
                              for line in lines))
    first = json.loads(next(line for line in pipeline["tuples"].read_text().splitlines()
                            if not line.startswith("#")))
    out = tmp_path / "ds.jsonl"
    assert run(["build-dataset", "--input", str(pipeline["tuples"]), "--output", str(out),
                "--ms", "--corpus", str(corpus)]) == 4
    assert capsys.readouterr().err == (
        f"ERROR code=4 {pipeline['tuples']}: a tuple's sentence (doc_id, sent_index) = "
        f"{(first['doc_id'], first['sent_index'])} is not in {corpus}\n")
    assert not out.exists()


_BAD_FRAME = ('{"doc_id": "x", "sent_index": 0, "tokens": ["a", "b"], '
              '"frames": [{"verb_index": 99}]}')


def test_build_dataset_ms_warns_of_each_corpus_record_it_skips(pipeline, tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    lines = pipeline["corpus"].read_text().splitlines()
    corpus.write_text("\n".join([*lines, _BAD_FRAME]) + "\n")
    out = tmp_path / "ds.jsonl"
    assert run(["build-dataset", "--input", str(pipeline["tuples"]), "--output", str(out),
                "--ms", "--corpus", str(corpus)]) == 0
    assert capsys.readouterr().err == (f"skipping malformed record at {corpus}:{len(lines) + 1}: "
                                       "verb_index 99 out of bounds for 2 tokens\n")
    assert out.exists()


def test_build_dataset_ms_refuses_a_repeated_corpus_sentence_exit_4(pipeline, tmp_path, capsys):
    lines = pipeline["corpus"].read_text().splitlines()
    repeat = json.loads(lines[0])
    repeat["left_context"] = ["gamma", "delta"]
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("\n".join(["# a header line", *lines, json.dumps(repeat)]) + "\n")
    out = tmp_path / "ds.jsonl"
    assert run(["build-dataset", "--input", str(pipeline["tuples"]), "--output", str(out),
                "--ms", "--corpus", str(corpus)]) == 4
    key = (repeat["doc_id"], repeat["sent_index"])
    assert capsys.readouterr().err == (
        f"ERROR code=4 {corpus}:{len(lines) + 2}: (doc_id, sent_index) = {key} "
        f"repeats line 2, so its context is ambiguous\n")
    assert not out.exists()


def test_build_dataset_ms_names_the_skipped_line_of_a_missing_sentence_exit_4(
        pipeline, tmp_path, capsys):
    first = json.loads(next(line for line in pipeline["tuples"].read_text().splitlines()
                            if not line.startswith("#")))
    key = (first["doc_id"], first["sent_index"])
    lines = pipeline["corpus"].read_text().splitlines()
    line_no = next(n for n, line in enumerate(lines, start=1)
                   if (json.loads(line)["doc_id"], json.loads(line)["sent_index"]) == key)
    damaged = json.loads(lines[line_no - 1])
    damaged["frames"][0]["verb_index"] = 99
    lines[line_no - 1] = json.dumps(damaged)
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("\n".join(lines) + "\n")
    out = tmp_path / "ds.jsonl"
    assert run(["build-dataset", "--input", str(pipeline["tuples"]), "--output", str(out),
                "--ms", "--corpus", str(corpus)]) == 4
    defect = f"verb_index 99 out of bounds for {len(damaged['tokens'])} tokens"
    assert capsys.readouterr().err == (
        f"skipping malformed record at {corpus}:{line_no}: {defect}\n"
        f"ERROR code=4 {pipeline['tuples']}: a tuple's sentence (doc_id, sent_index) = {key} "
        f"is not in {corpus}; {corpus}:{line_no} was skipped as malformed: {defect}\n")
    assert not out.exists()


def test_build_dataset_corpus_without_ms_exit_2(pipeline, tmp_path, capsys):
    out = tmp_path / "ds.jsonl"
    assert run(["build-dataset", "--input", str(pipeline["tuples"]), "--output", str(out),
                "--corpus", str(tmp_path / "nonexistent" / "corpus.jsonl")]) == 2
    assert capsys.readouterr().err == "ERROR code=2 --corpus is read only with --ms\n"
    assert not out.exists()


# (the damage to a tuple line, the start of the message)
_TUPLE_DEFECTS = {
    "string-tokens": (lambda t: t.update(event_tokens=" ".join(t["event_tokens"])),
                      "event_tokens must be a list of strings"),
    "integer-tokens": (lambda t: t.update(event_tokens=list(range(len(t["event_tokens"])))),
                       "event_tokens must be a list of strings"),
    "integer-embedded": (lambda t: t.update(arg_tmp_event_tokens=[7]),
                         "arg_tmp_event_tokens must be a list of strings"),
    "unknown-value": (lambda t: t.update(value="fortnight"),
                      "label 'fortnight' not in the {dimension} space"),
    "verb-index": (lambda t: t.update(verb_index=99),
                   "verb_index 99 out of bounds for {n} event tokens"),
    "empty-event": (lambda t: t.update(event_tokens=[], verb_index=0),
                    "verb_index 0 out of bounds for 0 event tokens"),
    "fractional-verb-index": (lambda t: t.update(verb_index=2.9),
                              "verb_index must be an integer, got 2.9"),
    "string-verb-index": (lambda t: t.update(verb_index="2"),
                          'verb_index must be an integer, got "2"'),
    "bool-verb-index": (lambda t: t.update(verb_index=True),
                        "verb_index must be an integer, got true"),
    "fractional-sent-index": (lambda t: t.update(sent_index=0.9),
                              "sent_index must be an integer, got 0.9"),
    "bool-frame-ordinal": (lambda t: t.update(frame_ordinal=True),
                           "frame_ordinal must be an integer, got true"),
    "integer-doc-id": (lambda t: t.update(doc_id=7), "doc_id must be a string"),
    # The embedded event is the second event of a hierarchy relation, and
    # only of one.
    "embedded-event-off-hierarchy": (lambda t: t.update(arg_tmp_event_tokens=["lunch", "ended"]),
                                     "arg_tmp_event_tokens must be empty on a {dimension} tuple"),
    "hierarchy-without-embedded-event": (
        lambda t: t.update(dimension="hierarchy", value="before", arg_tmp_event_tokens=[]),
        "arg_tmp_event_tokens must be non-empty on a hierarchy tuple"),
}


@pytest.mark.parametrize("defect", list(_TUPLE_DEFECTS))
def test_tuple_line_checked_where_read_exit_4(pipeline, tmp_path, capsys, defect):
    damage, message = _TUPLE_DEFECTS[defect]
    lines = pipeline["tuples"].read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    tup = json.loads(lines[row])
    message = message.format(dimension=tup["dimension"], n=len(tup["event_tokens"]))
    damage(tup)
    lines[row] = json.dumps(tup) + "\n"
    tuples = tmp_path / "t.jsonl"
    tuples.write_text("".join(lines))
    out = tmp_path / "ds.jsonl"
    assert run(["build-dataset", "--input", str(tuples), "--output", str(out)]) == 4
    assert capsys.readouterr().err.startswith(f"ERROR code=4 {tuples}:{row + 1}: {message}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["build-dataset", "train"])
def test_max_len_below_template_exit_2(pipeline, tmp_path, capsys, command):
    out = tmp_path / "out"
    source = pipeline["tuples"] if command == "build-dataset" else pipeline["dataset"]
    argv = [command, "--input", str(source), "--output", str(out), "--max-len", "5"]
    if command == "train":
        argv += ["--vocab", str(pipeline["vocab"])]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "ERROR code=2 --max-len must be at least 6 to hold [Vrb], one event word "
        "and [SEP] [Vrb] [Dim] [Val], got 5\n")
    assert not out.exists()


def test_build_dataset_min_count_above_every_word_exit_2(pipeline, tmp_path, capsys):
    out = tmp_path / "ds.jsonl"
    assert run(["build-dataset", "--input", str(pipeline["tuples"]), "--output", str(out),
                "--min-count", "1000000"]) == 2
    assert capsys.readouterr().err == (
        f"ERROR code=2 --min-count 1000000 leaves no word of {pipeline['tuples']} "
        f"in the vocabulary\n")
    assert not out.exists()


def test_build_dataset_shortest_template(pipeline, tmp_path):
    out = tmp_path / "ds.jsonl"
    assert run(["build-dataset", "--input", str(pipeline["tuples"]), "--output", str(out),
                "--max-len", "6"]) == 0
    assert {len(rec.input_ids) for rec in read_dataset(out)} == {6}


def test_build_dataset_vocab_out_flag(pipeline, tmp_path):
    ds = tmp_path / "d.jsonl"
    vc = tmp_path / "custom-vocab.tsv"
    assert run(["build-dataset", "--input", str(pipeline["tuples"]),
                "--output", str(ds), "--seed", "21",
                "--vocab-out", str(vc)]) == 0
    assert vc.exists()


# ----------------------------------------------------------------- train

def test_train_outputs(pipeline):
    assert pipeline["model"].exists()
    with open(pipeline["model"], "rb") as f:
        assert f.read(4) == b"TMCK"
    loss_log = pipeline["root"] / "model.ckpt.loss.csv"
    lines = non_comment_lines(loss_log)
    assert lines[0].strip() == "epoch,split,loss,mean_distance"
    rows = [line.strip().split(",") for line in lines[1:]]
    assert len(rows) == 4  # one train row per epoch, no val split
    losses = [float(r[2]) for r in rows]
    assert losses[-1] < losses[0]


def test_train_deterministic_checkpoint(pipeline, tmp_path):
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    argv = ["train", "--input", str(pipeline["dataset"]),
            "--vocab", str(pipeline["vocab"]), "--seed", "21",
            "--d-model", "16", "--n-layers", "1", "--n-heads", "2",
            "--ff-dim", "32", "--epochs", "2", "--batch-size", "16"]
    assert run(argv + ["--output", str(a)]) == 0
    assert run(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_val_fraction_rows(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "v.ckpt"
    log = tmp_path / "v.loss.csv"
    assert run(["train", "--input", str(pipeline["dataset"]),
                "--vocab", str(pipeline["vocab"]), "--output", str(ckpt),
                "--seed", "21", "--d-model", "16", "--n-layers", "1",
                "--n-heads", "2", "--ff-dim", "32", "--epochs", "2",
                "--batch-size", "16", "--val-fraction", "0.2",
                "--loss-log", str(log)]) == 0
    rows = [line.strip().split(",") for line in non_comment_lines(log)[1:]]
    assert [r[1] for r in rows] == ["train", "val", "train", "val"]
    val_rows = [r for r in rows if r[1] == "val"]
    assert all(r[3] != "" for r in val_rows)
    # The summary's final loss is the last train row's, not the val row's.
    n_records = len(read_dataset(pipeline["dataset"]))
    n_val = sum(stream_rng(21, "split", i).random() < 0.2 for i in range(n_records))
    (_, _, train_loss, _), (_, _, val_loss, val_dist) = rows[2:]
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"trained 2 epochs on {n_records - n_val} records; final loss {float(train_loss):.4f}; "
        f"validation loss {float(val_loss):.4f}, mean distance {float(val_dist):.4f} "
        f"on {n_val} records")


def test_train_val_fraction_one_exit_2(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--input", str(pipeline["dataset"]), "--vocab", str(pipeline["vocab"]),
                "--output", str(ckpt), "--val-fraction", "1.0"]) == 2
    assert capsys.readouterr().err == ("ERROR code=2 --val-fraction 1.0 leaves no record in the "
                                       f"training share of {pipeline['dataset']}\n")
    assert not ckpt.exists()


def test_train_record_missing_key_exit_4(pipeline, tmp_path, capsys):
    lines = pipeline["dataset"].read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    record = json.loads(lines[first + 1])
    del record["weight"]
    lines[first + 1] = json.dumps(record) + "\n"
    dataset = tmp_path / "ds.jsonl"
    dataset.write_text("".join(lines))
    assert run(["train", "--input", str(dataset), "--vocab", str(pipeline["vocab"]),
                "--output", str(tmp_path / "m.ckpt")]) == 4
    assert capsys.readouterr().err.startswith(
        f"ERROR code=4 {dataset}:{first + 2}: missing key 'weight'")


def _token_target(record):
    """The record's first target other than its [Val] slot's."""
    return next(t for t in record["targets"] if t["position"] != record["val_position"])


def _val_target(record):
    return next((t for t in record["targets"]
                 if isinstance(t, dict) and t["position"] == record["val_position"]), None)


def _labels(record):
    return len(label_space(TemporalDimension(record["dimension"])).labels)


# (which records qualify, the damage, the start of the message)
_RECORD_DEFECTS = {
    "input-id": (lambda r: True,
                 lambda r: r["input_ids"].__setitem__(0, 9999),
                 "input id 9999 outside the "),
    "negative-input-id": (lambda r: True,
                          lambda r: r["input_ids"].__setitem__(0, -1),
                          "input id -1 outside the "),
    "hard-token-id": (lambda r: any(t["position"] != r["val_position"] for t in r["targets"]),
                      lambda r: _token_target(r).update(token_id=9999),
                      "target token_id 9999 outside the "),
    "target-position": (lambda r: r["targets"],
                        lambda r: r["targets"][0].update(position=len(r["input_ids"])),
                        "target position {n} outside the record's {n} ids"),
    "val-position": (lambda r: True,
                     lambda r: r.update(val_position=len(r["input_ids"])),
                     "val_position {n} outside the record's {n} ids"),
    "weight-negative": (lambda r: True,
                        lambda r: r.update(weight=-1.0),
                        "weight must be finite and positive, got -1.0"),
    "weight-not-finite": (lambda r: True,
                          lambda r: r.update(weight=float("inf")),
                          "weight must be finite and positive, got inf"),
    "weight-zero": (lambda r: True,
                    lambda r: r.update(weight=0.0),
                    "weight must be finite and positive, got 0.0"),
    # The [Val] slot must name a label of the record's dimension: its
    # target's token_id if it has one, else the id in place.
    "val-slot-not-a-val-id": (lambda r: r["targets"] and r["targets"][0]["position"] > 0,
                              lambda r: r.update(val_position=0),
                              "[Val] slot 0 holds id {first}, not a {dimension} [Val] id "),
    "val-target-outside-the-block": (
        lambda r: _val_target(r) is not None,
        lambda r: _val_target(r).update(token_id=_val_target(r)["token_id"] - _labels(r)),
        "[Val] slot {val} holds id {val_id}, not a {dimension} [Val] id "),
    # Ids, slots and the weight must have their JSON type, not convert to it.
    "input-id-float": (lambda r: True,
                       lambda r: r["input_ids"].__setitem__(0, 4.9),
                       "input_ids[0] must be an integer, got 4.9"),
    "input-id-bool": (lambda r: True,
                      lambda r: r["input_ids"].__setitem__(1, True),
                      "input_ids[1] must be an integer, got true"),
    "val-position-string": (lambda r: True,
                            lambda r: r.update(val_position="9"),
                            'val_position must be an integer, got "9"'),
    "weight-string": (lambda r: True,
                      lambda r: r.update(weight="2.5"),
                      'weight must be a number, got "2.5"'),
    "weight-bool": (lambda r: True,
                    lambda r: r.update(weight=True),
                    "weight must be a number, got true"),
    "target-position-float": (lambda r: r["targets"],
                              lambda r: r["targets"][0].update(position=3.5),
                              "target position must be an integer, got 3.5"),
    "target-token-id-string": (lambda r: r["targets"],
                               lambda r: r["targets"][0].update(token_id="5"),
                               'target token_id must be an integer, got "5"'),
    "targets-string": (lambda r: True,
                       lambda r: r.update(targets=""),
                       'targets must be a list of objects, got ""'),
    "targets-object": (lambda r: True,
                       lambda r: r.update(targets={}),
                       "targets must be a list of objects, got {{}}"),
    "targets-integers": (lambda r: True,
                         lambda r: r.update(targets=[5]),
                         "targets must be a list of objects, got [5]"),
    "stored-soft-row": (lambda r: r["targets"],
                        lambda r: r["targets"][0].update(soft=None),
                        "target holds a stored soft row, which records no longer carry; "
                        "rebuild the dataset with build-dataset"),
}


@pytest.mark.parametrize("defect", list(_RECORD_DEFECTS))
def test_train_record_out_of_range_exit_4(pipeline, tmp_path, capsys, defect):
    qualifies, damage, message = _RECORD_DEFECTS[defect]
    lines = pipeline["dataset"].read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines)
               if not line.startswith("#") and qualifies(json.loads(line)))
    record = json.loads(lines[row])
    damage(record)
    lines[row] = json.dumps(record) + "\n"
    dataset = tmp_path / "ds.jsonl"
    dataset.write_text("".join(lines))
    assert run(["train", "--input", str(dataset), "--vocab", str(pipeline["vocab"]),
                "--output", str(tmp_path / "m.ckpt"), "--epochs", "1",
                "--val-fraction", "0.3"]) == 4
    message = message.format(n=len(record["input_ids"]), first=record["input_ids"][0],
                             dimension=record["dimension"], val=record["val_position"],
                             val_id=(_val_target(record) or {}).get("token_id"))
    assert capsys.readouterr().err.startswith(
        f"ERROR code=4 {dataset}:{row + 1}: {message}")
    assert not (tmp_path / "m.ckpt").exists()


def test_train_max_len_shorter_than_a_record_exit_2(pipeline, tmp_path, capsys):
    records = read_dataset(pipeline["dataset"])
    max_len = max(len(rec.input_ids) for rec in records) - 1
    first = next(i for i, rec in enumerate(records, start=1) if len(rec.input_ids) > max_len)
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--input", str(pipeline["dataset"]), "--vocab", str(pipeline["vocab"]),
                "--output", str(ckpt), "--max-len", str(max_len)]) == 2
    assert capsys.readouterr().err == (
        f"ERROR code=2 --max-len {max_len} is shorter than record {first} of "
        f"{pipeline['dataset']}, which has {len(records[first - 1].input_ids)} ids\n")
    assert not ckpt.exists()


def test_train_dataset_without_a_supervised_slot_exit_4(pipeline, tmp_path, capsys):
    dataset = tmp_path / "unmasked.jsonl"
    assert run(["build-dataset", "--input", str(pipeline["tuples"]), "--output", str(dataset),
                "--p-mask", "0", "--p-dim", "0", "--p-event", "0"]) == 0
    assert run(["train", "--input", str(dataset), "--vocab", f"{dataset}.vocab.tsv",
                "--output", str(tmp_path / "m.ckpt")]) == 4
    assert capsys.readouterr().err == (
        f"ERROR code=4 {dataset}: no record has a supervised slot\n")
    assert not (tmp_path / "m.ckpt").exists()


def test_train_validation_share_without_a_supervised_slot_exit_2(pipeline, tmp_path, capsys):
    # Strip the slots of exactly the records the 0.5 split sends to validation,
    # restoring each slot's id so that the [Val] slot still names its label.
    lines = pipeline["dataset"].read_text().splitlines(keepends=True)
    records = [i for i, line in enumerate(lines) if not line.startswith("#")]
    for number, row in enumerate(records):
        if stream_rng(0, "split", number).random() < 0.5:
            record = json.loads(lines[row])
            for t in record["targets"]:
                record["input_ids"][t["position"]] = t["token_id"]
            record["targets"] = []
            lines[row] = json.dumps(record) + "\n"
    dataset = tmp_path / "ds.jsonl"
    dataset.write_text("".join(lines))
    assert run(["train", "--input", str(dataset), "--vocab", str(pipeline["vocab"]),
                "--output", str(tmp_path / "m.ckpt"), "--val-fraction", "0.5"]) == 2
    assert capsys.readouterr().err == (
        f"ERROR code=2 --val-fraction 0.5 leaves no supervised slot in the validation "
        f"share of {dataset}\n")
    assert not (tmp_path / "m.ckpt").exists()


def test_train_divergence_exit_5(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "d.ckpt"
    assert run(["train", "--input", str(pipeline["dataset"]),
                "--vocab", str(pipeline["vocab"]), "--output", str(ckpt),
                "--seed", "21", "--d-model", "16", "--n-layers", "1",
                "--n-heads", "2", "--ff-dim", "32", "--epochs", "30",
                "--batch-size", "16", "--learning-rate", "100000.0"]) == 5
    assert capsys.readouterr().err.startswith("ERROR code=5 ")


# ----------------------------------------------------------------- eval

def test_eval_report(pipeline, tmp_path):
    out = tmp_path / "report.csv"
    assert run(["eval", "--input", str(pipeline["instances"]),
                "--model", str(pipeline["model"]),
                "--vocab", str(pipeline["vocab"]),
                "--output", str(out)]) == 0
    lines = non_comment_lines(out)
    assert lines[0].strip() == (
        "dimension,count,mean_distance,normalized_mean_distance,accuracy_at_0")
    rows = [line.strip().split(",") for line in lines[1:]]
    assert sum(int(r[1]) for r in rows) == 40


def test_eval_missing_model_exit_3(pipeline, tmp_path, capsys):
    assert run(["eval", "--input", str(pipeline["instances"]),
                "--model", str(tmp_path / "absent.ckpt"),
                "--vocab", str(pipeline["vocab"])]) == 3


def test_eval_truncated_checkpoint_exit_4(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "cut.ckpt"
    ckpt.write_bytes(pipeline["model"].read_bytes()[:-10])
    assert run(["eval", "--input", str(pipeline["instances"]),
                "--model", str(ckpt), "--vocab", str(pipeline["vocab"])]) == 4
    assert capsys.readouterr().err.startswith(f"ERROR code=4 {ckpt}: ")


def test_eval_instance_missing_key_exit_4(pipeline, tmp_path, capsys):
    instances = tmp_path / "gold.jsonl"
    instances.write_text(json.dumps({"event_tokens": ["they", "met"],
                                     "dimension": "duration",
                                     "gold_label": "hour"}) + "\n")
    assert run(["eval", "--input", str(instances),
                "--model", str(pipeline["model"]),
                "--vocab", str(pipeline["vocab"])]) == 4
    assert capsys.readouterr().err.startswith(
        f"ERROR code=4 {instances}:1: missing key 'verb_index'")


@pytest.mark.parametrize("verb_index, shown", [(2.9, "2.9"), ("2", '"2"'), (True, "true")])
def test_eval_instance_verb_index_not_an_integer_exit_4(pipeline, tmp_path, capsys,
                                                        verb_index, shown):
    instances = tmp_path / "gold.jsonl"
    instances.write_text(json.dumps({"event_tokens": ["they", "met", "up"],
                                     "verb_index": verb_index, "dimension": "duration",
                                     "gold_label": "hour"}) + "\n")
    assert run(["eval", "--input", str(instances),
                "--model", str(pipeline["model"]),
                "--vocab", str(pipeline["vocab"])]) == 4
    assert capsys.readouterr().err.startswith(
        f"ERROR code=4 {instances}:1: verb_index must be an integer, got {shown}")


@pytest.fixture(scope="module")
def other_vocabs(pipeline, tmp_path_factory):
    """Vocabularies the model was not trained on: another build-dataset
    run's, which is smaller, and the model's own with "the" and "a"
    swapped, which has the same size and ids."""
    root = tmp_path_factory.mktemp("other")
    smaller = root / "other.vocab.tsv"
    assert run(["build-dataset", "--input", str(pipeline["tuples"]),
                "--output", str(root / "other.jsonl"), "--vocab-out", str(smaller),
                "--seed", "21", "--min-count", "3"]) == 0
    with open(pipeline["vocab"]) as a, open(smaller) as b:
        assert len(Vocabulary.from_tsv_lines(b)) < len(Vocabulary.from_tsv_lines(a))
    swapped = root / "swapped.vocab.tsv"
    rows = pipeline["vocab"].read_text().splitlines(keepends=True)
    the, a = (next(i for i, row in enumerate(rows) if row.startswith(f"{word}\t"))
              for word in ("the", "a"))
    rows[the], rows[a] = rows[the].replace("the\t", "a\t"), rows[a].replace("a\t", "the\t")
    swapped.write_text("".join(rows))
    return {"smaller": smaller, "swapped": swapped}


@pytest.mark.parametrize("command, kind", [
    pytest.param(command, kind, id=command if kind == "smaller" else f"{command} swapped")
    for kind in ("smaller", "swapped") for command in ("eval", "predict --input", "predict --event")
])
def test_vocab_size_must_match_checkpoint_exit_4(pipeline, other_vocabs, tmp_path, capsys,
                                                 command, kind):
    queries = tmp_path / "q.jsonl"
    queries.write_text(json.dumps({"event_tokens": ["they", "met"], "verb_index": 1,
                                   "dimension": "duration"}) + "\n")
    tail = {
        "eval": ["--input", str(pipeline["instances"])],
        "predict --input": ["--input", str(queries)],
        "predict --event": ["--event", "they met", "--verb-index", "1",
                            "--dimension", "duration"],
    }[command]
    out = tmp_path / "out.csv"
    vocab = other_vocabs[kind]
    capsys.readouterr()
    assert run([command.split()[0], "--model", str(pipeline["model"]),
                "--vocab", str(vocab), "--output", str(out)] + tail) == 4
    assert capsys.readouterr().err.startswith(
        f"ERROR code=4 {vocab} is not the vocabulary {pipeline['model']} was trained on")
    assert not out.exists()


def test_checkpoint_stores_the_sha256_of_the_vocabulary_file_rows(pipeline):
    rows = "".join(non_comment_lines(pipeline["vocab"])).encode("utf-8")
    assert load_checkpoint(str(pipeline["model"]))[2] == hashlib.sha256(rows).hexdigest()


# ----------------------------------------------------------------- predict

def test_predict_inline(pipeline, capsys):
    assert run(["predict", "--model", str(pipeline["model"]),
                "--vocab", str(pipeline["vocab"]),
                "--event", "the manager paused briefly", "--verb-index", "2",
                "--dimension", "duration"]) == 0
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.splitlines()
            if line and not line.startswith("#")][1:]
    assert len(rows) == 9
    assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-9)


def test_predict_query_file(pipeline, tmp_path):
    queries = tmp_path / "q.jsonl"
    queries.write_text(json.dumps({
        "event_tokens": ["the", "team", "audited", "the", "books"],
        "verb_index": 2,
        "dimension": "typical_week",
    }) + "\n")
    out = tmp_path / "dist.csv"
    assert run(["predict", "--model", str(pipeline["model"]),
                "--vocab", str(pipeline["vocab"]),
                "--input", str(queries), "--output", str(out)]) == 0
    lines = non_comment_lines(out)
    assert lines[0].strip() == "event_id,dimension,label,probability"
    assert len(lines) == 1 + 7


@pytest.mark.parametrize("query, message", [
    ({"event_tokens": ["they", "met"], "dimension": "duration"},
     "missing key 'verb_index'"),
    ({"event_tokens": ["they", "met"], "verb_index": 1, "dimension": "bogus"},
     "'bogus' is not a valid TemporalDimension"),
    ({"event_tokens": ["they", "met", "up"], "verb_index": 2.9, "dimension": "duration"},
     "verb_index must be an integer, got 2.9"),
    ({"event_tokens": ["they", "met", "up"], "verb_index": "2", "dimension": "duration"},
     'verb_index must be an integer, got "2"'),
    ({"event_tokens": ["they", "met"], "verb_index": True, "dimension": "duration"},
     "verb_index must be an integer, got true"),
])
def test_predict_query_file_bad_line_exit_4(pipeline, tmp_path, capsys, query, message):
    queries = tmp_path / "q.jsonl"
    good = {"event_tokens": ["they", "met"], "verb_index": 1, "dimension": "duration"}
    queries.write_text(json.dumps(good) + "\n" + json.dumps(query) + "\n")
    assert run(["predict", "--model", str(pipeline["model"]),
                "--vocab", str(pipeline["vocab"]), "--input", str(queries)]) == 4
    assert capsys.readouterr().err.startswith(f"ERROR code=4 {queries}:2: {message}")


@pytest.mark.parametrize("command, what", [("eval", "evaluation instances"),
                                           ("predict", "queries")])
def test_query_file_without_queries_exit_2(pipeline, tmp_path, capsys, command, what):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("# a header, but no query\n\n")
    out = tmp_path / "out.csv"
    # The query file is checked before the model is loaded, so a missing
    # checkpoint does not hide the empty input.
    for model in (pipeline["model"], tmp_path / "nope.ckpt"):
        assert run([command, "--model", str(model), "--vocab", str(pipeline["vocab"]),
                    "--input", str(empty), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"ERROR code=2 no {what} in {empty}\n"
        assert not out.exists()


@pytest.mark.parametrize("command, message", [("build-dataset", "no tuples in {}; nothing to build"),
                                              ("train", "no records in {}")])
def test_file_of_only_its_header_exit_2(pipeline, tmp_path, capsys, command, message):
    # The header of a real file: the dataset's states its vocab_sha256.
    source = pipeline["tuples"] if command == "build-dataset" else pipeline["dataset"]
    empty = tmp_path / "empty.jsonl"
    empty.write_text("".join(line + "\n" for line in header_lines(source)))
    out = tmp_path / "out"
    argv = [command, "--input", str(empty), "--output", str(out)]
    if command == "train":
        argv += ["--vocab", str(pipeline["vocab"])]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"ERROR code=2 {message.format(empty)}\n"
    assert not out.exists()


def test_predict_needs_query_or_flags(pipeline, capsys):
    assert run(["predict", "--model", str(pipeline["model"]),
                "--vocab", str(pipeline["vocab"])]) == 2


@pytest.mark.parametrize("flag, value", [("--event", "they met"), ("--verb-index", "1"),
                                         ("--dimension", "duration")])
def test_predict_input_with_an_event_flag_exit_2(pipeline, tmp_path, capsys, flag, value):
    queries = tmp_path / "q.jsonl"
    queries.write_text(json.dumps({"event_tokens": ["they", "met"], "verb_index": 1,
                                   "dimension": "duration"}) + "\n")
    out = tmp_path / "out.csv"
    assert run(["predict", "--model", str(pipeline["model"]), "--vocab", str(pipeline["vocab"]),
                "--input", str(queries), flag, value, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"ERROR code=2 {flag} is read only without --input\n"
    assert not out.exists()


def test_predict_event_and_input_give_one_distribution(pipeline, tmp_path):
    # The query file pads the shared query next to longer ones; the two
    # paths agree to float32 rounding, and each block sums to 1.
    event = ["the", "manager", "paused", "briefly"]
    queries = tmp_path / "q.jsonl"
    queries.write_text("".join(json.dumps({"event_tokens": tokens, "verb_index": 2,
                                           "dimension": "duration"}) + "\n"
                               for tokens in (event + ["at", "the", "old", "mill"] * 3, event,
                                              event + ["again"])))
    batch_out, one_out = tmp_path / "batch.csv", tmp_path / "one.csv"
    common = ["predict", "--model", str(pipeline["model"]), "--vocab", str(pipeline["vocab"])]
    assert run(common + ["--input", str(queries), "--output", str(batch_out)]) == 0
    assert run(common + ["--event", " ".join(event), "--verb-index", "2",
                         "--dimension", "duration", "--output", str(one_out)]) == 0
    rows = [line.strip().split(",") for line in non_comment_lines(batch_out)[1:]]
    by_event = {}
    for event_id, _, label, prob in rows:
        by_event.setdefault(event_id, []).append((label, float(prob)))
    for block in by_event.values():
        assert sum(p for _, p in block) == pytest.approx(1.0, abs=1e-12)
    one = [line.strip().split(",") for line in non_comment_lines(one_out)[1:]]
    assert [label for label, _ in by_event["1"]] == [label for label, _ in one]
    np.testing.assert_allclose([p for _, p in by_event["1"]], [float(p) for _, p in one],
                               rtol=0, atol=1e-5)


def test_predict_unknown_dimension_exit_2(pipeline, capsys):
    assert run(["predict", "--model", str(pipeline["model"]),
                "--vocab", str(pipeline["vocab"]),
                "--event", "they met", "--verb-index", "1",
                "--dimension", "bogus"]) == 2


# A hierarchy relation needs its second event, which neither --event nor a
# query or instance line carries, so such a query is refused, not answered.
def test_predict_event_hierarchy_exit_2(pipeline, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the checkpoint was read")
    monkeypatch.setattr(cli, "load_checkpoint", fail)
    out = tmp_path / "p.csv"
    assert run(["predict", "--model", str(pipeline["model"]), "--vocab", str(pipeline["vocab"]),
                "--event", "the nurse rested", "--verb-index", "2", "--dimension", "hierarchy",
                "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "ERROR code=2 --dimension hierarchy relates two events, and --event names one\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_hierarchy_query_line_exit_4(pipeline, tmp_path, capsys, command):
    line = {"event_tokens": ["the", "nurse", "rested"], "verb_index": 2, "dimension": "hierarchy"}
    if command == "eval":
        line["gold_label"] = "before"
    path, out = tmp_path / "q.jsonl", tmp_path / "out.csv"
    path.write_text("# a header line\n" + json.dumps(line) + "\n")
    assert run([command, "--input", str(path), "--model", str(pipeline["model"]),
                "--vocab", str(pipeline["vocab"]), "--output", str(out)]) == 4
    assert capsys.readouterr().err == (
        f"ERROR code=4 {path}:2: a hierarchy query relates two events, "
        f"and a query line names one\n")
    assert not out.exists()


@pytest.mark.parametrize("verb_index", ["2", "-1"])
def test_predict_verb_index_outside_the_event_exit_2(pipeline, tmp_path, capsys, verb_index):
    out = tmp_path / "out.csv"
    assert run(["predict", "--model", str(pipeline["model"]), "--vocab", str(pipeline["vocab"]),
                "--event", "they slept", "--verb-index", verb_index,
                "--dimension", "duration", "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"ERROR code=2 --verb-index {verb_index} is outside the 2 tokens of --event\n")
    assert not out.exists()


# ----------------------------------------------------------- input bytes

def _with_latin1_last_line(src, dst):
    """Copy ``src`` to ``dst`` with a Latin-1 0xe9 byte in its last line;
    returns that line's number."""
    lines = src.read_bytes().splitlines(keepends=True)
    lines[-1] = lines[-1].replace(b"e", b"\xe9", 1)
    dst.write_bytes(b"".join(lines))
    return len(lines)


@pytest.mark.parametrize("command, source", [
    ("extract", "corpus"),
    ("build-dataset", "tuples"),
    ("build-dataset --ms", "corpus"),
    ("stats", "tuples"),
    ("train", "dataset"),
    ("train", "vocab"),
    ("eval", "instances"),
    ("predict --input", "instances"),
    ("predict --event", "vocab"),
])
def test_input_that_is_not_utf8_names_file_and_line(pipeline, tmp_path, capsys,
                                                    command, source):
    bad = tmp_path / f"latin1-{source}"
    line_no = _with_latin1_last_line(pipeline[source], bad)
    files = {key: str(bad if key == source else pipeline[key])
             for key in ("corpus", "tuples", "dataset", "vocab", "model", "instances")}
    out = str(tmp_path / "out")
    argv = {
        "extract": ["extract", "--input", files["corpus"], "--output", out],
        "build-dataset": ["build-dataset", "--input", files["tuples"], "--output", out],
        "build-dataset --ms": ["build-dataset", "--input", files["tuples"], "--ms",
                               "--corpus", files["corpus"], "--output", out],
        "stats": ["stats", "--input", files["tuples"], "--output", out],
        "train": ["train", "--input", files["dataset"], "--vocab", files["vocab"],
                  "--output", out],
        "eval": ["eval", "--input", files["instances"], "--model", files["model"],
                 "--vocab", files["vocab"], "--output", out],
        "predict --input": ["predict", "--input", files["instances"], "--model",
                            files["model"], "--vocab", files["vocab"], "--output", out],
        "predict --event": ["predict", "--event", "they met", "--verb-index", "1",
                            "--dimension", "duration", "--model", files["model"],
                            "--vocab", files["vocab"], "--output", out],
    }[command]
    capsys.readouterr()
    assert run(argv) == 4
    assert capsys.readouterr().err.startswith(
        f"ERROR code=4 {bad}:{line_no}: not UTF-8 text: byte 0xe9")


@pytest.mark.parametrize("value", ["[1, 2]", "5", '"x"', "null"],
                         ids=["list", "number", "string", "null"])
@pytest.mark.parametrize("command, source", [
    ("build-dataset", "tuples"),
    ("stats", "tuples"),
    ("train", "dataset"),
    ("eval", "instances"),
    ("predict --input", "instances"),
])
def test_json_line_that_is_not_an_object_exit_4(pipeline, tmp_path, capsys,
                                                command, source, value):
    lines = pipeline[source].read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[row] = value + "\n"
    bad = tmp_path / f"bad-{source}"
    bad.write_text("".join(lines))
    out = str(tmp_path / "out")
    model = ["--model", str(pipeline["model"]), "--vocab", str(pipeline["vocab"])]
    argv = {
        "build-dataset": ["build-dataset", "--input", str(bad), "--output", out],
        "stats": ["stats", "--input", str(bad), "--output", out],
        "train": ["train", "--input", str(bad), "--vocab", str(pipeline["vocab"]),
                  "--output", out],
        "eval": ["eval", "--input", str(bad), *model, "--output", out],
        "predict --input": ["predict", "--input", str(bad), *model, "--output", out],
    }[command]
    assert run(argv) == 4
    assert capsys.readouterr().err == f"ERROR code=4 {bad}:{row + 1}: expected a JSON object\n"


def _write_legacy_binary_dataset(path, records):
    """The length-prefixed binary dataset encoding of earlier releases."""
    dims = list(TemporalDimension)
    blobs = [b"TMDS", struct.pack("<HI", 1, 0)]
    for rec in records:
        payload = struct.pack("<HdHH", dims.index(rec.dimension), rec.weight,
                              rec.val_position, len(rec.input_ids))
        payload += struct.pack(f"<{len(rec.input_ids)}I", *rec.input_ids)
        payload += struct.pack("<H", len(rec.targets))
        for t in rec.targets:
            # position, token_id, then an empty stored-row flag and length
            payload += struct.pack("<HIBH", t.position, t.token_id, 0, 0)
        blobs += [struct.pack("<I", len(payload)), payload]
    path.write_bytes(b"".join(blobs))


def test_dataset_states_its_vocabulary_digest(pipeline):
    header = header_lines(pipeline["dataset"])
    vocab = Vocabulary.from_tsv_lines(text_lines(str(pipeline["vocab"])))
    assert header[-1] == f"# vocab_sha256={vocab.sha256()}"
    rows = [line for line in pipeline["vocab"].read_bytes().splitlines(keepends=True)
            if not line.startswith(b"#")]
    assert vocab.sha256() == hashlib.sha256(b"".join(rows)).hexdigest()


def test_train_with_another_vocabulary_exit_4(pipeline, tmp_path, capsys):
    # Same size, same layout, two word ids swapped: every record still reads.
    rows = pipeline["vocab"].read_text().splitlines(keepends=True)
    the, a = (next(i for i, row in enumerate(rows) if row.startswith(f"{word}\t"))
              for word in ("the", "a"))
    rows[the], rows[a] = rows[the].replace("the", "a", 1), rows[a].replace("a", "the", 1)
    vocab = tmp_path / "swapped.tsv"
    vocab.write_text("".join(rows))
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--input", str(pipeline["dataset"]), "--vocab", str(vocab),
                "--output", str(ckpt), "--epochs", "1"]) == 4
    assert capsys.readouterr().err == (
        f"ERROR code=4 {vocab} is not the vocabulary {pipeline['dataset']} was built with: "
        f"the sha256 of its rows is not the dataset's vocab_sha256\n")
    assert not ckpt.exists()


def test_train_dataset_without_vocabulary_digest_exit_4(pipeline, tmp_path, capsys):
    lines = pipeline["dataset"].read_text().splitlines(keepends=True)
    dataset = tmp_path / "ds.jsonl"
    dataset.write_text("".join(line for line in lines if not line.startswith("# vocab_sha256=")))
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--input", str(dataset), "--vocab", str(pipeline["vocab"]),
                "--output", str(ckpt), "--epochs", "1"]) == 4
    assert capsys.readouterr().err == (
        f"ERROR code=4 {dataset} states no vocab_sha256 header line; "
        f"rebuild the dataset with build-dataset\n")
    assert not ckpt.exists()


def test_train_on_legacy_binary_dataset_exit_4(pipeline, tmp_path, capsys):
    dataset = tmp_path / "ds.bin"
    _write_legacy_binary_dataset(dataset, read_dataset(pipeline["dataset"]))
    assert run(["train", "--input", str(dataset), "--vocab", str(pipeline["vocab"]),
                "--output", str(tmp_path / "m.ckpt")]) == 4
    assert capsys.readouterr().err.startswith(f"ERROR code=4 {dataset}:1: not UTF-8 text")
    assert not (tmp_path / "m.ckpt").exists()


def test_vocab_row_out_of_order_names_file_and_line(pipeline, tmp_path, capsys):
    lines = pipeline["vocab"].read_text().splitlines(keepends=True)
    row = lines.index(next(line for line in lines if line.endswith("\t4\n")))
    del lines[row]
    vocab = tmp_path / "v.tsv"
    vocab.write_text("".join(lines))
    assert run(["predict", "--model", str(pipeline["model"]), "--vocab", str(vocab),
                "--event", "they met", "--verb-index", "1",
                "--dimension", "duration"]) == 4
    assert capsys.readouterr().err.startswith(
        f"ERROR code=4 {vocab}:{row + 1}: vocabulary ids must be dense, expected 4, got '5'")


def test_predict_on_version_1_checkpoint_says_to_retrain_exit_4(pipeline, tmp_path, capsys):
    # Version 1 stored a shape manifest next to the config line; nothing reads it.
    blob = bytearray(pipeline["model"].read_bytes())
    blob[4:6] = struct.pack("<H", 1)
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(bytes(blob))
    assert run(["predict", "--model", str(ckpt), "--vocab", str(pipeline["vocab"]),
                "--event", "they met", "--verb-index", "1",
                "--dimension", "duration"]) == 4
    assert capsys.readouterr().err == (
        f"ERROR code=4 {ckpt}: checkpoint version 1 is not the supported version 2; "
        f"retrain the model with train\n")


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_max_len_below_template_exit_4(pipeline, tmp_path, capsys, command):
    # No train run writes such a file: TrainConfig refuses max_len 5.
    blob = pipeline["model"].read_bytes()
    assert blob.count(b" max_len=128 ") == 1
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(blob.replace(b" max_len=128 ", b" max_len=5   "))
    model = ["--model", str(ckpt), "--vocab", str(pipeline["vocab"])]
    if command == "eval":
        argv = ["eval", "--input", str(pipeline["instances"]), *model]
    else:
        argv = ["predict", *model, "--event", "the man ran", "--verb-index", "2",
                "--dimension", "duration"]
    assert run(argv) == 4
    assert capsys.readouterr().err == (
        f"ERROR code=4 {ckpt}: bad checkpoint header: --max-len must be at least 6 to hold "
        f"[Vrb], one event word and [SEP] [Vrb] [Dim] [Val], got 5\n")


@pytest.mark.parametrize("token, command", [
    ("[Dim:duration]", "predict"),
    ("[Val:duration:second]", "train"),
    ("[SEP]", "predict"),
])
def test_vocab_layout_is_checked_exit_4(pipeline, tmp_path, capsys, token, command):
    rows = pipeline["vocab"].read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(rows) if line.startswith(f"{token}\t"))
    rows[row] = rows[row].replace(token, "[renamed]")
    vocab = tmp_path / "v.tsv"
    vocab.write_text("".join(rows))
    argv = {
        "predict": ["predict", "--model", str(pipeline["model"]), "--event", "they met",
                    "--verb-index", "1", "--dimension", "duration"],
        "train": ["train", "--input", str(pipeline["dataset"]),
                  "--output", str(tmp_path / "m.ckpt"), "--epochs", "1"],
    }[command]
    assert run([*argv, "--vocab", str(vocab)]) == 4
    token_id = rows[row].rpartition("\t")[2].strip()
    assert capsys.readouterr().err == (
        f"ERROR code=4 {vocab}: id {token_id} must be {token}, got [renamed]\n")


# ----------------------------------------------------------- small commands

def test_grad_check_command(capsys):
    assert run(["grad-check", "--coords", "5"]) == 0
    out = capsys.readouterr().out
    assert "worst relative error" in out


def test_grad_check_failure_exit_1(monkeypatch, capsys):
    worst = GradCheckResult(key="W_out", index=(2, 3), analytic=1.0, numeric=0.5, rel_error=1.0)
    monkeypatch.setattr(cli, "gradient_check", lambda **kwargs: [worst])
    assert run(["grad-check", "--coords", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "checked 1 coordinates; worst relative error 1.000e+00 at W_out[2, 3]\n"
    assert captured.err == "ERROR code=1 gradient check failed at W_out\n"


@pytest.mark.parametrize("coords", ["0", "-3"])
def test_grad_check_coords_not_positive_exit_2(capsys, coords):
    assert run(["grad-check", "--coords", coords]) == 2
    assert capsys.readouterr().err == f"ERROR code=2 --coords must be positive, got {coords}\n"


def test_module_entry_point(fresh_python, tmp_path):
    empty = tmp_path / "t.jsonl"
    empty.write_text("")
    proc = fresh_python("-m", "tempomine.cli", "stats", "--input", str(empty))
    assert proc.returncode == 0
    assert "dimension,label,count,weight" in proc.stdout


def test_import_loads_neither_numpy_random_nor_logging(fresh_python):
    # eval and predict draw no random numbers and log nothing.
    proc = fresh_python("-c", (
        "import sys, tempomine, tempomine.cli\n"
        "print(sorted(m for m in ('numpy.random', 'logging') if m in sys.modules))\n"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_train_eval_predict_never_import_scipy(pipeline, fresh_python, tmp_path):
    # The model's forward and backward are numpy alone; scipy would be
    # about half of a fresh predict --event.
    model, vocab = str(tmp_path / "m.ckpt"), str(pipeline["vocab"])
    commands = [
        ["train", "--input", str(pipeline["dataset"]), "--vocab", vocab, "--output", model,
         "--d-model", "16", "--n-layers", "1", "--n-heads", "2", "--ff-dim", "32",
         "--epochs", "1", "--batch-size", "16"],
        ["eval", "--input", str(pipeline["instances"]), "--model", model, "--vocab", vocab,
         "--output", str(tmp_path / "eval.csv")],
        ["predict", "--event", "they met", "--verb-index", "1", "--dimension", "duration",
         "--model", model, "--vocab", vocab, "--output", str(tmp_path / "predict.csv")],
    ]
    proc = fresh_python("-c", (
        "import sys, tempomine.cli\n"
        f"for argv in {commands!r}:\n"
        "    assert tempomine.cli.main(argv) == 0, argv[0]\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"))
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in non_comment_lines(tmp_path / "predict.csv")][1:]
    assert len(rows) == len(label_space(TemporalDimension.DURATION).labels)
    assert sum(float(p) for _, p in rows) == pytest.approx(1.0, abs=1e-9)
    assert len(non_comment_lines(tmp_path / "eval.csv")) > 1
