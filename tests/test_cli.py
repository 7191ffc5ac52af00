import argparse
import dataclasses
import hashlib
import json

import numpy as np
import pytest

import damage
from tempomine import cli
from tempomine.label_space import TemporalDimension, label_space
from tempomine.model import GradCheckResult, TrainConfig, load_checkpoint
from tempomine.seeding import stream_rng
from tempomine.sequences import MaskingConfig, Vocabulary, read_records_jsonl
from tempomine.srl_ingest import text_lines


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
                "--sigma-circular", "1.0", "--targets", "hard", "--batch-size", "16"]) == 0
    header = header_lines(tmp_path / "m.ckpt.loss.csv")
    assert "# sigma_log=2.0" in header and "# sigma_circular=1.0" in header
    assert b"\n# sigma_circular=1.0\n# sigma_log=2.0\n" in model.read_bytes()
    # The checkpoint states the whole config it was trained with.
    assert load_checkpoint(str(model))[1] == TrainConfig(
        d_model=16, n_layers=1, n_heads=2, ff_dim=32, epochs=1, sigma_log=2.0,
        sigma_circular=1.0, targets="hard", batch_size=16)


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


def test_build_dataset_corpus_without_ms_exit_2(pipeline, tmp_path, capsys):
    out = tmp_path / "ds.jsonl"
    assert run(["build-dataset", "--input", str(pipeline["tuples"]), "--output", str(out),
                "--corpus", str(tmp_path / "nonexistent" / "corpus.jsonl")]) == 2
    assert capsys.readouterr().err == "ERROR code=2 --corpus is read only with --ms\n"
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
    # The flag and the files name the same dimensions: one parser reads both.
    assert capsys.readouterr().err == f'ERROR code=2 --{damage.NOT_A_DIMENSION}"bogus"\n'


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


@pytest.mark.parametrize("verb_index", ["2", "-1"])
def test_predict_verb_index_outside_the_event_exit_2(pipeline, tmp_path, capsys, verb_index):
    out = tmp_path / "out.csv"
    assert run(["predict", "--model", str(pipeline["model"]), "--vocab", str(pipeline["vocab"]),
                "--event", "they slept", "--verb-index", verb_index,
                "--dimension", "duration", "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"ERROR code=2 --verb-index {verb_index} is outside the 2 tokens of --event\n")
    assert not out.exists()


def test_dataset_states_its_vocabulary_digest(pipeline):
    header = header_lines(pipeline["dataset"])
    vocab = Vocabulary.from_tsv_lines(text_lines(str(pipeline["vocab"])))
    assert header[-1] == f"# vocab_sha256={vocab.sha256()}"
    rows = [line for line in pipeline["vocab"].read_bytes().splitlines(keepends=True)
            if not line.startswith(b"#")]
    assert vocab.sha256() == hashlib.sha256(b"".join(rows)).hexdigest()


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


# ----------------------------------------------------------- damage matrix

@pytest.mark.parametrize("check", list(damage.MATRIX.values()), ids=list(damage.MATRIX))
def test_damage_matrix(pipeline, tmp_path, capsys, check):
    damage.check(pipeline, tmp_path, capsys, *check)


def test_damage_matrix_has_one_id_per_check():
    assert len(damage.MATRIX) == len(set(damage.CHECKS)) == len(damage.CHECKS) == 425
