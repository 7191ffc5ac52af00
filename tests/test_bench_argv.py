"""Every tempomine command line the benchmark issues must parse, so that
dropping or renaming a flag it passes fails here and not in a benchmark
run. Nothing is run: ``bench/inputs.py``'s ``_cli`` calls are recorded and
``bench/run.py``'s schedule is only built."""

import dataclasses
import importlib.util
import os
import sys

import pytest

from tempomine import cli

RUN_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "run.py")


@pytest.fixture(scope="module")
def bench_run():
    # run.py puts bench/ and src/ in front of sys.path when it loads.
    saved = sys.path[:]
    try:
        spec = importlib.util.spec_from_file_location("bench_run", RUN_PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize("workload", ["mine", "train", "query"])
def test_benchmark_command_lines_parse(bench_run, monkeypatch, tmp_path, workload):
    inputs = sys.modules["inputs"]  # bench/inputs.py, as run.py imported it
    calls = []
    monkeypatch.setattr(inputs, "_cli", lambda *argv: calls.append(list(argv)))
    # Small inputs: only the command lines matter, not the data.
    spec = dataclasses.replace(bench_run.WORKLOADS[workload], mine_sentences=4,
                               train_sentences=20, extra_gold=0, queries=6)
    expected = inputs.write_inputs(spec, 1, str(tmp_path))
    assert [argv[0] for argv in calls] == ["extract", "build-dataset"]

    fresh = [sys.executable, "-c", bench_run.CLI_ENTRY]
    for name, argv in bench_run.Pass(tmp_path, spec, 1, expected).schedule():
        if name == "import":
            continue
        if argv[:3] == fresh:
            argv = argv[3:]
        calls.append(argv)
    assert {argv[0] for argv in calls} == {"extract", "build-dataset", "train", "eval", "predict"}
    parser = cli.build_parser()
    for argv in calls:
        parser.parse_args(argv)
