"""The traced benchmark wraps package functions by module attribute name
(``bench/spans.py``); a rename or an inlined call would silently drop
its spans, so these tests pin the names it relies on."""

import importlib
import importlib.util
import os

import pytest

from tempomine import cli

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(spans):
    assert spans._TARGETS
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, *_ in spans._TARGETS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


def test_extract_and_build_dataset_call_through_module_names(spans, tmp_path,
                                                             fixture_corpus_path, capsys):
    tuples = tmp_path / "t.jsonl"
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert cli.main(["extract", "--input", fixture_corpus_path,
                         "--output", str(tuples)]) == 0
        assert cli.main(["build-dataset", "--input", str(tuples), "--ms",
                         "--corpus", fixture_corpus_path,
                         "--output", str(tmp_path / "ds.jsonl")]) == 0
    calls = {name: agg[0] for name, agg in tracer.totals.items()}
    assert calls["extraction.extract_sentence"] == 33
    for name in ("sequences.build_sequence", "seeding.stream_rng",
                 "sequences.apply_masking"):
        assert calls[name] == 33
