"""The traced benchmark wraps package functions by module attribute name
(``bench/spans.py``); a rename or an inlined call would silently drop
its spans, so these tests pin the names it relies on."""

import importlib
import importlib.util
import json
import os

import pytest

from tempomine import cli
from tempomine.evaluation import eval_instance_to_json_dict
from tempomine.model import save_checkpoint
from tempomine.synthetic import planted_eval_instances

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


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_query_commands_score_in_one_batched_call(spans, tiny_trained, tmp_path, command):
    # The traced query metrics count one predict_value_distribution span
    # per eval or predict --input call, and one forward per chunk of 32
    # queries, whatever batch size the checkpoint states it trained with.
    model, vocab = tmp_path / "m.ckpt", tmp_path / "vocab.tsv"
    save_checkpoint(str(model), tiny_trained["params"], tiny_trained["cfg"], tiny_trained["vocab"])
    vocab.write_text("".join(line + "\n" for line in tiny_trained["vocab"].to_tsv_lines()))
    instances = planted_eval_instances(tiny_trained["test_sentences"])
    n = 69  # two chunks of 32 and one of 5
    queries = tmp_path / "q.jsonl"
    lines = [json.dumps(eval_instance_to_json_dict(instances[i % len(instances)])) for i in range(n)]
    queries.write_text("\n".join(lines) + "\n")
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert cli.main([command, "--input", str(queries), "--model", str(model),
                         "--vocab", str(vocab), "--output", str(tmp_path / "out.csv")]) == 0
    calls = {name: agg[0] for name, agg in tracer.totals.items()}
    assert calls["model.predict_value_distribution"] == 1
    assert calls["model.forward"] == 3
