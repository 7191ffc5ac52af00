import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
# The damage matrix asserts in its own module; show what its asserts compared.
pytest.register_assert_rewrite("damage")

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(scope="session")
def fixture_corpus_path() -> str:
    return os.path.join(FIXTURES, "fixture_corpus.jsonl")


@pytest.fixture(scope="session")
def golden_tuples_path() -> str:
    return os.path.join(FIXTURES, "golden_tuples.jsonl")


@pytest.fixture(scope="session")
def fresh_python():
    """Runs ``python *args`` in a new process. The child finds the package
    where this process imported it from, whether or not the caller set
    PYTHONPATH."""
    import tempomine

    src = os.path.dirname(os.path.dirname(os.path.abspath(tempomine.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )

    return run


@pytest.fixture(scope="session")
def tiny_trained(tmp_path_factory):
    """A small trained model shared by evaluation and CLI tests.

    Built once per session: 400 planted sentences, 3 epochs, 32-dim
    encoder. Deterministic, takes about a second.
    """
    import tempomine as tm
    from tempomine.sequences import MaskingConfig, apply_masking, build_sequence, build_vocabulary
    from tempomine.targets import label_count_tables, weight_table

    seed = 13
    sentences = tm.generate_corpus(400, seed=seed)
    train_s, test_s = tm.split_sentences(sentences, seed=seed)
    tuples = [t for s in train_s for t in tm.extract_sentence(s)]
    vocab = build_vocabulary([t.event_tokens for t in tuples])
    tables = label_count_tables(tuples)
    weights = {d: weight_table(c) for d, c in tables.items()}
    cfg = MaskingConfig(p_mask=0.8)
    records = []
    for i, t in enumerate(tuples):
        built = build_sequence(t, vocab)
        rng = tm.stream_rng(seed, "masking", i)
        records.append(apply_masking(built, cfg, vocab, rng, weights[t.dimension][t.value]))
    train_cfg = tm.TrainConfig(d_model=32, n_layers=2, n_heads=2, ff_dim=64,
                               epochs=3, seed=seed)
    params, log = tm.train(records, train_cfg, vocab)
    return {
        "params": params,
        "cfg": train_cfg,
        "vocab": vocab,
        "records": records,
        "test_sentences": test_s,
        "log": log,
    }


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """A small CLI pipeline: corpus -> tuples -> dataset -> model, and
    evaluation instances, which are query lines with a gold label."""
    from tempomine.cli import main as run
    from tempomine.evaluation import eval_instance_to_json_dict
    from tempomine.srl_ingest import sentence_to_json_dict
    from tempomine.synthetic import generate_corpus, planted_eval_instances

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
