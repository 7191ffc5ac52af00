"""Workload table and seeded input files for the benchmark.

Every workload runs the same closed loop over the user pipeline (extract,
build-dataset, train, eval, predict --input, fresh-process predict
--event); the table below sizes each stage so that one stage dominates
the workload. Inputs come from ``generate_corpus``:

* the mining corpus, drawn from the workload seed, with neighbour-sentence
  context and one distractor ARGM-TMP frame per sentence that the rule
  cascade must reject;
* the query file, drawn from the workload seed;
* the training set and the gold instances, drawn from the fixed
  acceptance-test corpus seed, so that ``heldout_mean_distance`` is one
  deterministic number per workload (a 2-epoch model's argmax distance
  swings by orders of magnitude between corpus seeds).

Run as a child process, so that building inputs does not count toward
the workload process's peak RSS; ``--spec`` holds the Workload fields:

    python3 bench/inputs.py --spec '{"mine_sentences": 3000, ...}' --seed 1 --out DIR
"""

import argparse
import contextlib
import io
import json
import os
import sys
from dataclasses import asdict, dataclass

# Acceptance test 8's corpus and pipeline seed.
TRAIN_CORPUS_SEED = 11


@dataclass(frozen=True)
class Workload:
    mine_sentences: int      # extract + build-dataset --ms input
    mine_repeat: int         # rounds with extract + build-dataset, per pass
    train_sentences: int     # fixed planted corpus; its train split is trained on
    epochs: int
    learning_rate: float
    extra_gold: int          # unseen planted sentences added to the held-out split
    queries: int             # predict --input rows
    query_repeat: int        # rounds with eval + predict --input, per pass
    once: int                # rounds with a fresh-process predict --event, per pass
    max_distance: float      # output check on heldout_mean_distance


# Model shape of acceptance test 8 (d=64, L=2, H=4, F=128, B=32).
MODEL_FLAGS = ("--d-model", "64", "--n-layers", "2", "--n-heads", "4",
               "--ff-dim", "128", "--batch-size", "32")

# Why each workload exists is in BENCHMARK.json and bench/README.md. Every
# stage gets at least about 1.5 s of timed calls per 28-second run, so that
# one slow second of the machine cannot swing a short stage's rate.
WORKLOADS: dict[str, Workload] = {
    "mine": Workload(
        mine_sentences=3_000, mine_repeat=2, train_sentences=600, epochs=1,
        learning_rate=2e-3, extra_gold=240, queries=300, query_repeat=2, once=1,
        max_distance=1.55,   # measured 1.471
    ),
    "train": Workload(
        mine_sentences=1_500, mine_repeat=2, train_sentences=6_000, epochs=1,
        learning_rate=2e-3, extra_gold=0, queries=300, query_repeat=2, once=2,
        max_distance=1.0,    # measured 0.492
    ),
    "query": Workload(
        mine_sentences=2_000, mine_repeat=1, train_sentences=600, epochs=1,
        learning_rate=2e-3, extra_gold=100, queries=150, query_repeat=5, once=1,
        max_distance=1.5,    # measured 1.430
    ),
}

_DISTRACTOR_VERBS = ("asked", "hoped", "waited", "begged")
# "second" in its ordinal sense: every extractor in the cascade rejects these.
_DISTRACTOR_ARGS = (
    ("for", "a", "second", "chance"),
    ("for", "a", "second", "opinion"),
    ("for", "a", "second", "look"),
)
SENTENCES_PER_DOC = 10


def mining_corpus(n: int, seed: int):
    """Planted sentences grouped into documents, each with neighbour context
    and a second frame whose ARGM-TMP argument must be rejected.

    Every sentence yields exactly one tuple from two temporal arguments.
    """
    from tempomine import SrlFrame, SrlSentence, generate_corpus, stream_rng

    base = generate_corpus(n, seed=seed)
    out = []
    for i, s in enumerate(base):
        rng = stream_rng(seed, "bench-distractor", i)
        verb = _DISTRACTOR_VERBS[int(rng.integers(len(_DISTRACTOR_VERBS)))]
        arg = _DISTRACTOR_ARGS[int(rng.integers(len(_DISTRACTOR_ARGS)))]
        tokens = s.tokens + ("and", verb) + arg
        distractor = SrlFrame(
            verb_index=len(s.tokens) + 1,
            arguments=(("ARGM-TMP", (len(s.tokens) + 2, len(tokens))),),
        )
        doc, pos = divmod(i, SENTENCES_PER_DOC)
        first = pos == 0
        last = pos == SENTENCES_PER_DOC - 1 or i == n - 1
        out.append(SrlSentence(
            doc_id=f"doc-{doc:06d}",
            sent_index=pos,
            tokens=tokens,
            frames=s.frames + (distractor,),
            left_context=None if first else base[i - 1].tokens,
            right_context=None if last else base[i + 1].tokens,
        ))
    return out


def _write_jsonl(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")


def _cli(*argv: str) -> None:
    from tempomine.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"tempomine {argv[0]} exited {code} while preparing inputs")


def write_inputs(spec: Workload, seed: int, out: str) -> dict:
    """Write every input file of one workload into ``out``; return the
    expected counts the output checks compare against."""
    from tempomine import (
        generate_corpus,
        planted_eval_instances,
        sentence_to_json_dict,
        split_sentences,
    )
    from tempomine.evaluation import eval_instance_to_json_dict

    os.makedirs(out, exist_ok=True)
    mine = mining_corpus(spec.mine_sentences, seed)
    _write_jsonl(os.path.join(out, "corpus.jsonl"), (sentence_to_json_dict(s) for s in mine))

    planted = generate_corpus(spec.train_sentences + spec.extra_gold, seed=TRAIN_CORPUS_SEED)
    train_s, test_s = split_sentences(planted[: spec.train_sentences], seed=TRAIN_CORPUS_SEED)
    test_s += planted[spec.train_sentences:]
    gold = planted_eval_instances(test_s)
    _write_jsonl(os.path.join(out, "gold.jsonl"), (eval_instance_to_json_dict(g) for g in gold))

    train_corpus = os.path.join(out, "train_corpus.jsonl")
    _write_jsonl(train_corpus, (sentence_to_json_dict(s) for s in train_s))
    tuples = os.path.join(out, "train_tuples.jsonl")
    seed_flag = ("--seed", str(TRAIN_CORPUS_SEED))
    _cli("extract", "--input", train_corpus, "--output", tuples, *seed_flag)
    _cli("build-dataset", "--input", tuples, "--output", os.path.join(out, "train.jsonl"),
         *seed_flag)

    queries = planted_eval_instances(generate_corpus(spec.queries, seed=seed))
    _write_jsonl(os.path.join(out, "queries.jsonl"), (
        {"event_tokens": list(q.event_tokens), "verb_index": q.verb_index,
         "dimension": q.dimension.value}
        for q in queries
    ))
    gold_by_dim: dict[str, int] = {}
    for g in gold:
        gold_by_dim[g.dimension.value] = gold_by_dim.get(g.dimension.value, 0) + 1
    expected = {
        "mine_sentences": len(mine),
        "tuples": len(mine),
        "records": len(mine),
        "gold": len(gold),
        "gold_by_dim": gold_by_dim,
        "queries": [[list(q.event_tokens), q.verb_index, q.dimension.value] for q in queries],
        "spec": asdict(spec),
        "seed": seed,
    }
    with open(os.path.join(out, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, sort_keys=True)
    return expected


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--spec", required=True, help="JSON object of Workload fields")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    write_inputs(Workload(**json.loads(args.spec)), args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
