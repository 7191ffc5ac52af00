"""Train the toy encoder on a planted-rule corpus and query it.

Runs in well under a minute on a laptop CPU. The corpus generator plants
a fixed value per verb, so a correctly trained model should recover each
verb's value with its probability mass concentrated around it.
"""

import numpy as np

from tempomine import (
    MaskingConfig,
    TrainConfig,
    apply_masking,
    build_sequence,
    build_vocabulary,
    extract_sentence,
    generate_corpus,
    label_count_tables,
    label_space,
    predict_value_distribution,
    split_sentences,
    stream_rng,
    train,
    weight_table,
)

SEED = 7


def main() -> None:
    sentences = generate_corpus(1500, seed=SEED)
    train_sents, _ = split_sentences(sentences, seed=SEED)
    tuples = [t for s in train_sents for t in extract_sentence(s)]
    print(f"{len(sentences)} sentences -> {len(tuples)} training tuples")

    vocab = build_vocabulary([t.event_tokens for t in tuples])
    weights = {d: weight_table(c) for d, c in label_count_tables(tuples).items()}
    mask_cfg = MaskingConfig()
    records = []
    for i, t in enumerate(tuples):
        rng = stream_rng(SEED, "masking", i)
        records.append(apply_masking(
            build_sequence(t, vocab), mask_cfg, vocab, rng,
            weights[t.dimension][t.value]))

    cfg = TrainConfig(epochs=12, seed=SEED, learning_rate=5e-4)
    params, log = train(records, cfg, vocab)
    for row in log[:3] + log[-1:]:
        print(f"  epoch {row.epoch}: {row.split} loss {row.loss:.4f}")

    # query a planted event: "rehearsed" always carries duration=hour
    probe = next(t for t in tuples if "rehearsed" in t.event_tokens)
    (dist,) = predict_value_distribution(
        params, cfg, vocab, [(probe.event_tokens, probe.verb_index, probe.dimension)])
    space = label_space(probe.dimension)
    print()
    print(f"p({probe.dimension.value} | {' '.join(probe.event_tokens)}):")
    for label, p in zip(space.labels, dist):
        print(f"  {label:<8} {p:6.3f} {'#' * round(float(p) * 60)}")
    print("argmax:", space.labels[int(np.argmax(dist))])


if __name__ == "__main__":
    main()
