"""Tuple to training record, step by step.

Shows the sequence template, the reserved token block, and what the
masking pass selects and targets for one record.
"""

import numpy as np

from tempomine import (
    MaskingConfig,
    TemporalDimension,
    TemporalTuple,
    TrainConfig,
    apply_masking,
    build_sequence,
    build_vocabulary,
    stream_rng,
    val_targets,
)


def main() -> None:
    tup = TemporalTuple(
        event_tokens=("the", "committee", "met", "in", "private"),
        verb_index=2,
        dimension=TemporalDimension.FREQUENCY,
        value="month",
    )
    vocab = build_vocabulary([tup.event_tokens, ("the", "board", "met")])
    print(f"vocabulary: {len(vocab)} ids "
          f"(4 structural + {vocab.word_id_end - vocab.word_id_start} words "
          f"+ {len(vocab) - vocab.word_id_end} reserved)")

    built = build_sequence(tup, vocab, left_context=("as", "reported"))
    names = vocab.id_to_token
    print()
    print("template:", " ".join(names[i] for i in built.ids))
    print("event slots eligible for masking:", built.event_positions)
    print("reserved slot positions: verb marker via insertion,",
          f"dim={built.dim_position}, val={built.val_position}")

    # p_mask=1 guarantees the [Val] slot is selected for this walkthrough
    cfg = MaskingConfig(p_mask=1.0, p_dim=0.0, p_event=0.0)
    record = apply_masking(built, cfg, vocab, stream_rng(7, "masking", 0))
    print()
    print("after masking:", " ".join(names[i] for i in record.input_ids))
    # The record stores only the label's id; train looks the [Val] slot's
    # target up in one table per run, indexed by [Val] id (the last ids).
    train_cfg = TrainConfig()
    table = val_targets(train_cfg.targets, train_cfg.sigma_log, train_cfg.sigma_circular)
    val_start = len(vocab) - len(table)
    for target in record.targets:
        print(f"slot {target.position}: recover {names[target.token_id]}")
        if target.position == record.val_position:
            dist = table[target.token_id - val_start]
            print(f"  soft target argmax = {names[val_start + int(np.argmax(dist))]},"
                  f" sum = {dist.sum():.6f}")


if __name__ == "__main__":
    main()
