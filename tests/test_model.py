import math

import numpy as np
import pytest

from tempomine.extraction import TemporalTuple
from tempomine.label_space import TemporalDimension, label_space
from tempomine.model import (
    AdamState,
    Batch,
    DivergenceError,
    TrainConfig,
    adam_step,
    assemble_batch,
    forward,
    gradient_check,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    predict_value_distribution,
    save_checkpoint,
    soft_ce_loss,
    train,
)
from tempomine.seeding import stream_rng
from tempomine.sequences import (
    MASK_ID,
    MaskingConfig,
    apply_masking,
    build_sequence,
    build_vocabulary,
)

SMALL = TrainConfig(d_model=16, n_layers=2, n_heads=2, ff_dim=32,
                    max_len=16, batch_size=4, epochs=1, seed=0)


def small_vocab():
    return build_vocabulary([("alpha", "beta", "gamma", "delta", "epsilon")])


# ---------------------------------------------------------------- config

def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(d_model=10, n_heads=4)  # not divisible
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_init_params_shapes_and_determinism():
    v = small_vocab()
    p1 = init_params(SMALL, len(v))
    p2 = init_params(SMALL, len(v))
    assert sorted(p1) == sorted(p2)
    for k in p1:
        assert np.array_equal(p1[k], p2[k])
    assert p1["tok_emb"].shape == (len(v), SMALL.d_model)
    assert p1["pos_emb"].shape == (SMALL.max_len, SMALL.d_model)
    assert p1["out_bias"].shape == (len(v),)
    assert "layer0.Wq" in p1 and "layer1.ln2_b" in p1
    other = init_params(TrainConfig(d_model=16, n_layers=2, n_heads=2,
                                    ff_dim=32, max_len=16, seed=1), len(v))
    assert not np.array_equal(p1["tok_emb"], other["tok_emb"])


# ---------------------------------------------------------------- forward

def test_forward_shape_and_determinism():
    v = small_vocab()
    params = init_params(SMALL, len(v))
    ids = np.array([[4, 5, 6, 3, 1], [4, 4, 0, 0, 0]], dtype=np.int64)
    a = forward(params, ids, SMALL)
    b = forward(params, ids, SMALL)
    assert a.shape == (2, 5, len(v))
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))


def test_forward_padding_does_not_leak():
    # Logits at real positions must be identical whether or not pad
    # columns trail the sequence: attention gives pads -1e9 key bias.
    v = small_vocab()
    params = init_params(SMALL, len(v))
    short = np.array([[4, 5, 6]], dtype=np.int64)
    padded = np.array([[4, 5, 6, 0, 0, 0]], dtype=np.int64)
    a = forward(params, short, SMALL)
    b = forward(params, padded, SMALL)
    assert np.allclose(a[0, :3], b[0, :3], atol=1e-10)


def test_forward_position_sensitivity():
    v = small_vocab()
    params = init_params(SMALL, len(v))
    ids1 = np.array([[4, 5]], dtype=np.int64)
    ids2 = np.array([[5, 4]], dtype=np.int64)
    a = forward(params, ids1, SMALL)
    b = forward(params, ids2, SMALL)
    assert not np.allclose(a[0, 0], b[0, 1])


# ---------------------------------------------------------------- loss

def test_soft_ce_matches_naive_oracle():
    rng = np.random.default_rng(0)
    S, V = 5, 11
    logits = rng.normal(size=(S, V))
    raw = rng.random((S, V))
    targets = raw / raw.sum(axis=1, keepdims=True)
    weights = 0.5 + rng.random(S)

    # independent oracle with explicit loops and log-sum-exp
    total = 0.0
    for s in range(S):
        z = max(logits[s])
        logz = z + math.log(sum(math.exp(x - z) for x in logits[s]))
        ce = -sum(targets[s, j] * (logits[s, j] - logz) for j in range(V))
        total += weights[s] * ce
    want = total / weights.sum()

    got = soft_ce_loss(logits, targets, weights)
    assert got == pytest.approx(want, abs=1e-10)


def test_soft_ce_uniform_logits_is_log_v():
    V = 88
    logits = np.zeros((3, V))
    targets = np.full((3, V), 1.0 / V)
    got = soft_ce_loss(logits, targets, np.ones(3))
    assert got == pytest.approx(math.log(V), abs=1e-12)


def test_soft_ce_lower_bound_is_target_entropy():
    # CE(y, p) >= H(y), met only at p = y.
    y = np.array([[0.7, 0.2, 0.1]])
    entropy = -float(np.sum(y * np.log(y)))
    best = soft_ce_loss(np.log(y), y, np.ones(1))
    assert best == pytest.approx(entropy, abs=1e-12)
    worse = soft_ce_loss(np.array([[0.0, 0.0, 3.0]]), y, np.ones(1))
    assert worse > entropy


def test_soft_ce_validates_targets_and_weights():
    logits = np.zeros((1, 4))
    good = np.full((1, 4), 0.25)
    with pytest.raises(ValueError):
        soft_ce_loss(logits, np.array([[0.5, 0.2, 0.1, 0.1]]), np.ones(1))
    with pytest.raises(ValueError):
        soft_ce_loss(logits, good, np.array([-1.0]))
    with pytest.raises(ValueError):
        soft_ce_loss(logits, good, np.zeros(1))


# ---------------------------------------------------------------- gradients

def test_out_bias_gradient_closed_form():
    # For a single slot with weight w: dL/d(out_bias) = w(softmax - y)/w
    # = softmax(logits) - y, scattered over the vocabulary.
    v = small_vocab()
    params = init_params(SMALL, len(v))
    V = len(v)
    ids = np.array([[4, 5, 6]], dtype=np.int64)
    y = np.zeros(V)
    y[5] = 1.0
    batch = Batch(
        ids=ids,
        slot_rows=np.array([0]),
        slot_cols=np.array([1]),
        targets=y[None, :],
        weights=np.array([3.0]),
    )
    logits = forward(params, ids, SMALL)
    p = np.exp(logits[0, 1] - logits[0, 1].max())
    p /= p.sum()
    _, grads = loss_and_gradients(params, batch, SMALL)
    assert np.allclose(grads["out_bias"], p - y, atol=1e-12)


def test_zero_weight_slot_contributes_nothing():
    v = small_vocab()
    params = init_params(SMALL, len(v))
    V = len(v)
    ids = np.array([[4, 5, 6]], dtype=np.int64)
    raw = np.random.default_rng(1).random((2, V))
    targets = raw / raw.sum(axis=1, keepdims=True)

    one = Batch(ids=ids, slot_rows=np.array([0]), slot_cols=np.array([0]),
                targets=targets[:1], weights=np.array([2.0]))
    both = Batch(ids=ids, slot_rows=np.array([0, 0]), slot_cols=np.array([0, 2]),
                 targets=targets, weights=np.array([2.0, 0.0]))
    loss1, g1 = loss_and_gradients(params, one, SMALL)
    loss2, g2 = loss_and_gradients(params, both, SMALL)
    assert loss1 == pytest.approx(loss2, abs=1e-12)
    for k in g1:
        assert np.allclose(g1[k], g2[k], atol=1e-12)


def _random_batch(V, ids, rows, cols, seed=0):
    raw = np.random.default_rng(seed).random((len(rows), V))
    return Batch(ids=np.asarray(ids, dtype=np.int64), slot_rows=np.array(rows),
                 slot_cols=np.array(cols), targets=raw / raw.sum(axis=1, keepdims=True),
                 weights=0.5 + np.random.default_rng(seed + 1).random(len(rows)))


def test_gathered_loss_matches_full_forward():
    # The step computes the last block's tail and the head only at the
    # slots; the loss must equal the one read off the full forward. Row 1
    # has no slot, and rows are padded to different lengths.
    v = small_vocab()
    params = init_params(SMALL, len(v))
    ids = [[4, 5, 6, 7, 3], [4, 6, 0, 0, 0], [5, 7, 4, 0, 0]]
    batch = _random_batch(len(v), ids, rows=[0, 0, 2], cols=[1, 4, 2])
    loss, _ = loss_and_gradients(params, batch, SMALL)
    logits = forward(params, batch.ids, SMALL)
    want = soft_ce_loss(logits[batch.slot_rows, batch.slot_cols], batch.targets, batch.weights)
    assert loss == pytest.approx(want, rel=1e-12)


def test_repeated_slot_adds_like_doubled_weight():
    # The backward scatters slot rows back to positions; a slot listed
    # twice must count twice, not once.
    v = small_vocab()
    params = init_params(SMALL, len(v))
    ids = np.array([[4, 5, 6, 3], [5, 4, 0, 0]], dtype=np.int64)
    base = _random_batch(len(v), ids, rows=[0, 1], cols=[2, 1])
    twice = Batch(ids=ids, slot_rows=np.array([0, 0, 1]), slot_cols=np.array([2, 2, 1]),
                  targets=base.targets[[0, 0, 1]], weights=np.array([1.0, 1.0, 1.0]))
    doubled = Batch(ids=ids, slot_rows=base.slot_rows, slot_cols=base.slot_cols,
                    targets=base.targets, weights=np.array([2.0, 1.0]))
    loss_a, g_a = loss_and_gradients(params, twice, SMALL)
    loss_b, g_b = loss_and_gradients(params, doubled, SMALL)
    assert loss_a == pytest.approx(loss_b, rel=1e-12)
    for k in g_a:
        assert np.allclose(g_a[k], g_b[k], rtol=1e-9, atol=1e-15), k


def test_slot_outside_batch_rejected():
    v = small_vocab()
    params = init_params(SMALL, len(v))
    batch = _random_batch(len(v), [[4, 5, 6]], rows=[0], cols=[3])
    with pytest.raises(ValueError, match="slot position"):
        loss_and_gradients(params, batch, SMALL)


def test_gradient_check_single_layer():
    # With one block the gathered block is also the first block.
    cfg = TrainConfig(d_model=8, n_layers=1, n_heads=2, ff_dim=16,
                      max_len=16, batch_size=2, epochs=1, seed=4)
    results = gradient_check(seed=4, coords_per_config=60, configs=(cfg,))
    assert max(r.rel_error for r in results) < 1e-4
    assert {r.key for r in results} >= {"tok_emb", "layer0.Wq"}


def test_gradient_check_default_configs():
    results = gradient_check(seed=0, coords_per_config=40)
    assert len(results) == 120
    worst = max(r.rel_error for r in results)
    assert worst < 1e-4
    # three distinct configurations are actually exercised
    keys = {r.key for r in results}
    assert len(keys) > 3


# ---------------------------------------------------------------- adam

def test_adam_step_hand_computed():
    cfg = TrainConfig(learning_rate=0.1, beta1=0.9, beta2=0.999, adam_eps=1e-8)
    params = {"w": np.array([1.0, 2.0])}
    grads = {"w": np.array([0.5, -0.5])}
    state = AdamState.for_params(params)
    adam_step(params, grads, state, cfg)

    # t=1: m = 0.1*g... no: m = (1-b1)g = 0.05; v = (1-b2)g^2 = 0.00025 * ...
    g = np.array([0.5, -0.5])
    m = 0.1 * g
    v = 0.001 * g * g
    m_hat = m / (1 - 0.9)
    v_hat = v / (1 - 0.999)
    want = np.array([1.0, 2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(params["w"], want, atol=1e-12)
    assert state.step == 1


def test_adam_two_steps_accumulate_moments():
    cfg = TrainConfig(learning_rate=0.01)
    params = {"w": np.array([0.0])}
    state = AdamState.for_params(params)
    g = {"w": np.array([1.0])}
    adam_step(params, g, state, cfg)
    adam_step(params, g, state, cfg)
    assert state.step == 2
    # constant gradient: each bias-corrected step is -lr * 1/(1+eps-ish)
    assert params["w"][0] == pytest.approx(-0.02, abs=1e-6)


# ---------------------------------------------------------------- training

def _training_records(vocab, n=60, seed=5):
    rules = [
        ("napped", TemporalDimension.DURATION, "hour"),
        ("toured", TemporalDimension.DURATION, "week"),
        ("jogged", TemporalDimension.FREQUENCY, "day"),
    ]
    cfg = MaskingConfig(p_mask=0.8, p_dim=0.1, p_event=0.15)
    records = []
    for i in range(n):
        verb, dim, value = rules[i % len(rules)]
        tup = TemporalTuple(("they", verb), 1, dim, value)
        built = build_sequence(tup, vocab)
        records.append(apply_masking(built, cfg, vocab,
                                     stream_rng(seed, "masking", i)))
    return records


def _training_vocab():
    return build_vocabulary([("they", "napped", "toured", "jogged")])


def test_train_improves_loss_and_is_deterministic():
    vocab = _training_vocab()
    records = _training_records(vocab)
    cfg = TrainConfig(d_model=16, n_layers=1, n_heads=2, ff_dim=32,
                      max_len=16, batch_size=8, epochs=8, seed=3,
                      learning_rate=3e-3)
    params_a, log_a = train(records, cfg, vocab)
    params_b, log_b = train(records, cfg, vocab)
    for k in params_a:
        assert np.array_equal(params_a[k], params_b[k])
    assert log_a == log_b
    train_rows = [r for r in log_a if r.split == "train"]
    assert len(train_rows) == 8
    assert train_rows[-1].loss < train_rows[0].loss


def test_train_validation_rows():
    vocab = _training_vocab()
    records = _training_records(vocab)
    cfg = TrainConfig(d_model=16, n_layers=1, n_heads=2, ff_dim=32,
                      max_len=16, batch_size=8, epochs=2, seed=3)
    _, log = train(records[:40], cfg, vocab, val_records=records[40:])
    splits = [r.split for r in log]
    assert splits == ["train", "val", "train", "val"]
    for row in log:
        if row.split == "val":
            assert row.mean_distance is not None
            assert 0.0 <= row.mean_distance <= 8.0
        else:
            assert row.mean_distance is None


def _slotless(vocab):
    # Every masking draw misses: the record keeps its ids and has no slot.
    tup = TemporalTuple(("they", "napped"), 1, TemporalDimension.DURATION, "hour")
    rec = apply_masking(build_sequence(tup, vocab), MaskingConfig(p_mask=0.0, p_dim=0.0, p_event=0.0),
                        vocab, stream_rng(0, "masking", 0))
    assert rec.targets == ()
    return rec


def test_train_skips_trailing_batch_without_slots():
    vocab = _training_vocab()
    records = _training_records(vocab, n=17)
    cfg = TrainConfig(d_model=16, n_layers=1, n_heads=2, ff_dim=32,
                      max_len=16, batch_size=8, epochs=1, seed=3)
    # The last batch of epoch 0 is the single record the shuffle puts last.
    last = int(stream_rng(cfg.seed, "shuffle", 0).permutation(len(records))[-1])
    records[last] = _slotless(vocab)
    params, log = train(records, cfg, vocab)
    assert [r.split for r in log] == ["train"]
    assert math.isfinite(log[0].loss)
    assert all(np.all(np.isfinite(p)) for p in params.values())


def test_train_val_set_with_slotless_batch():
    vocab = _training_vocab()
    records = _training_records(vocab, n=50)
    cfg = TrainConfig(d_model=16, n_layers=1, n_heads=2, ff_dim=32,
                      max_len=16, batch_size=8, epochs=1, seed=3)
    val = records[40:48] + [_slotless(vocab)]   # 8 + 1: the last batch is slotless
    _, log = train(records[:40], cfg, vocab, val_records=val)
    val_row = log[1]
    assert val_row.split == "val"
    assert math.isfinite(val_row.loss)
    assert val_row.mean_distance is not None


def test_train_without_any_slot_raises():
    vocab = _training_vocab()
    records = _training_records(vocab, n=10)
    cfg = TrainConfig(d_model=16, n_layers=1, n_heads=2, ff_dim=32,
                      max_len=16, batch_size=4, epochs=1, seed=3)
    with pytest.raises(ValueError, match="no training record"):
        train([_slotless(vocab)] * 5, cfg, vocab)
    with pytest.raises(ValueError, match="no validation record"):
        train(records, cfg, vocab, val_records=[_slotless(vocab)] * 5)


def test_train_empty_dataset_raises():
    vocab = _training_vocab()
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        train([], cfg, vocab)


def test_train_divergence_aborts():
    vocab = _training_vocab()
    records = _training_records(vocab)
    cfg = TrainConfig(d_model=16, n_layers=1, n_heads=2, ff_dim=32,
                      max_len=16, batch_size=8, epochs=50, seed=3,
                      learning_rate=1e5)
    with pytest.raises(DivergenceError):
        train(records, cfg, vocab)


def test_log_row_csv_format():
    from tempomine.model import LogRow
    assert LogRow(0, "train", 1.5, None).as_csv() == "0,train,1.5,"
    assert LogRow(1, "val", 0.25, 0.5).as_csv() == "1,val,0.25,0.5"


# ---------------------------------------------------------------- predict

def test_predict_distribution_shape_and_sum():
    vocab = _training_vocab()
    cfg = TrainConfig(d_model=16, n_layers=1, n_heads=2, ff_dim=32,
                      max_len=16, seed=0)
    params = init_params(cfg, len(vocab))
    for dim, n in [(TemporalDimension.DURATION, 9),
                   (TemporalDimension.TYPICAL_WEEK, 7),
                   (TemporalDimension.HIERARCHY, 4)]:
        p = predict_value_distribution(params, cfg, vocab,
                                       ("they", "napped"), 1, dim)
        assert p.shape == (n,)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p > 0)


def test_predict_shift_invariance_over_val_block():
    # Adding a constant to every out_bias entry must not change the
    # restricted distribution.
    vocab = _training_vocab()
    cfg = TrainConfig(d_model=16, n_layers=1, n_heads=2, ff_dim=32,
                      max_len=16, seed=0)
    params = init_params(cfg, len(vocab))
    p1 = predict_value_distribution(params, cfg, vocab, ("they", "napped"),
                                    1, TemporalDimension.DURATION)
    params["out_bias"] = params["out_bias"] + 7.0
    p2 = predict_value_distribution(params, cfg, vocab, ("they", "napped"),
                                    1, TemporalDimension.DURATION)
    assert np.allclose(p1, p2, atol=1e-9)


def test_trained_model_recovers_planted_value():
    vocab = _training_vocab()
    records = _training_records(vocab, n=120)
    cfg = TrainConfig(d_model=32, n_layers=2, n_heads=2, ff_dim=64,
                      max_len=16, batch_size=16, epochs=12, seed=3,
                      learning_rate=3e-3)
    params, _ = train(records, cfg, vocab)
    p = predict_value_distribution(params, cfg, vocab, ("they", "napped"),
                                   1, TemporalDimension.DURATION)
    labels = label_space(TemporalDimension.DURATION).labels
    assert labels[int(np.argmax(p))] == "hour"


# ---------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip(tmp_path):
    vocab = _training_vocab()
    cfg = TrainConfig(d_model=16, n_layers=2, n_heads=2, ff_dim=32,
                      max_len=16, seed=0)
    params = init_params(cfg, len(vocab))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, params, cfg, header_lines=["written by tests"])
    loaded, loaded_cfg = load_checkpoint(path)
    assert sorted(loaded) == sorted(params)
    for k in params:
        assert loaded[k].shape == params[k].shape
        assert loaded[k].dtype == np.float64
        # float32 storage: round trip agrees to single precision
        assert np.allclose(loaded[k], params[k], atol=1e-6)
    assert loaded_cfg.d_model == cfg.d_model
    assert loaded_cfg.n_layers == cfg.n_layers
    assert loaded_cfg.n_heads == cfg.n_heads
    assert loaded_cfg.ff_dim == cfg.ff_dim
    assert loaded_cfg.max_len == cfg.max_len


def test_checkpoint_predictions_survive_round_trip(tmp_path):
    vocab = _training_vocab()
    records = _training_records(vocab, n=30)
    cfg = TrainConfig(d_model=16, n_layers=1, n_heads=2, ff_dim=32,
                      max_len=16, batch_size=8, epochs=2, seed=3)
    params, _ = train(records, cfg, vocab)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, params, cfg)
    loaded, loaded_cfg = load_checkpoint(path)
    a = predict_value_distribution(params, cfg, vocab, ("they", "napped"),
                                   1, TemporalDimension.DURATION)
    b = predict_value_distribution(loaded, loaded_cfg, vocab, ("they", "napped"),
                                   1, TemporalDimension.DURATION)
    assert np.allclose(a, b, atol=1e-4)


def test_checkpoint_magic_and_bad_file(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"JUNK" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(str(path))


def test_checkpoint_starts_with_magic(tmp_path):
    vocab = _training_vocab()
    cfg = TrainConfig(d_model=8, n_layers=1, n_heads=1, ff_dim=16, max_len=16)
    params = init_params(cfg, len(vocab))
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, params, cfg)
    with open(path, "rb") as f:
        assert f.read(4) == b"TMCK"


# ---------------------------------------------------------------- batch

def test_assemble_batch_scatters_soft_onto_val_block():
    vocab = _training_vocab()
    tup = TemporalTuple(("they", "napped"), 1, TemporalDimension.DURATION, "hour")
    built = build_sequence(tup, vocab)
    rec = apply_masking(built, MaskingConfig(p_mask=1.0, p_dim=0.0), vocab,
                        stream_rng(0, "masking", 0), weight=2.0)
    batch = assemble_batch([rec], vocab)
    assert batch.ids.shape == (1, len(rec.input_ids))
    assert batch.weights.tolist() == [2.0]
    start, labels = vocab.val_block(TemporalDimension.DURATION)
    row = batch.targets[0]
    assert row[start:start + len(labels)] == pytest.approx(
        np.array(rec.targets[0].soft))
    assert row[:start].sum() == 0.0
    assert row[start + len(labels):].sum() == 0.0


def test_assemble_batch_pads_to_longest():
    vocab = _training_vocab()
    t1 = TemporalTuple(("they", "napped"), 1, TemporalDimension.DURATION, "hour")
    t2 = TemporalTuple(("they", "napped", "they", "napped"), 1,
                       TemporalDimension.DURATION, "day")
    cfg = MaskingConfig(p_mask=1.0, p_dim=0.0)
    recs = []
    for i, t in enumerate([t1, t2]):
        built = build_sequence(t, vocab)
        recs.append(apply_masking(built, cfg, vocab, stream_rng(0, "masking", i)))
    batch = assemble_batch(recs, vocab)
    assert batch.ids.shape[1] == len(recs[1].input_ids)
    pad_region = batch.ids[0, len(recs[0].input_ids):]
    assert np.all(pad_region == 0)


def test_assemble_batch_rejects_empty():
    vocab = _training_vocab()
    with pytest.raises(ValueError):
        assemble_batch([], vocab)
