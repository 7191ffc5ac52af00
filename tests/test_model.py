import dataclasses
import math

import numpy as np
import pytest

from tempomine.extraction import TemporalTuple
from tempomine import model as model_module
from tempomine import sequences as sequences_module
from tempomine.label_space import TemporalDimension, label_space, rank_distance
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
    val_targets,
)
from tempomine.srl_ingest import SchemaError
from tempomine.targets import soft_target

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
    with pytest.raises(ValueError, match="n_heads must be positive"):
        TrainConfig(n_heads=0)
    with pytest.raises(ValueError, match="sigma_circular must be positive"):
        TrainConfig(sigma_circular=0.0)
    with pytest.raises(ValueError, match="sigma_log must be positive"):
        TrainConfig(sigma_log=-1.0)
    # NaN passes a "<= 0" check; each float setting must also be finite.
    with pytest.raises(ValueError, match="sigma_circular must be positive and finite, got inf"):
        TrainConfig(sigma_circular=float("inf"))
    with pytest.raises(ValueError, match="learning_rate must be positive and finite, got nan"):
        TrainConfig(learning_rate=float("nan"))
    with pytest.raises(ValueError, match="targets must be 'soft' or 'hard', got 'smooth'"):
        TrainConfig(targets="smooth")
    with pytest.raises(ValueError, match="--max-len must be at least 6 .*, got 5"):
        TrainConfig(max_len=5)
    assert TrainConfig(max_len=6).max_len == 6
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}"):
            TrainConfig(seed=seed)
    assert TrainConfig(seed=2**64 - 1).seed == 2**64 - 1
    assert (TrainConfig().targets, TrainConfig().sigma_log, TrainConfig().sigma_circular) == (
        "soft", 4.0, 0.5)


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


def test_slotless_rows_change_no_loss_or_gradient():
    # Attention stays within a row, so a row without a slot adds no loss
    # and only exact zeros to the gradient sums, even when it is longer
    # than every slotted row and so widens the batch.
    v = small_vocab()
    params = init_params(SMALL, len(v))
    slotted = [[4, 5, 6, 3], [5, 4, 7, 0]]
    base = _random_batch(len(v), slotted, rows=[0, 1, 1], cols=[2, 1, 0])
    T = 7
    padded = [[*row, *[0] * (T - len(row))] for row in slotted]
    ids = np.array([[6, 7, 4, 5, 6, 7, 3], padded[0], [8, 4, 0, 0, 0, 0, 0], padded[1]])
    wide = Batch(ids=ids, slot_rows=np.array([1, 3, 3]), slot_cols=base.slot_cols,
                 targets=base.targets, weights=base.weights)
    loss, grads = loss_and_gradients(params, base, SMALL)
    wide_loss, wide_grads = loss_and_gradients(params, wide, SMALL)
    assert wide_loss == pytest.approx(loss, rel=1e-12, abs=0)
    assert sorted(wide_grads) == sorted(grads)
    for k in grads:
        np.testing.assert_allclose(wide_grads[k], grads[k], rtol=1e-12, atol=0, err_msg=k)


def test_slot_outside_batch_rejected():
    v = small_vocab()
    params = init_params(SMALL, len(v))
    batch = _random_batch(len(v), [[4, 5, 6]], rows=[0], cols=[3])
    with pytest.raises(ValueError, match="slot position"):
        loss_and_gradients(params, batch, SMALL)


def test_forward_at_slots_matches_full_forward():
    # Padded rows of different lengths, a slotless row and a slot listed
    # twice: each gathered row is the full forward's row at that slot.
    v = small_vocab()
    params = init_params(SMALL, len(v))
    ids = np.array([[4, 5, 6, 7, 3], [4, 6, 0, 0, 0], [5, 7, 4, 0, 0]], dtype=np.int64)
    rows, cols = np.array([0, 2, 0, 2]), np.array([1, 2, 4, 2])
    got = forward(params, ids, SMALL, slots=(rows, cols))
    assert got.shape == (4, len(v))
    np.testing.assert_allclose(got, forward(params, ids, SMALL)[rows, cols], rtol=0, atol=1e-12)


@pytest.mark.parametrize("rows, cols", [([0, 1], [1, 0]), ([0], [5]), ([0], [-1])])
def test_forward_slot_outside_batch_rejected(rows, cols):
    v = small_vocab()
    params = init_params(SMALL, len(v))
    ids = np.array([[4, 5, 6, 7, 3]], dtype=np.int64)
    with pytest.raises(ValueError, match="slot position"):
        forward(params, ids, SMALL, slots=(rows, cols))


def test_slot_attention_gradients_match_central_differences():
    # The last block's queries run only at the slots, and their key and
    # value gradients are summed back into each slot's batch row. Row 0
    # has two slots, row 2 one slot listed twice, row 1 none; rows 1 and
    # 2 are padded.
    v = small_vocab()
    rng = np.random.default_rng(7)
    # Off-init weights, so attention is far from uniform.
    params = {k: p + rng.normal(0.0, 0.3, size=p.shape)
              for k, p in init_params(SMALL, len(v)).items()}
    ids = np.array([[4, 5, 6, 7, 3], [4, 6, 0, 0, 0], [5, 7, 4, 0, 0]], dtype=np.int64)
    batch = _random_batch(len(v), ids, rows=[0, 0, 2, 2], cols=[1, 4, 2, 2], seed=3)
    _, grads = loss_and_gradients(params, batch, SMALL)
    last = f"layer{SMALL.n_layers - 1}."
    step = 1e-5
    for key in (last + "Wq", last + "bq", last + "Wk", last + "Wv", "pos_emb", "tok_emb"):
        shape = params[key].shape
        for _ in range(12):
            index = tuple(int(rng.integers(0, n)) for n in shape)
            if key == "pos_emb":
                index = (index[0] % ids.shape[1], index[1])
            elif key == "tok_emb":
                index = (int(rng.choice(ids.ravel())), index[1])
            original = params[key][index]
            params[key][index] = original + step
            loss_plus, _ = loss_and_gradients(params, batch, SMALL)
            params[key][index] = original - step
            loss_minus, _ = loss_and_gradients(params, batch, SMALL)
            params[key][index] = original
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            analytic = grads[key][index]
            assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-4) < 1e-6, (key, index)


def _erfc_cdf(x):
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])


def test_tanh_gelu_cdf_is_within_1_8e_4_of_erfc():
    # The tanh form's 0.5 * (1 + t) stands for Phi(h) = 0.5 * erfc(-h / sqrt 2).
    x = np.concatenate([np.linspace(-40.0, 40.0, 200001), [0.0, np.nan]])
    g, t = model_module._gelu(x)
    cdf = 0.5 * (1.0 + t)
    want = _erfc_cdf(x)
    assert np.isnan(cdf[-1]) and np.isnan(g[-1])
    assert np.abs(cdf[:-1] - want[:-1]).max() <= 1.8e-4
    assert np.array_equal(g[:-1], x[:-1] * cdf[:-1])

    x32 = x.astype(np.float32)
    g32, t32 = model_module._gelu(x32)
    assert g32.dtype == t32.dtype == np.float32
    assert np.isnan(g32[-1]) and np.isnan(t32[-1])


def _layer_norm_by_mean(x, g, b):
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + model_module._LN_EPS)
    xhat = xc * inv
    return g * xhat + b, xhat, inv


@pytest.mark.parametrize("shape", [(1, 16), (10, 64), (320, 64), (7, 24), (3, 8)])
def test_layer_norm_sum_over_d_is_bitwise_mean(shape):
    rng = np.random.default_rng(sum(shape))
    for scale in (1e-3, 1.0, 30.0):
        x = scale * rng.normal(size=shape) + rng.normal()
        g, b, dy = rng.normal(size=shape[-1]), rng.normal(size=shape[-1]), rng.normal(size=shape)
        y, cache = model_module._layer_norm(x, g, b)
        want_y, xhat, inv = _layer_norm_by_mean(x, g, b)
        assert np.array_equal(y, want_y)
        dxhat = dy * g
        want_dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                         - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        dx, _, _ = model_module._layer_norm_backward(dy, cache)
        assert np.array_equal(dx, want_dx)


# ------------------------------------------- kernel bit pins
# The kernels run their elementwise steps in place. Each pin below writes
# out the plain expression, one fresh array per step, and asserts the
# same bits.

def _softmax_by_max(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _off_init_params(cfg, V, seed):
    # Nonzero biases and gains away from one, so that reordering a bias
    # add changes the rounding.
    rng = np.random.default_rng(seed)
    return {k: p + rng.normal(0.0, 0.3, size=p.shape) for k, p in init_params(cfg, V).items()}


# (batch, heads, queries, keys): the first three take the row max by
# columns, the others by numpy's max (too few rows; past 32 keys).
@pytest.mark.parametrize("shape", [(32, 4, 10, 10), (8, 4, 32, 32), (64, 2, 8, 1),
                                   (32, 4, 1, 10), (3, 2, 33, 33), (4, 2, 5, 40)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_is_bitwise_the_max_shifted_expression(shape, dtype):
    rng = np.random.default_rng(sum(shape))
    x = (3.0 * rng.normal(size=shape)).astype(dtype)
    pad = rng.random((shape[0], 1, 1, shape[-1])) < 0.3
    x += np.where(pad, model_module._ATTN_NEG, 0.0).astype(dtype)
    flat = x.reshape(-1, shape[-1])
    flat[0, 0], flat[1, -1], flat[2, 0] = np.inf, -np.inf, np.nan
    flat[3] = -np.inf  # a row with no finite key
    with np.errstate(invalid="ignore"):
        want = _softmax_by_max(x)
        assert np.array_equal(model_module._row_max(x), x.max(axis=-1, keepdims=True),
                              equal_nan=True)
        got = model_module._softmax(x.copy())
    assert got.dtype == dtype
    assert np.array_equal(got, want, equal_nan=True)


def _attention_by_expression(params, p, x, key_bias, scale, H, positions):
    B, T = key_bias.shape[0], key_bias.shape[-1]
    D = x.shape[1]

    def heads(t):
        return t.reshape(B, T, H, D // H).transpose(0, 2, 1, 3)

    kh = heads(x @ params[p + "Wk"] + params[p + "bk"])
    vh = heads(x @ params[p + "Wv"] + params[p + "bv"])
    if positions is None:
        xq, qh = x, heads(x @ params[p + "Wq"] + params[p + "bq"])
    else:
        rows = positions // T
        xq = x[positions]
        qh = (xq @ params[p + "Wq"] + params[p + "bq"]).reshape(len(xq), H, 1, D // H)
        kh, vh, key_bias = kh[rows], vh[rows], key_bias[rows]
    attn = _softmax_by_max(qh @ kh.transpose(0, 1, 3, 2) * scale + key_bias)
    return (attn @ vh).transpose(0, 2, 1, 3).reshape(len(xq), D), (xq, qh, kh, vh, attn)


def _attention_backward_by_expression(params, p, dctx, x, positions, xq, qh, kh, vh, attn, scale):
    G, H, Tq, dh = qh.shape
    N, D = x.shape
    dctxh = dctx.reshape(G, Tq, H, dh).transpose(0, 2, 1, 3)
    dattn = dctxh @ vh.transpose(0, 1, 3, 2)
    dvh = attn.transpose(0, 1, 3, 2) @ dctxh
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dqh = dscores @ kh * scale
    dkh = dscores.transpose(0, 1, 3, 2) @ qh * scale
    if positions is not None:
        T = kh.shape[2]
        dkh, dvh = (model_module._scatter_add(positions // T, d.reshape(G, -1), N // T)
                    .reshape(-1, H, T, dh) for d in (dkh, dvh))
    dq, dk, dv = (d.transpose(0, 2, 1, 3).reshape(-1, D) for d in (dqh, dkh, dvh))
    grads = {}
    for name, inp, dproj in (("q", xq, dq), ("k", x, dk), ("v", x, dv)):
        grads[p + "W" + name] = inp.T @ dproj
        grads[p + "b" + name] = dproj.sum(axis=0)
    dx = dq @ params[p + "Wq"].T
    if positions is not None:
        dx = model_module._scatter_add(positions, dx, N)
    dx = dx + dk @ params[p + "Wk"].T
    dx = dx + dv @ params[p + "Wv"].T
    return dx, grads


def _layer_norm_backward_by_expression(dy, xhat, inv, g):
    dxhat = dy * g
    D = dxhat.shape[-1]
    mean1 = dxhat.sum(axis=-1, keepdims=True) / D
    mean2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / D
    return inv * (dxhat - mean1 - xhat * mean2), (dy * xhat).sum(axis=0), dy.sum(axis=0)


def _block_tail_by_expression(params, p, x, ctx):
    def ln(v, name):
        return _layer_norm_by_mean(v, params[p + name + "_g"], params[p + name + "_b"])

    y1, xhat1, inv1 = ln(x + ctx @ params[p + "Wo"] + params[p + "bo"], "ln1")
    h = y1 @ params[p + "W1"] + params[p + "b1"]
    t = np.tanh(math.sqrt(2.0 / math.pi) * (h * h * h * 0.044715 + h))
    g = (t + 1.0) * h * 0.5
    y2, xhat2, inv2 = ln(y1 + g @ params[p + "W2"] + params[p + "b2"], "ln2")
    return y2, (y1, h, t, g, xhat1, inv1, xhat2, inv2)


def _block_tail_backward_by_expression(params, p, dy, ctx, saved):
    y1, h, t, g, xhat1, inv1, xhat2, inv2 = saved
    grads = {}
    dr2, grads[p + "ln2_g"], grads[p + "ln2_b"] = _layer_norm_backward_by_expression(
        dy, xhat2, inv2, params[p + "ln2_g"])
    grads[p + "W2"] = g.T @ dr2
    grads[p + "b2"] = dr2.sum(axis=0)
    slope = (((h * h * (3.0 * 0.044715) + 1.0) * math.sqrt(2.0 / math.pi) * h * (1.0 - t * t)
              + t + 1.0) * 0.5)
    dh = (dr2 @ params[p + "W2"].T) * slope
    grads[p + "W1"] = y1.T @ dh
    grads[p + "b1"] = dh.sum(axis=0)
    dr1, grads[p + "ln1_g"], grads[p + "ln1_b"] = _layer_norm_backward_by_expression(
        dr2 + dh @ params[p + "W1"].T, xhat1, inv1, params[p + "ln1_g"])
    grads[p + "Wo"] = ctx.T @ dr1
    grads[p + "bo"] = dr1.sum(axis=0)
    return dr1, dr1 @ params[p + "Wo"].T, grads


def _assert_grads_equal(got, want):
    assert sorted(got) == sorted(want)
    for key in want:
        assert np.array_equal(got[key], want[key]), key


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("selected", [False, True], ids=["all rows", "slot rows"])
def test_attention_and_block_tail_are_bitwise_the_expressions(dtype, selected):
    # Head width 6: a scale of 1/sqrt(6) rounds, unlike a power of two.
    cfg = TrainConfig(d_model=24, n_layers=1, n_heads=4, ff_dim=32, max_len=16)
    params = {k: v.astype(dtype) for k, v in _off_init_params(cfg, 30, seed=5).items()}
    rng = np.random.default_rng(6)
    B, T, D = 12, 9, cfg.d_model
    lengths = rng.integers(1, T + 1, size=B)
    pad = np.arange(T)[None, :] >= lengths[:, None]
    key_bias = np.where(pad, model_module._ATTN_NEG, 0.0).astype(dtype)[:, None, None, :]
    x = rng.normal(size=(B * T, D)).astype(dtype)
    positions = np.array([0, 5, 5, 17, 40, 107]) if selected else None
    scale = 1.0 / math.sqrt(D // cfg.n_heads)

    ctx, cache = model_module._attention(params, "layer0.", x, key_bias, scale, cfg.n_heads,
                                         positions)
    want_ctx, want_saved = _attention_by_expression(params, "layer0.", x, key_bias, scale,
                                                    cfg.n_heads, positions)
    assert np.array_equal(ctx, want_ctx)
    for got, want in zip(cache[1:2] + cache[3:7], want_saved):
        assert np.array_equal(got, want)

    xs = x if positions is None else x[positions]
    out, tail_cache = model_module._block_tail(params, "layer0.", xs, ctx)
    want_out, tail_saved = _block_tail_by_expression(params, "layer0.", xs, ctx)
    assert np.array_equal(out, want_out)

    dy = rng.normal(size=out.shape).astype(dtype)
    grads = {}
    dr1, dctx = model_module._block_tail_backward(params, "layer0.", dy, tail_cache, grads)
    want_dr1, want_dctx, want_grads = _block_tail_backward_by_expression(
        params, "layer0.", dy, ctx, tail_saved)
    assert np.array_equal(dr1, want_dr1) and np.array_equal(dctx, want_dctx)
    _assert_grads_equal(grads, want_grads)

    grads = {}
    dx = model_module._attention_backward(params, "layer0.", dctx, cache, grads)
    want_dx, want_grads = _attention_backward_by_expression(
        params, "layer0.", dctx, x, positions, *want_saved, scale)
    assert np.array_equal(dx, want_dx)
    _assert_grads_equal(grads, want_grads)


@pytest.mark.parametrize("shape", [(1, 16), (10, 64), (320, 64), (7, 24)])
def test_layer_norm_backward_is_bitwise_the_expression(shape):
    rng = np.random.default_rng(sum(shape) + 1)
    x = rng.normal(size=shape)
    g, b, dy = rng.normal(size=shape[-1]), rng.normal(size=shape[-1]), rng.normal(size=shape)
    _, cache = model_module._layer_norm(x, g, b)
    for got, want in zip(model_module._layer_norm_backward(dy, cache),
                         _layer_norm_backward_by_expression(dy, *cache)):
        assert np.array_equal(got, want)


# ------------------------------------------- inputs left untouched

def _snapshot(*arrays):
    return [np.array(a, copy=True) for a in arrays]


def _assert_unchanged(arrays, copies):
    for a, c in zip(arrays, copies, strict=True):
        assert a.dtype == c.dtype and np.array_equal(a, c)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_leaves_its_inputs_and_repeats_bitwise(dtype):
    v = small_vocab()
    params = {k: p.astype(dtype) for k, p in _off_init_params(SMALL, len(v), seed=2).items()}
    ids = np.array([[4, 5, 6, 7, 3], [4, 6, 0, 0, 0], [5, 7, 4, 0, 0]], dtype=np.int64)
    slots = (np.array([0, 2, 2]), np.array([1, 2, 2]))
    inputs = [*params.values(), ids, *slots]
    copies = _snapshot(*inputs)
    for kwargs in ({}, {"slots": slots}):
        first = forward(params, ids, SMALL, **kwargs)
        _assert_unchanged(inputs, copies)
        assert np.array_equal(forward(params, ids, SMALL, **kwargs), first)


def test_training_keeps_float32_and_the_gradient_check_float64():
    # A float64 operand anywhere in the backward would promote a gradient,
    # and adam_step's concatenate(out=g) would round it back down silently.
    v = small_vocab()
    params = {k: p.astype(np.float32) for k, p in _off_init_params(SMALL, len(v), seed=3).items()}
    ids = np.array([[4, 5, 6, 7, 3], [4, 6, 0, 0, 0], [5, 7, 4, 0, 0]], dtype=np.int64)
    batch = _random_batch(len(v), ids, rows=[0, 0, 2, 2], cols=[1, 4, 2, 2], seed=3)
    _, grads = loss_and_gradients(params, batch, SMALL)
    assert sorted(grads) == sorted(params)
    assert {k: g.dtype for k, g in grads.items()} == {k: np.dtype(np.float32) for k in params}
    for dtype in (np.float32, np.float64):
        state = AdamState.for_params({k: p.astype(dtype) for k, p in params.items()})
        assert state.m.dtype == state.v.dtype == state.work.dtype == dtype

    vocab = _training_vocab()
    cfg = TrainConfig(d_model=16, n_layers=2, n_heads=2, ff_dim=32,
                      max_len=16, batch_size=8, epochs=1, seed=3)
    trained, _ = train(_training_records(vocab, n=20), cfg, vocab)
    assert {p.dtype for p in trained.values()} == {np.dtype(np.float32)}

    # The gradient check draws its own float64 parameters.
    results = gradient_check(seed=0, coords_per_config=40)
    assert max(r.rel_error for r in results) == pytest.approx(5.79e-07, rel=1e-3)
    _, grads64 = loss_and_gradients(init_params(SMALL, len(v)), batch, SMALL)
    assert {g.dtype for g in grads64.values()} == {np.dtype(np.float64)}


def test_loss_and_gradients_leaves_its_inputs_and_repeats_bitwise():
    v = small_vocab()
    params = _off_init_params(SMALL, len(v), seed=3)
    ids = np.array([[4, 5, 6, 7, 3], [4, 6, 0, 0, 0], [5, 7, 4, 0, 0]], dtype=np.int64)
    batch = _random_batch(len(v), ids, rows=[0, 0, 2, 2], cols=[1, 4, 2, 2], seed=3)
    inputs = [*params.values(), *(getattr(batch, f.name) for f in dataclasses.fields(batch))]
    copies = _snapshot(*inputs)
    loss, grads = loss_and_gradients(params, batch, SMALL)
    _assert_unchanged(inputs, copies)
    loss2, grads2 = loss_and_gradients(params, batch, SMALL)
    assert loss2 == loss
    _assert_grads_equal(grads2, grads)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_predict_leaves_its_params_and_repeats_bitwise(dtype):
    vocab = _training_vocab()
    cfg = TrainConfig(d_model=16, n_layers=2, n_heads=2, ff_dim=32, max_len=16, batch_size=4)
    params = {k: p.astype(dtype) for k, p in _off_init_params(cfg, len(vocab), seed=4).items()}
    copies = _snapshot(*params.values())
    queries = [(("they", "napped"), 1, TemporalDimension.DURATION),
               (("she", "ran", "home"), 1, TemporalDimension.TYPICAL_WEEK),
               (("he", "slept"), 1, TemporalDimension.HIERARCHY)] * 3
    first = predict_value_distribution(params, cfg, vocab, queries)
    _assert_unchanged(list(params.values()), copies)
    again = predict_value_distribution(params, cfg, vocab, queries)
    assert all(np.array_equal(a, b) for a, b in zip(first, again, strict=True))


def test_gradient_check_single_layer():
    # With one block the gathered block is also the first block.
    cfg = TrainConfig(d_model=8, n_layers=1, n_heads=2, ff_dim=16,
                      max_len=16, batch_size=2, epochs=1, seed=4)
    results = gradient_check(seed=4, coords_per_config=60, configs=(cfg,))
    assert max(r.rel_error for r in results) < 1e-4
    assert {r.key for r in results} >= {"tok_emb", "layer0.Wq"}


def test_gradient_check_at_the_top_seed():
    # The default configs' seeds (seed + config index) wrap at 2**64.
    results = gradient_check(seed=2**64 - 1, coords_per_config=2)
    assert len(results) == 6
    assert max(r.rel_error for r in results) < 1e-4


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
    cfg = TrainConfig(learning_rate=0.1)
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


def test_val_logits_read_the_masked_val_slot(monkeypatch):
    vocab = _training_vocab()
    records = _training_records(vocab, n=10)
    cfg = TrainConfig(d_model=16, n_layers=1, n_heads=2, ff_dim=32,
                      max_len=16, batch_size=4, seed=1)
    params = init_params(cfg, len(vocab))
    batches = []

    def counting_forward(p, ids, c, **kwargs):
        batches.append(ids.copy())
        return forward(p, ids, c, **kwargs)

    monkeypatch.setattr(model_module, "forward", counting_forward)
    got = model_module._val_logits(
        params, cfg, vocab, [(r.input_ids, r.val_position, r.dimension) for r in records])
    assert [len(ids) for ids in batches] == [4, 4, 2]

    assert len(got) == len(records)
    for rec, block in zip(records, got):
        ids = np.array([rec.input_ids], dtype=np.int64)
        ids[0, rec.val_position] = MASK_ID
        start, labels = vocab.val_block(rec.dimension)
        expected = forward(params, ids, cfg)[0, rec.val_position, start:start + len(labels)]
        np.testing.assert_allclose(block, expected, rtol=0, atol=1e-12)
        assert int(np.argmax(block)) == int(np.argmax(expected))


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


def test_train_val_row_matches_full_forward(monkeypatch):
    # The val pass reads its loss off gathered slot rows and its distances
    # off the [Val] scorer's blocks; both must match the full forward's rows.
    vocab = _training_vocab()
    records = _training_records(vocab)
    cfg = TrainConfig(d_model=16, n_layers=2, n_heads=2, ff_dim=32,
                      max_len=16, batch_size=8, epochs=1, seed=3)
    train_records, val_records = records[:40], records[40:]
    scored = []

    def spying_val_logits(p, c, v, items):
        scored.append(list(items))
        return val_logits(p, c, v, items)

    val_logits = model_module._val_logits
    monkeypatch.setattr(model_module, "_val_logits", spying_val_logits)
    params, log = train(train_records, cfg, vocab, val_records=val_records)
    # One scorer call per epoch, over every val record in order.
    assert scored == [[(r.input_ids, r.val_position, r.dimension) for r in val_records]]
    val_row = log[-1]
    assert val_row.split == "val"

    wce = w = 0.0
    for i in range(0, len(val_records), cfg.batch_size):
        batch = assemble_batch(val_records[i:i + cfg.batch_size], vocab,
                               val_targets("soft", cfg.sigma_log, cfg.sigma_circular))
        logits = forward(params, batch.ids, cfg)[batch.slot_rows, batch.slot_cols]
        wce += soft_ce_loss(logits, batch.targets, batch.weights) * batch.weights.sum()
        w += batch.weights.sum()
    assert val_row.loss == pytest.approx(wce / w, rel=0, abs=1e-12)

    distances = []
    for rec in val_records:
        ids = np.array([rec.input_ids], dtype=np.int64)
        ids[0, rec.val_position] = MASK_ID
        start, labels = vocab.val_block(rec.dimension)
        block = forward(params, ids, cfg)[0, rec.val_position, start:start + len(labels)]
        gold = labels[rec.val_token_id - start]
        distances.append(rank_distance(labels[int(np.argmax(block))], gold, rec.dimension))
    assert val_row.mean_distance == pytest.approx(np.mean(distances), rel=0, abs=1e-12)


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


@pytest.mark.parametrize("with_val", [False, True], ids=["train", "train+val"])
def test_train_batches_hold_only_slotted_records(monkeypatch, with_val):
    vocab = _training_vocab()
    cfg = TrainConfig(d_model=16, n_layers=1, n_heads=2, ff_dim=32,
                      max_len=16, batch_size=8, epochs=2, seed=3)
    records = _training_records(vocab, n=30)
    for j in range(0, len(records), 4):
        records[j] = _slotless(vocab)
    # Epoch 0's first chunk holds no slot at all, so it is skipped.
    for j in stream_rng(cfg.seed, "shuffle", 0).permutation(len(records))[:cfg.batch_size]:
        records[j] = _slotless(vocab)
    val = [_slotless(vocab) if j % 3 == 0 else rec
           for j, rec in enumerate(_training_records(vocab, n=20, seed=9))] if with_val else []

    def slotted_chunks(recs, order):
        chunks = ([recs[j] for j in order[i:i + cfg.batch_size]]
                  for i in range(0, len(order), cfg.batch_size))
        return [[id(r) for r in c if r.targets] for c in chunks if any(r.targets for r in c)]

    want_steps, want_batches = 0, []
    for epoch in range(cfg.epochs):
        chunks = slotted_chunks(records, stream_rng(cfg.seed, "shuffle", epoch).permutation(len(records)))
        want_steps += len(chunks)
        want_batches += chunks + slotted_chunks(val, range(len(val)))
    assert want_steps < cfg.epochs * math.ceil(len(records) / cfg.batch_size)  # one chunk skipped

    batches, steps = [], []
    real_assemble, real_adam = model_module.assemble_batch, model_module.adam_step

    def recording_assemble(chunk, *args):
        batches.append([id(r) for r in chunk])
        return real_assemble(chunk, *args)

    def counting_adam(*args):
        steps.append(1)
        return real_adam(*args)

    monkeypatch.setattr(model_module, "assemble_batch", recording_assemble)
    monkeypatch.setattr(model_module, "adam_step", counting_adam)
    _, log = train(records, cfg, vocab, val_records=val)
    slotless = {id(r) for r in [*records, *val] if not r.targets}
    assert not slotless.intersection(*batches)
    assert batches == want_batches
    assert len(steps) == want_steps
    assert [r.split for r in log] == (["train", "val"] if with_val else ["train"]) * cfg.epochs


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
        (p,) = predict_value_distribution(params, cfg, vocab, [(("they", "napped"), 1, dim)])
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
    query = [(("they", "napped"), 1, TemporalDimension.DURATION)]
    (p1,) = predict_value_distribution(params, cfg, vocab, query)
    params["out_bias"] = params["out_bias"] + 7.0
    (p2,) = predict_value_distribution(params, cfg, vocab, query)
    assert np.allclose(p1, p2, atol=1e-9)


def test_trained_model_recovers_planted_value():
    vocab = _training_vocab()
    records = _training_records(vocab, n=120)
    cfg = TrainConfig(d_model=32, n_layers=2, n_heads=2, ff_dim=64,
                      max_len=16, batch_size=16, epochs=12, seed=3,
                      learning_rate=3e-3)
    params, _ = train(records, cfg, vocab)
    (p,) = predict_value_distribution(params, cfg, vocab,
                                      [(("they", "napped"), 1, TemporalDimension.DURATION)])
    labels = label_space(TemporalDimension.DURATION).labels
    assert labels[int(np.argmax(p))] == "hour"


def test_predict_batches_match_one_item_calls(monkeypatch):
    # 2 * batch_size + 1 queries over three dimensions: three chunks, the
    # last of one query, rows of different lengths padded within a chunk,
    # and one event longer than max_len, which build_sequence truncates.
    vocab = _training_vocab()
    cfg = TrainConfig(d_model=16, n_layers=2, n_heads=2, ff_dim=32,
                      max_len=16, batch_size=4, seed=0)
    # Scaled-up weights, so the distributions are far from uniform.
    params = {k: 25.0 * v for k, v in init_params(cfg, len(vocab)).items()}
    dims = [TemporalDimension.DURATION, TemporalDimension.TYPICAL_WEEK,
            TemporalDimension.HIERARCHY]
    events = [(("they", "napped"), 1), (("they", "toured", "far"), 1), (("jogged",), 0),
              (("they", "often", "jogged", "at", "dawn"), 2)]
    queries = [(*events[i % 4], dims[i % 3]) for i in range(2 * cfg.batch_size)]
    queries.append((("they",) * 12 + ("napped",) + ("they",) * 12, 12,
                    TemporalDimension.DURATION))

    batches = []

    def counting_forward(p, ids, c, **kwargs):
        batches.append(len(ids))
        return forward(p, ids, c, **kwargs)

    monkeypatch.setattr(model_module, "forward", counting_forward)
    got = predict_value_distribution(params, cfg, vocab, queries)
    assert batches == [4, 4, 1]

    assert len(got) == len(queries)
    for query, dist in zip(queries, got):
        (alone,) = predict_value_distribution(params, cfg, vocab, [query])
        assert dist.shape == (len(label_space(query[2])),)
        np.testing.assert_allclose(dist, alone, rtol=0, atol=1e-12)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert max(float(d.max()) for d in got) > 0.5
    # Reversing the queries reverses the answers.
    backwards = predict_value_distribution(params, cfg, vocab, queries[::-1])
    for dist, back in zip(got, backwards[::-1]):
        np.testing.assert_allclose(dist, back, rtol=0, atol=1e-12)
    assert predict_value_distribution(params, cfg, vocab, []) == []


# ---------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip(tmp_path):
    vocab = _training_vocab()
    cfg = TrainConfig(d_model=16, n_layers=2, n_heads=2, ff_dim=32,
                      max_len=16, seed=0)
    params = init_params(cfg, len(vocab))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, params, cfg, vocab, header_lines=["written by tests"])
    loaded, loaded_cfg, vocab_sha256 = load_checkpoint(path)
    assert vocab_sha256 == vocab.sha256()
    with open(path, "rb") as f:
        blob = f.read()
    assert blob[4:6] == b"\x03\x00"
    assert blob[10:].startswith(
        f"# written by tests\n# config d_model=16 n_layers=2 n_heads=2 ff_dim=32 max_len=16 "
        f"learning_rate=0.001 batch_size=32 epochs=5 seed=0 targets=soft sigma_log=4.0 "
        f"sigma_circular=0.5 vocab_size={len(vocab)} vocab_sha256={vocab.sha256()}\n".encode())
    assert sorted(loaded) == sorted(params)
    for k in params:
        assert loaded[k].shape == params[k].shape
        assert loaded[k].dtype == np.float32 and loaded[k].flags.writeable
        # float32 storage: round trip agrees to single precision
        assert np.allclose(loaded[k], params[k], atol=1e-6)
    assert loaded_cfg == cfg


def test_checkpoint_predictions_survive_round_trip(tmp_path):
    vocab = _training_vocab()
    records = _training_records(vocab, n=30)
    cfg = TrainConfig(d_model=16, n_layers=1, n_heads=2, ff_dim=32,
                      max_len=16, batch_size=8, epochs=2, seed=3)
    params, _ = train(records, cfg, vocab)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, params, cfg, vocab)
    loaded, loaded_cfg, _ = load_checkpoint(path)
    query = [(("they", "napped"), 1, TemporalDimension.DURATION)]
    (a,) = predict_value_distribution(params, cfg, vocab, query)
    (b,) = predict_value_distribution(loaded, loaded_cfg, vocab, query)
    assert np.allclose(a, b, atol=1e-4)


def test_the_validated_model_is_the_loaded_model(tmp_path, monkeypatch):
    vocab = _training_vocab()
    records = _training_records(vocab)
    cfg = TrainConfig(d_model=16, n_layers=2, n_heads=2, ff_dim=32,
                      max_len=16, batch_size=8, epochs=2, seed=3)
    val_records = records[40:]
    scored = []

    def spying_val_logits(p, c, v, items):
        blocks = val_logits(p, c, v, items)
        scored.append(blocks)
        return blocks

    val_logits = model_module._val_logits
    monkeypatch.setattr(model_module, "_val_logits", spying_val_logits)
    params, _ = train(records[:40], cfg, vocab, val_records=val_records)
    monkeypatch.undo()
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, params, cfg, vocab)
    loaded, loaded_cfg, _ = load_checkpoint(path)
    assert sorted(loaded) == sorted(params)
    for key in params:
        assert np.array_equal(loaded[key], params[key]), key
    items = [(r.input_ids, r.val_position, r.dimension) for r in val_records]
    reloaded = model_module._val_logits(loaded, loaded_cfg, vocab, items)
    assert len(reloaded) == len(scored[-1]) == len(val_records)
    for got, want in zip(reloaded, scored[-1]):
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)


def test_loaded_checkpoint_scores_in_float32_and_softmaxes_in_float64(tmp_path):
    vocab = _training_vocab()
    cfg = TrainConfig(d_model=16, n_layers=2, n_heads=2, ff_dim=32,
                      max_len=16, batch_size=4, seed=0)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, {k: 25.0 * v for k, v in init_params(cfg, len(vocab)).items()}, cfg,
                    vocab)
    params, cfg, _ = load_checkpoint(path)
    ids = np.array([[4, 5, 6, 0], [5, 4, 6, 7]], dtype=np.int64)
    assert forward(params, ids, cfg).dtype == np.float32
    assert forward(params, ids, cfg, slots=([0, 1], [2, 3])).dtype == np.float32

    events = [(("they", "napped"), 1), (("they", "toured", "far"), 1), (("jogged",), 0)]
    dims = [TemporalDimension.DURATION, TemporalDimension.FREQUENCY]
    queries = [(*events[i % 3], dims[i % 2]) for i in range(7)]
    items = []
    for tokens, verb_index, dimension in queries:
        tup = TemporalTuple(tuple(tokens), verb_index, dimension, label_space(dimension).labels[0])
        built = build_sequence(tup, vocab, max_length=cfg.max_len)
        items.append((built.ids, built.val_position, dimension))
    blocks = model_module._val_logits(params, cfg, vocab, items)
    assert [b.dtype for b in blocks] == [np.float32] * len(queries)

    dists = predict_value_distribution(params, cfg, vocab, queries)
    for block, dist in zip(blocks, dists):
        assert dist.dtype == np.float64
        # One softmax over a dimension's stacked blocks gives each row the
        # bits of a softmax over its block alone.
        assert np.array_equal(dist, model_module._softmax(block.astype(np.float64)))
        assert abs(dist.sum() - 1.0) <= 1e-12
        e = np.exp(block - block.max())
        np.testing.assert_allclose(dist, e / e.sum(), rtol=0, atol=1e-6)


def test_val_logits_chunks_take_items_in_length_order(monkeypatch):
    # Short and long queries alternate; each chunk of two pads only to
    # its own longest row, and the blocks come back in query order.
    vocab = _training_vocab()
    cfg = TrainConfig(d_model=16, n_layers=2, n_heads=2, ff_dim=32,
                      max_len=16, batch_size=2, seed=0)
    params = {k: 25.0 * v for k, v in init_params(cfg, len(vocab)).items()}
    short, long = (("jogged",), 0), (("they", "often", "jogged", "at", "dawn"), 2)
    queries = [(*(short if i % 2 == 0 else long), TemporalDimension.DURATION) for i in range(4)]
    widths = []

    def recording_forward(p, ids, c, **kwargs):
        widths.append(ids.shape)
        return forward(p, ids, c, **kwargs)

    monkeypatch.setattr(model_module, "forward", recording_forward)
    got = predict_value_distribution(params, cfg, vocab, queries)
    s_len, l_len = (len(build_sequence(TemporalTuple(*q, "second"), vocab).ids)
                    for q in queries[:2])
    assert widths == [(2, s_len), (2, l_len)]
    for query, dist in zip(queries, got):
        (alone,) = predict_value_distribution(params, cfg, vocab, [query])
        np.testing.assert_allclose(dist, alone, rtol=0, atol=1e-12)
    assert not np.allclose(got[0], got[1])


def test_checkpoint_magic_and_bad_file(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"JUNK" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("change", ["truncate", "extend"])
def test_checkpoint_length_must_match_manifest(tmp_path, change):
    vocab = _training_vocab()
    cfg = TrainConfig(d_model=8, n_layers=1, n_heads=1, ff_dim=16, max_len=16)
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), init_params(cfg, len(vocab)), cfg, vocab)
    blob = path.read_bytes()
    path.write_bytes(blob[:-6] if change == "truncate" else blob + b"\x00" * 4)
    with pytest.raises(SchemaError, match=r"m\.ckpt: .* config line calls for"):
        load_checkpoint(str(path))


def test_checkpoint_cut_inside_header_names_file(tmp_path):
    vocab = _training_vocab()
    cfg = TrainConfig(d_model=8, n_layers=1, n_heads=1, ff_dim=16, max_len=16)
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), init_params(cfg, len(vocab)), cfg, vocab)
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(SchemaError, match=r"m\.ckpt: "):
        load_checkpoint(str(path))


# The file states no shapes, so params that are not the model of their
# config and vocabulary cannot be written.
@pytest.mark.parametrize("edit, message", [
    (lambda p: p.update({"layer1.Wq": np.zeros((8, 8))}),
     r"param layer1\.Wq is \(8, 8\), but .* call for no such param"),
    (lambda p: p.update(out_bias=np.zeros(3)),
     r"param out_bias is \(3,\), but .* call for \(\d+,\)"),
    (lambda p: p.pop("tok_emb"), r"param tok_emb is absent, but .* call for \(\d+, 8\)"),
], ids=["extra-layer", "out_bias-size", "no-tok_emb"])
def test_save_checkpoint_params_must_match_config(tmp_path, edit, message):
    vocab = _training_vocab()
    cfg = TrainConfig(d_model=8, n_layers=1, n_heads=1, ff_dim=16, max_len=16)
    params = init_params(cfg, len(vocab))
    edit(params)
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match=message):
        save_checkpoint(str(path), params, cfg, vocab)
    assert not path.exists()


def test_checkpoint_starts_with_magic(tmp_path):
    vocab = _training_vocab()
    cfg = TrainConfig(d_model=8, n_layers=1, n_heads=1, ff_dim=16, max_len=16)
    params = init_params(cfg, len(vocab))
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, params, cfg, vocab)
    with open(path, "rb") as f:
        assert f.read(4) == b"TMCK"


# ---------------------------------------------------------------- batch

def test_assemble_batch_scatters_soft_onto_val_block():
    # With the soft table each [Val] row is soft_target's; with the hard one, every row is one-hot.
    vocab = _training_vocab()
    cases = [(TemporalDimension.DURATION, "hour"), (TemporalDimension.TYPICAL_MONTH, "May"),
             (TemporalDimension.HIERARCHY, "after")]
    recs = []
    for i, (dim, value) in enumerate(cases):
        built = build_sequence(TemporalTuple(("they", "napped"), 1, dim, value), vocab)
        recs.append(apply_masking(built, MaskingConfig(p_mask=1.0, p_dim=1.0), vocab,
                                  stream_rng(0, "masking", i), weight=2.0))
    soft = assemble_batch(recs, vocab, val_targets("soft", 8.0, 1.0))
    hard = assemble_batch(recs, vocab, val_targets("hard", 8.0, 1.0))
    assert soft.ids.shape == (3, len(recs[0].input_ids))
    assert soft.weights.tolist() == hard.weights.tolist() == [2.0] * 6
    assert soft.slot_cols.tolist() == hard.slot_cols.tolist()
    slot = 0
    for rec, (dim, value) in zip(recs, cases):
        for t in rec.targets:
            one_hot = np.zeros(len(vocab))
            one_hot[t.token_id] = 1.0
            assert np.array_equal(hard.targets[slot], one_hot)
            expected = one_hot
            if t.position == rec.val_position:
                start, labels = vocab.val_block(dim)
                expected = np.zeros(len(vocab))
                expected[start:start + len(labels)] = soft_target(
                    dim, value, sigma_log=8.0, sigma_circular=1.0)
            assert np.array_equal(soft.targets[slot], expected)
            slot += 1
    assert slot == 6


def test_train_builds_each_soft_row_once_per_call(monkeypatch):
    vocab = _training_vocab()
    records = _training_records(vocab, n=30)
    cfg = TrainConfig(d_model=8, n_layers=1, n_heads=1, ff_dim=16, max_len=16,
                      batch_size=8, epochs=2, seed=1)
    calls = []

    def counting_soft_target(dimension, label, **kwargs):
        calls.append((dimension, label, kwargs))
        return soft_target(dimension, label, **kwargs)

    monkeypatch.setattr(sequences_module, "soft_target", counting_soft_target)
    train(records, cfg, vocab, val_records=records[:6])
    # One table per call: one row for each of the 62 [Val] labels, in [Val] id order.
    val_tokens = vocab.id_to_token[-62:]
    assert [sequences_module.val_token(d, label) for d, label, _ in calls] == list(val_tokens)
    assert all(kw == {"sigma_log": 4.0, "sigma_circular": 0.5} for _, _, kw in calls)
    train(records, cfg, vocab)
    assert len(calls) == 2 * 62
    train(records, dataclasses.replace(cfg, targets="hard"), vocab)
    assert len(calls) == 2 * 62


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
    batch = assemble_batch(recs, vocab, val_targets("hard", 4.0, 0.5))
    assert batch.ids.shape[1] == len(recs[1].input_ids)
    pad_region = batch.ids[0, len(recs[0].input_ids):]
    assert np.all(pad_region == 0)


def test_assemble_batch_rejects_empty():
    vocab = _training_vocab()
    with pytest.raises(ValueError):
        assemble_batch([], vocab, val_targets("hard", 4.0, 0.5))
