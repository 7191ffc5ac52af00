"""A small masked-token transformer encoder in plain numpy.

Architecture: token + position embeddings, L post-norm blocks
(x = LN(x + Attn(x)); x = LN(x + FF(x))), logits through the transposed
token embedding plus a vocabulary bias. The feed-forward activation is
the GELU in BERT's tanh form (``_gelu``), 0.5 * h * (1 + t) with
t = tanh(sqrt(2/pi) * (h + 0.044715 * h**3)). Its 0.5 * (1 + t) is
within 1.8e-4 of the normal CDF Phi(h), and the backward takes the slope
from the cached t alone. The GELU is smooth, so central finite
differences at step 1e-4 validate the analytic gradients tightly, which
a kinked ReLU would not allow.

Everything is written out explicitly: forward caches, reverse-mode
gradients, the adaptive-moment update. No autograd, no framework. A
training step runs the last block's attention queries, the rest of that
block and the output head only at the supervised slots (see
``_encode``); scoring does the same at the slots it reads
(``forward(..., slots=...)``).

A forward and its backward compute in the parameters' dtype. ``train``
casts its seeded initial draws to float32 once and keeps the Adam
moments in float32, so training, its validation pass, the checkpoint
and a loaded model all hold one set of float32 parameters: scoring a
loaded model gives the validation pass's bits. The gradient check draws
its own float64 parameters and runs in float64. The loss and each
[Val] softmax sum in float64.

The kernels run their elementwise steps in place, on arrays they
allocated themselves (never on ``params``, ids, a ``Batch`` or logits
handed in): one numpy step per rounding step of the plain expression,
in its order, so every output keeps the plain expression's bits. Sums
keep numpy's own (pairwise) order. The attention softmax takes each row's
max by columns for rows of up to 32 keys, when there are enough rows
(``_row_max``); a max is exact in any order.
"""

import dataclasses
import math
import struct
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from .label_space import TemporalDimension, dimension_reports, label_space
from .extraction import TemporalTuple
from .seeding import stream_rng
from .srl_ingest import SchemaError
from .sequences import (
    MASK_ID,
    PAD_ID,
    MAX_SEQUENCE_LENGTH,
    MIN_SEQUENCE_LENGTH,
    TrainingRecord,
    Vocabulary,
    build_sequence,
    val_targets,
)
from .targets import DEFAULT_SIGMA_CIRCULAR, DEFAULT_SIGMA_LOG

__all__ = [
    "TrainConfig",
    "DivergenceError",
    "init_params",
    "forward",
    "soft_ce_loss",
    "assemble_batch",
    "loss_and_gradients",
    "adam_step",
    "train",
    "LogRow",
    "predict_value_distribution",
    "gradient_check",
    "GradCheckResult",
    "save_checkpoint",
    "load_checkpoint",
    "DIVERGENCE_THRESHOLD",
]

DIVERGENCE_THRESHOLD = 1e3
_LN_EPS = 1e-5
_ATTN_NEG = -1e9
# The tanh form of the GELU: tanh's scale and the cubic term's weight.
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715
# Rows of at most this many keys take their max by columns (``_row_max``).
_COLUMN_MAX_KEYS = 32
# Adam's moment decay rates and denominator floor (the usual defaults).
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
Query = tuple[Sequence[str], int, TemporalDimension]  # (event tokens, verb index, dimension)


class DivergenceError(RuntimeError):
    """Raised when the training loss explodes past the abort threshold."""


@dataclass(frozen=True)
class TrainConfig:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    ff_dim: int = 128
    max_len: int = MAX_SEQUENCE_LENGTH
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 5
    seed: int = 0
    # The [Val] slot's target: "soft" spreads it over the dimension's
    # labels with the sigmas below, "hard" is one-hot like every other slot.
    targets: str = "soft"
    sigma_log: float = DEFAULT_SIGMA_LOG
    sigma_circular: float = DEFAULT_SIGMA_CIRCULAR

    def __post_init__(self) -> None:
        for name in ("d_model", "n_layers", "n_heads", "ff_dim", "max_len",
                     "batch_size", "epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("sigma_log", "sigma_circular", "learning_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.targets not in ("soft", "hard"):
            raise ValueError(f"targets must be 'soft' or 'hard', got {self.targets!r}")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.max_len < MIN_SEQUENCE_LENGTH:
            raise ValueError(f"--max-len must be at least {MIN_SEQUENCE_LENGTH} to hold [Vrb], one "
                             f"event word and [SEP] [Vrb] [Dim] [Val], got {self.max_len}")


def _param_shapes(cfg: TrainConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in the order init_params draws them."""
    D, F = cfg.d_model, cfg.ff_dim
    shapes = {"tok_emb": (vocab_size, D), "pos_emb": (cfg.max_len, D), "out_bias": (vocab_size,)}
    for l in range(cfg.n_layers):
        p = f"layer{l}."
        for name in ("Wq", "Wk", "Wv", "Wo"):
            shapes[p + name] = (D, D)
            shapes[p + name.replace("W", "b")] = (D,)
        shapes.update({
            p + "ln1_g": (D,), p + "ln1_b": (D,),
            p + "W1": (D, F), p + "b1": (F,), p + "W2": (F, D), p + "b2": (D,),
            p + "ln2_g": (D,), p + "ln2_b": (D,),
        })
    return shapes


def init_params(cfg: TrainConfig, vocab_size: int) -> dict[str, np.ndarray]:
    """Seeded parameter tensors: matrices drawn N(0, 0.02^2) in
    ``_param_shapes`` order, layer-norm gains one, other vectors zero."""
    rng = stream_rng(cfg.seed, "init")
    params: dict[str, np.ndarray] = {}
    for key, shape in _param_shapes(cfg, vocab_size).items():
        if len(shape) == 2:
            params[key] = rng.normal(0.0, 0.02, size=shape)
        else:
            params[key] = np.ones(shape) if key.endswith("_g") else np.zeros(shape)
    return params


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)``, with the same result bits.

    numpy reduces a short last axis row by row, slowly. One ``maximum``
    per key column is faster for up to 32 keys when there are at least 32
    rows per key; with 64 keys, or with few rows, it is slower (timings in
    docs/training.md).
    """
    T = x.shape[-1]
    if T > _COLUMN_MAX_KEYS or x.size < _COLUMN_MAX_KEYS * T * T:
        return x.max(axis=-1, keepdims=True)
    m = x[..., :1].copy()
    for j in range(1, T):
        np.maximum(m, x[..., j : j + 1], out=m)
    return m


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place: overwrites ``x`` and returns it."""
    x -= _row_max(x)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    # Means as sum / D: bitwise what ``.mean`` gives, without its Python
    # wrapper, which every forward would pay 8 times. xhat is formed in
    # the centred array and the output in the squares' array.
    D = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / D
    y = xhat * xhat
    inv = 1.0 / np.sqrt(y.sum(axis=-1, keepdims=True) / D + _LN_EPS)
    xhat *= inv
    np.multiply(g, xhat, out=y)
    y += b
    return y, (xhat, inv, g)


def _layer_norm_backward(dy: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, inv, g = cache
    t = dy * xhat
    dg = t.sum(axis=0)
    db = dy.sum(axis=0)
    dx = dy * g
    D = dx.shape[-1]
    mean1 = dx.sum(axis=-1, keepdims=True) / D
    mean2 = np.multiply(dx, xhat, out=t).sum(axis=-1, keepdims=True) / D
    # inv * (dxhat - mean1 - xhat * mean2), one rounding step at a time
    dx -= mean1
    dx -= np.multiply(xhat, mean2, out=t)
    dx *= inv
    return dx, dg, db


def _scatter_add(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, D) sums of ``rows`` grouped by ``index``; repeated indices add up.

    One ``bincount`` over (index, column) cells, in row order, as
    ``np.add.at`` would add them but without its per-element loop.
    ``bincount`` sums in float64; the sums come back in ``rows``' dtype.
    """
    D = rows.shape[1]
    cells = (index[:, None] * D + np.arange(D)).ravel()
    sums = np.bincount(cells, weights=rows.ravel(), minlength=n * D)
    return sums.astype(rows.dtype, copy=False).reshape(n, D)


def _attention(params, p: str, x: np.ndarray, key_bias: np.ndarray, scale: float, n_heads: int,
               positions: np.ndarray | None = None):
    """Multi-head self-attention context at every one of the (B*T, D) rows,
    or, given flat ``positions``, at those S rows only.

    Keys and values are projected at every row either way. With
    positions, each selected row's query attends to its own batch row's
    keys, so row s equals the full context's row ``positions[s]``.
    """
    B, T = key_bias.shape[0], key_bias.shape[-1]
    D = x.shape[1]

    def heads(t: np.ndarray) -> np.ndarray:
        return t.reshape(B, T, n_heads, D // n_heads).transpose(0, 2, 1, 3)

    def project(t: np.ndarray, name: str) -> np.ndarray:
        out = t @ params[p + "W" + name]
        out += params[p + "b" + name]
        return out

    kh, vh = heads(project(x, "k")), heads(project(x, "v"))
    if positions is None:
        xq, qh = x, heads(project(x, "q"))
    else:
        rows = positions // T
        xq = x[positions]
        qh = project(xq, "q").reshape(len(xq), n_heads, 1, D // n_heads)
        kh, vh, key_bias = kh[rows], vh[rows], key_bias[rows]
    scores = qh @ kh.transpose(0, 1, 3, 2)
    scores *= scale
    scores += key_bias
    attn = _softmax(scores)
    ctx = (attn @ vh).transpose(0, 2, 1, 3).reshape(len(xq), D)
    return ctx, (x, xq, positions, qh, kh, vh, attn, scale)


def _attention_backward(params, p: str, dctx: np.ndarray, cache, grads) -> np.ndarray:
    """Gradients of the Q/K/V projections; returns the gradient of x at
    every row."""
    x, xq, positions, qh, kh, vh, attn, scale = cache
    G, H, Tq, dh = qh.shape  # G: batch rows, or selected rows with Tq = 1
    N, D = x.shape
    dctxh = dctx.reshape(G, Tq, H, dh).transpose(0, 2, 1, 3)
    dattn = dctxh @ vh.transpose(0, 1, 3, 2)
    dvh = attn.transpose(0, 1, 3, 2) @ dctxh
    # dscores = attn * (dattn - sum(dattn * attn)), formed in dattn
    dscores = dattn
    dscores -= (dattn * attn).sum(axis=-1, keepdims=True)
    dscores *= attn
    dqh = dscores @ kh
    dqh *= scale
    dkh = dscores.transpose(0, 1, 3, 2) @ qh
    dkh *= scale
    if positions is not None:
        # Sum each selected row's key and value gradients into its batch row.
        T = kh.shape[2]
        dkh, dvh = (_scatter_add(positions // T, d.reshape(G, -1), N // T).reshape(-1, H, T, dh)
                    for d in (dkh, dvh))
    dq, dk, dv = (d.transpose(0, 2, 1, 3).reshape(-1, D) for d in (dqh, dkh, dvh))
    for name, inp, dproj in (("q", xq, dq), ("k", x, dk), ("v", x, dv)):
        grads[p + "W" + name] = inp.T @ dproj
        grads[p + "b" + name] = dproj.sum(axis=0)
    dx = dq @ params[p + "Wq"].T
    if positions is not None:
        dx = _scatter_add(positions, dx, N)
    dx += dk @ params[p + "Wk"].T
    dx += dv @ params[p + "Wv"].T
    return dx


def _gelu(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(GELU(h), t) elementwise, in ``h``'s dtype, in BERT's tanh form:
    t = tanh(sqrt(2/pi) * (h + 0.044715 * h**3)), GELU(h) = 0.5 * h * (1 + t).

    0.5 * (1 + t) stands for the normal CDF Phi(h); the backward reuses t.
    """
    t = h * h
    t *= h
    t *= _GELU_CUBIC
    t += h
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    g = t + 1.0
    g *= h
    g *= 0.5
    return g, t


def _block_tail(params, p: str, x: np.ndarray, ctx: np.ndarray):
    """Row-wise rest of a block: output projection, LN1, FF with GELU, LN2."""
    r = ctx @ params[p + "Wo"]  # x + ctx @ Wo + bo
    r += x
    r += params[p + "bo"]
    x1, ln1_cache = _layer_norm(r, params[p + "ln1_g"], params[p + "ln1_b"])
    h = x1 @ params[p + "W1"]
    h += params[p + "b1"]
    g, t = _gelu(h)
    r = g @ params[p + "W2"]  # x1 + g @ W2 + b2
    r += x1
    r += params[p + "b2"]
    out, ln2_cache = _layer_norm(r, params[p + "ln2_g"], params[p + "ln2_b"])
    return out, (ctx, ln1_cache, x1, h, t, g, ln2_cache)


def _block_tail_backward(params, p: str, dy: np.ndarray, cache, grads):
    """Gradients of the tail's parameters; returns (d block input, d context)."""
    ctx, ln1_cache, x1, h, t, g, ln2_cache = cache
    dr2, grads[p + "ln2_g"], grads[p + "ln2_b"] = _layer_norm_backward(dy, ln2_cache)
    grads[p + "W2"] = g.T @ dr2
    grads[p + "b2"] = dr2.sum(axis=0)
    # The GELU's slope from t alone, 0.5 * (1 + t) + 0.5 * h * (1 - t*t) * sqrt(2/pi)
    # * (1 + 3 * 0.044715 * h*h), taken as 0.5 * (that second product + t + 1).
    slope = h * h
    slope *= 3.0 * _GELU_CUBIC
    slope += 1.0
    slope *= _SQRT_2_OVER_PI
    slope *= h
    sech2 = t * t
    np.subtract(1.0, sech2, out=sech2)
    slope *= sech2
    slope += t
    slope += 1.0
    slope *= 0.5
    dh = dr2 @ params[p + "W2"].T
    dh *= slope
    grads[p + "W1"] = x1.T @ dh
    grads[p + "b1"] = dh.sum(axis=0)
    dr1 = dh @ params[p + "W1"].T  # dr2 + dh @ W1.T
    dr1 += dr2
    dr1, grads[p + "ln1_g"], grads[p + "ln1_b"] = _layer_norm_backward(dr1, ln1_cache)
    grads[p + "Wo"] = ctx.T @ dr1
    grads[p + "bo"] = dr1.sum(axis=0)
    return dr1, dr1 @ params[p + "Wo"].T


def _encode(
    params: Mapping[str, np.ndarray],
    ids: np.ndarray,
    cfg: TrainConfig,
    positions: np.ndarray | None = None,
):
    """Logits at the flat positions ``row * T + col`` plus backward's caches.

    Blocks before the last run at every position. The last block's
    attention projects keys and values at every position but queries
    only at the selected rows, and nothing after it mixes positions, so
    its tail and the tied head run on the selected rows only, with the
    same result there as at every position. ``positions=None`` selects
    every position in order.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError("ids must be a (batch, length) array")
    B, T = ids.shape
    V = params["tok_emb"].shape[0]
    if T > cfg.max_len:
        raise ValueError(f"sequence length {T} exceeds maximum {cfg.max_len}")
    if ids.min() < 0 or ids.max() >= V:
        raise ValueError("token id outside vocabulary")

    # The forward runs in the parameters' dtype: float32 in training and
    # scoring, float64 in the gradient check. The bias is built in that
    # dtype and the scale is a Python float, because a float64 array or
    # numpy scalar would promote float32 work to float64.
    x = params["tok_emb"][ids]
    x += params["pos_emb"][:T]
    x = x.reshape(B * T, cfg.d_model)
    key_bias = np.where(ids == PAD_ID, _ATTN_NEG, 0.0).astype(x.dtype, copy=False)
    key_bias = key_bias[:, None, None, :]
    scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)

    caches = []
    for l in range(cfg.n_layers):
        p = f"layer{l}."
        selected = positions if l == cfg.n_layers - 1 else None
        ctx, attn_cache = _attention(params, p, x, key_bias, scale, cfg.n_heads, selected)
        if selected is not None:
            x = x[selected]
        x, tail_cache = _block_tail(params, p, x, ctx)
        caches.append((attn_cache, tail_cache))

    logits = x @ params["tok_emb"].T
    logits += params["out_bias"]
    return logits, (ids, x, caches)


def _slot_positions(shape: tuple[int, ...], rows, cols) -> np.ndarray:
    """Flat positions ``row * T + col`` of slots in a (B, T) batch.

    A slot outside the batch raises ValueError: its flat position would
    silently alias a neighbouring row's slot.
    """
    B, T = shape
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ValueError("slot rows and columns must be 1-D and aligned")
    if ((rows < 0) | (rows >= B) | (cols < 0) | (cols >= T)).any():
        raise ValueError("slot position outside the batch")
    return rows * T + cols


def forward(
    params: Mapping[str, np.ndarray],
    ids: np.ndarray,
    cfg: TrainConfig,
    slots: tuple[Sequence[int], Sequence[int]] | None = None,
) -> np.ndarray:
    """(B, T, V) logits at every position, or (S, V) at ``slots=(rows, cols)``.

    With slots, the last block's attention queries, its tail and the head
    run only at those rows (see ``_encode``); row s equals
    ``forward(...)[rows[s], cols[s]]``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if slots is not None:
        logits, _ = _encode(params, ids, cfg, _slot_positions(ids.shape, *slots))
        return logits
    logits, _ = _encode(params, ids, cfg)
    return logits.reshape(*ids.shape, -1)


def soft_ce_loss(
    logits: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
) -> float:
    """Weighted mean cross-entropy against (soft or one-hot) targets.

    logits and targets are (slots, vocab); weights (slots,). Each target
    row must be a distribution.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if logits.shape != targets.shape:
        raise ValueError("logits and targets must share a shape")
    sums = targets.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValueError("every target row must sum to 1")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be non-negative with positive total")
    logz = logits.max(axis=-1, keepdims=True)
    logp = logits - logz - np.log(np.exp(logits - logz).sum(axis=-1, keepdims=True))
    ce = -(targets * logp).sum(axis=-1)
    return float((weights * ce).sum() / weights.sum())


@dataclass(frozen=True)
class Batch:
    """Padded id matrix plus flat slot-level supervision."""

    ids: np.ndarray            # (B, T) int64
    slot_rows: np.ndarray      # (S,) record row of each supervised slot
    slot_cols: np.ndarray      # (S,) position of each supervised slot
    targets: np.ndarray        # (S, V) distributions over the vocabulary
    weights: np.ndarray        # (S,) instance weights


def _pad_rows(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """(len(rows), longest row) int64 ids, each row followed by [PAD]s."""
    T = max(map(len, rows))
    return np.array([[*row, *[PAD_ID] * (T - len(row))] for row in rows], dtype=np.int64)


def assemble_batch(
    records: Sequence[TrainingRecord],
    vocab: Vocabulary,
    val_table: np.ndarray,
) -> Batch:
    """Pad records to a common length and scatter targets onto vocab ids.

    A slot's target is one-hot at its ``token_id``, except that a [Val]
    slot's target is the ``val_table`` row (see ``val_targets``) of its
    ``token_id`` across the [Val] ids, the vocabulary's last ones.
    """
    if not records:
        raise ValueError("cannot assemble an empty batch")
    slots = [(i, t.position, t.token_id, t.position == rec.val_position, rec.weight)
             for i, rec in enumerate(records) for t in rec.targets]
    if not slots:
        raise ValueError("batch has no supervised slots")
    rows, cols, token_ids, is_val, weights = zip(*slots)
    token_ids, is_val = np.array(token_ids), np.array(is_val)
    val_start = len(vocab) - len(val_table)
    targets = np.zeros((len(slots), len(vocab)))
    targets[np.arange(len(slots)), token_ids] = 1.0
    targets[is_val, val_start:] = val_table[token_ids[is_val] - val_start]
    return Batch(
        ids=_pad_rows([r.input_ids for r in records]),
        slot_rows=np.array(rows, dtype=np.int64),
        slot_cols=np.array(cols, dtype=np.int64),
        targets=targets,
        weights=np.array(weights, dtype=np.float64),
    )


def loss_and_gradients(
    params: Mapping[str, np.ndarray],
    batch: Batch,
    cfg: TrainConfig,
) -> tuple[float, dict[str, np.ndarray]]:
    """Exact reverse-mode gradients of the weighted soft cross-entropy.

    The last block works at the supervised slots only (see ``_encode``);
    the backward scatters back to every position in its attention.
    """
    B, T = batch.ids.shape
    positions = _slot_positions((B, T), batch.slot_rows, batch.slot_cols)
    logits, (ids, x, caches) = _encode(params, batch.ids, cfg, positions)
    loss = soft_ce_loss(logits, batch.targets, batch.weights)

    dlogits = _softmax(logits)  # weights * (softmax - targets) / sum(weights)
    dlogits -= batch.targets
    dlogits *= batch.weights[:, None]
    dlogits /= batch.weights.sum()
    grads: dict[str, np.ndarray] = {
        "out_bias": dlogits.sum(axis=0),
        "tok_emb": dlogits.T @ x,
    }
    dx = dlogits @ params["tok_emb"]
    for l in reversed(range(cfg.n_layers)):
        p = f"layer{l}."
        attn_cache, tail_cache = caches[l]
        dx, dctx = _block_tail_backward(params, p, dx, tail_cache, grads)
        if l == cfg.n_layers - 1:
            dx = _scatter_add(positions, dx, B * T)
        dx += _attention_backward(params, p, dctx, attn_cache, grads)

    grads["tok_emb"] += _scatter_add(ids.reshape(-1), dx, len(grads["tok_emb"]))
    grads["pos_emb"] = np.zeros_like(params["pos_emb"])
    grads["pos_emb"][:T] = dx.reshape(B, T, -1).sum(axis=0)
    return loss, grads


@dataclass
class AdamState:
    """First/second moment accumulators and the shared step counter.

    The moments are flat vectors over every parameter in sorted key
    order, in the parameters' dtype, so one update is a few whole-vector
    operations; ``work`` holds two more such vectors that every update
    reuses.
    """

    m: np.ndarray
    v: np.ndarray
    work: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: Mapping[str, np.ndarray]) -> "AdamState":
        n = sum(p.size for p in params.values())
        dtype = next(iter(params.values())).dtype
        return cls(m=np.zeros(n, dtype), v=np.zeros(n, dtype), work=np.zeros((2, n), dtype))


def adam_step(
    params: dict[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> None:
    """One bias-corrected adaptive-moment update, in place.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2
    p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    """
    state.step += 1
    t = state.step
    keys = sorted(params)
    m, v = state.m, state.v
    g, tmp = state.work
    np.concatenate([grads[k].ravel() for k in keys], out=g)
    m *= _ADAM_BETA1
    m += np.multiply(g, 1.0 - _ADAM_BETA1, out=tmp)
    g *= g
    v *= _ADAM_BETA2
    v += np.multiply(g, 1.0 - _ADAM_BETA2, out=tmp)
    denom = np.divide(v, 1.0 - _ADAM_BETA2 ** t, out=tmp)
    np.sqrt(denom, out=denom)
    denom += _ADAM_EPS
    update = np.divide(m, 1.0 - _ADAM_BETA1 ** t, out=g)
    update *= cfg.learning_rate
    update /= denom
    start = 0
    for key in keys:
        p = params[key]
        p -= update[start : start + p.size].reshape(p.shape)
        start += p.size


@dataclass(frozen=True)
class LogRow:
    epoch: int
    split: str
    loss: float
    mean_distance: float | None

    def as_csv(self) -> str:
        dist = "" if self.mean_distance is None else repr(float(self.mean_distance))
        return f"{self.epoch},{self.split},{float(self.loss)!r},{dist}"


def _val_logits(
    params: Mapping[str, np.ndarray],
    cfg: TrainConfig,
    vocab: Vocabulary,
    items: Sequence[tuple[Sequence[int], int, TemporalDimension]],
) -> list[np.ndarray]:
    """Each (ids, [Val] position, dimension) item's [Val]-block logits with
    that slot masked, in item order. Items are scored in chunks of
    ``cfg.batch_size`` taken in order of length, so a chunk pads to about
    its own length rather than to the longest item among its neighbours."""
    order = sorted(range(len(items)), key=lambda i: len(items[i][0]))
    blocks: dict[int, np.ndarray] = {}
    for i in range(0, len(order), cfg.batch_size):
        picked = order[i : i + cfg.batch_size]
        chunk = [items[j] for j in picked]
        ids = _pad_rows([(*row[:col], MASK_ID, *row[col + 1 :]) for row, col, _ in chunk])
        cols = [col for _, col, _ in chunk]
        logits = forward(params, ids, cfg, slots=(range(len(chunk)), cols))
        for j, row_logits, (_, _, dimension) in zip(picked, logits, chunk):
            start, labels = vocab.val_block(dimension)
            blocks[j] = row_logits[start : start + len(labels)]
    return [blocks[j] for j in range(len(items))]


def train(
    records: Sequence[TrainingRecord],
    cfg: TrainConfig,
    vocab: Vocabulary,
    val_records: Sequence[TrainingRecord] = (),
) -> tuple[dict[str, np.ndarray], list[LogRow]]:
    """Single-threaded deterministic training loop.

    Epoch order is drawn from a per-epoch shuffle stream keyed on the
    config seed; batches are consumed in that order. The log holds one
    train row per epoch and, when a validation set is given, one val row
    with the mean rank distance of masked-[Val] predictions. A record with
    no masked slot is left out of its batch's forward and backward, and
    the batch pads to its longest slotted record: attention stays within
    a record, so such a record adds no loss and no gradient. Leaving it
    out keeps the chunks and the step count, and the loss log and the
    checkpoint up to float rounding. Validation-loss batches do the
    same; the [Val] distances still score every validation record. A
    batch with no supervised slot (a short trailing batch can draw none)
    is skipped: no update and no share of the loss. ``cfg.targets`` picks
    the [Val] targets, from one ``val_targets`` table per call.
    """
    if not records:
        raise ValueError("training requires a non-empty dataset")
    if not any(r.targets for r in records):
        raise ValueError("no training record has a supervised slot")
    if val_records and not any(r.targets for r in val_records):
        raise ValueError("no validation record has a supervised slot")
    params = {k: p.astype(np.float32) for k, p in init_params(cfg, len(vocab)).items()}
    state = AdamState.for_params(params)
    log: list[LogRow] = []
    val_table = val_targets(cfg.targets, cfg.sigma_log, cfg.sigma_circular)

    for epoch in range(cfg.epochs):
        order = stream_rng(cfg.seed, "shuffle", epoch).permutation(len(records))
        total_wce = 0.0
        total_w = 0.0
        for i in range(0, len(order), cfg.batch_size):
            chunk = [records[j] for j in order[i : i + cfg.batch_size] if records[j].targets]
            if not chunk:
                continue  # nothing supervised: no step, no loss
            batch = assemble_batch(chunk, vocab, val_table)
            loss, grads = loss_and_gradients(params, batch, cfg)
            if not np.isfinite(loss) or loss > DIVERGENCE_THRESHOLD:
                raise DivergenceError(
                    f"loss {loss} at epoch {epoch} step {i // cfg.batch_size} "
                    f"passed the abort threshold {DIVERGENCE_THRESHOLD}"
                )
            adam_step(params, grads, state, cfg)
            w = batch.weights.sum()
            total_wce += loss * w
            total_w += w
        log.append(LogRow(epoch, "train", float(total_wce / total_w), None))

        if val_records:
            val_losses, val_weights = [], []
            for i in range(0, len(val_records), cfg.batch_size):
                chunk = [r for r in val_records[i : i + cfg.batch_size] if r.targets]
                if not chunk:
                    continue
                batch = assemble_batch(chunk, vocab, val_table)
                slot_logits = forward(params, batch.ids, cfg, slots=(batch.slot_rows, batch.slot_cols))
                val_losses.append(soft_ce_loss(slot_logits, batch.targets, batch.weights) * batch.weights.sum())
                val_weights.append(batch.weights.sum())
            blocks = _val_logits(params, cfg, vocab,
                                 [(r.input_ids, r.val_position, r.dimension) for r in val_records])
            reports = dimension_reports(
                blocks, [r.dimension for r in val_records],
                [r.val_token_id - vocab.val_block(r.dimension)[0] for r in val_records])
            # Rank distances are integers, so their mean is the same in any order.
            distances = [d for r in reports for d in r.distances]
            mean_d = float(np.mean(distances)) if distances else None
            log.append(LogRow(epoch, "val", float(sum(val_losses) / sum(val_weights)), mean_d))

    return params, log


def predict_value_distribution(
    params: Mapping[str, np.ndarray],
    cfg: TrainConfig,
    vocab: Vocabulary,
    queries: Sequence[Query],
) -> list[np.ndarray]:
    """Distribution over its dimension's labels for each (event tokens,
    verb index, dimension) query, in query order.

    Each query sequence carries a masked [Val] slot; ``_val_logits``
    scores them in chunks of ``cfg.batch_size``, in the parameters'
    dtype. Each dimension's [Val]-block logits are stacked into one
    float64 array and softmaxed row by row in one call, so every
    distribution sums to 1 to float64 precision.
    """
    items = []
    for tokens, verb_index, dimension in queries:
        tup = TemporalTuple(tuple(tokens), verb_index, dimension, label_space(dimension).labels[0])
        built = build_sequence(tup, vocab, max_length=cfg.max_len)
        items.append((built.ids, built.val_position, dimension))
    blocks = _val_logits(params, cfg, vocab, items)
    dists = [None] * len(items)
    for dimension in {d for _, _, d in items}:
        rows = [i for i, (_, _, d) in enumerate(items) if d is dimension]
        for i, dist in zip(rows, _softmax(np.array([blocks[i] for i in rows], dtype=np.float64))):
            dists[i] = dist
    return dists


@dataclass(frozen=True)
class GradCheckResult:
    key: str
    index: tuple[int, ...]
    analytic: float
    numeric: float
    rel_error: float


def gradient_check(
    seed: int = 0,
    coords_per_config: int = 40,
    configs: Sequence[TrainConfig] = (),
    step: float = 1e-4,
) -> list[GradCheckResult]:
    """Analytic vs central finite-difference gradients on random setups.

    For each small random config, a random batch is assembled and
    coords_per_config random parameter coordinates are probed. Relative
    error uses max(|analytic|, |numeric|, 1e-4) as denominator.
    """
    if not configs:
        configs = tuple(
            TrainConfig(
                d_model=8 * (i + 1), n_layers=2, n_heads=2, ff_dim=16 * (i + 1),
                # Seeds wrap at 2**64, so the top valid seeds still check.
                max_len=16, batch_size=2, epochs=1, seed=(seed + i) % 2**64,
            )
            for i in range(3)
        )
    results: list[GradCheckResult] = []
    for c_idx, cfg in enumerate(configs):
        rng = stream_rng(seed, "gradcheck", c_idx)
        V = 16 + 8 * len(label_space(TemporalDimension.DURATION))
        params = init_params(cfg, V)
        B, T = 2, 9
        ids = rng.integers(0, V, size=(B, T))
        ids[:, -1] = np.maximum(ids[:, -1], 1)  # keep a non-pad tail
        n_slots = 3
        rows = rng.integers(0, B, size=n_slots)
        cols = rng.integers(0, T, size=n_slots)
        raw = rng.random((n_slots, V))
        targets = raw / raw.sum(axis=1, keepdims=True)
        weights = 0.5 + rng.random(n_slots)
        batch = Batch(
            ids=ids,
            slot_rows=rows,
            slot_cols=cols,
            targets=targets,
            weights=weights,
        )
        _, grads = loss_and_gradients(params, batch, cfg)

        keys = sorted(params)
        for _ in range(coords_per_config):
            key = keys[int(rng.integers(0, len(keys)))]
            flat_idx = int(rng.integers(0, params[key].size))
            index = np.unravel_index(flat_idx, params[key].shape)
            original = params[key][index]
            params[key][index] = original + step
            loss_plus, _ = loss_and_gradients(params, batch, cfg)
            params[key][index] = original - step
            loss_minus, _ = loss_and_gradients(params, batch, cfg)
            params[key][index] = original
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            analytic = float(grads[key][index])
            denom = max(abs(analytic), abs(numeric), 1e-4)
            results.append(GradCheckResult(key, tuple(int(i) for i in index),
                                           analytic, numeric,
                                           abs(analytic - numeric) / denom))
    return results


_CKPT_MAGIC = b"TMCK"
_CKPT_VERSION = 3


def save_checkpoint(
    path: str,
    params: Mapping[str, np.ndarray],
    cfg: TrainConfig,
    vocab: Vocabulary,
    header_lines: Sequence[str] = (),
) -> None:
    """Versioned binary: a text header with the config echo and one
    ``config`` line, then row-major little-endian float32 blocks in sorted
    key order. The ``config`` line states every ``TrainConfig`` field and
    the vocabulary's size and ``Vocabulary.sha256``. It is all the file
    says of the blocks' shapes, so ``params`` that are not the model
    ``cfg`` and ``vocab`` describe raise ValueError."""
    shapes = _param_shapes(cfg, len(vocab))
    got = {key: np.shape(value) for key, value in params.items()}
    for key in sorted(got.keys() | shapes.keys()):
        if got.get(key) != shapes.get(key):
            raise ValueError(f"param {key} is {got.get(key, 'absent')}, but the config and "
                             f"vocabulary call for {shapes.get(key, 'no such param')}")
    config = [f"{f.name}={getattr(cfg, f.name)}" for f in dataclasses.fields(TrainConfig)]
    lines = [*header_lines, " ".join(["config", *config, f"vocab_size={len(vocab)}",
                                      f"vocab_sha256={vocab.sha256()}"])]
    header = "".join(f"# {line}\n" for line in lines).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<HI", _CKPT_VERSION, len(header)))
        fh.write(header)
        for key in sorted(shapes):
            fh.write(np.ascontiguousarray(params[key], dtype="<f4").tobytes())


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], TrainConfig, str]:
    """Parameters, as the stored float32 arrays, the config it was trained
    with, and the ``Vocabulary.sha256`` of the vocabulary the model was
    trained on. A file of another version, a ``config`` line that misses a
    field or holds a bad or unknown one, or a length that disagrees with
    the blocks that line calls for raises SchemaError naming the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    start = 4 + struct.calcsize("<HI")
    if blob[:4] != _CKPT_MAGIC or len(blob) < start:
        raise SchemaError(f"{path}: not a checkpoint file (bad magic)")
    version, header_len = struct.unpack_from("<HI", blob, 4)
    if version != _CKPT_VERSION:
        raise SchemaError(f"{path}: checkpoint version {version} is not the supported version "
                          f"{_CKPT_VERSION}; retrain the model with train")
    off = start + header_len

    fields: dict[str, str] = {}

    def value(key: str, kind: type):
        """The config value of ``key`` as a ``kind``; a bad one names its key."""
        try:
            return kind(fields.pop(key))
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None

    try:
        for line in blob[start:off].decode("utf-8").splitlines():
            body = line.lstrip("# ").strip()
            if body.startswith("config "):
                fields.update(pair.split("=", 1) for pair in body.split()[1:])
        vocab_sha256 = fields.pop("vocab_sha256")
        vocab_size = value("vocab_size", int)
        if vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        cfg = TrainConfig(**{f.name: value(f.name, f.type) for f in dataclasses.fields(TrainConfig)})
        if fields:
            raise ValueError(f"unknown config keys {sorted(fields)}")
    except KeyError as exc:
        raise SchemaError(f"{path}: bad checkpoint header: missing key {exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"{path}: bad checkpoint header: {exc}") from exc
    shapes = _param_shapes(cfg, vocab_size)
    expected = off + 4 * sum(math.prod(shape) for shape in shapes.values())
    if len(blob) != expected:
        raise SchemaError(f"{path}: {len(blob)} bytes, but its config line calls for {expected}")
    params: dict[str, np.ndarray] = {}
    for key in sorted(shapes):
        n = math.prod(shapes[key])
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=off).astype(np.float32)
        params[key] = arr.reshape(shapes[key])
        off += 4 * n
    return params, cfg, vocab_sha256
