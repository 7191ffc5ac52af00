"""A small masked-token transformer encoder in plain numpy (float64).

Architecture: token + position embeddings, L post-norm blocks
(x = LN(x + Attn(x)); x = LN(x + FF(x))), logits through the transposed
token embedding plus a vocabulary bias. The feed-forward activation is
the exact erf-based GELU: it is smooth, so central finite differences at
step 1e-4 validate the analytic gradients tightly, which a kinked ReLU
would not allow.

Everything is written out explicitly: forward caches, reverse-mode
gradients, the adaptive-moment update. No autograd, no framework. A
training step runs the last block past its attention, and the output
head, only at the supervised slots (see ``_encode``).
"""

import struct
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np
from scipy.special import ndtr

from .label_space import (
    TemporalDimension,
    Topology,
    circular_distance,
    label_space,
    linear_distance,
)
from .extraction import TemporalTuple
from .seeding import stream_rng
from .sequences import (
    MASK_ID,
    PAD_ID,
    MAX_SEQUENCE_LENGTH,
    TrainingRecord,
    Vocabulary,
    build_sequence,
)

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
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
    epochs: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        for name in ("d_model", "n_layers", "n_heads", "ff_dim", "max_len",
                     "batch_size", "epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def init_params(cfg: TrainConfig, vocab_size: int) -> dict[str, np.ndarray]:
    """Seeded parameter tensors; draw order is pinned by construction order."""
    rng = stream_rng(cfg.seed, "init")
    D, F = cfg.d_model, cfg.ff_dim

    def normal(*shape: int) -> np.ndarray:
        return rng.normal(0.0, 0.02, size=shape)

    params: dict[str, np.ndarray] = {
        "tok_emb": normal(vocab_size, D),
        "pos_emb": normal(cfg.max_len, D),
        "out_bias": np.zeros(vocab_size),
    }
    for l in range(cfg.n_layers):
        p = f"layer{l}."
        for name in ("Wq", "Wk", "Wv", "Wo"):
            params[p + name] = normal(D, D)
            params[p + name.replace("W", "b")] = np.zeros(D)
        params[p + "ln1_g"] = np.ones(D)
        params[p + "ln1_b"] = np.zeros(D)
        params[p + "W1"] = normal(D, F)
        params[p + "b1"] = np.zeros(F)
        params[p + "W2"] = normal(F, D)
        params[p + "b2"] = np.zeros(D)
        params[p + "ln2_g"] = np.ones(D)
        params[p + "ln2_b"] = np.zeros(D)
    return params


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + _LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def _layer_norm_backward(dy: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, inv, g = cache
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dxhat = dy * g
    mean1 = dxhat.mean(axis=-1, keepdims=True)
    mean2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - mean1 - xhat * mean2)
    return dx, dg, db


def _scatter_add(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, D) sums of ``rows`` grouped by ``index``; repeated indices add up.

    One ``bincount`` over (index, column) cells, in row order, as
    ``np.add.at`` would add them but without its per-element loop.
    """
    D = rows.shape[1]
    cells = (index[:, None] * D + np.arange(D)).ravel()
    return np.bincount(cells, weights=rows.ravel(), minlength=n * D).reshape(n, D)


def _attention(params, p: str, x: np.ndarray, key_bias: np.ndarray, scale: float, n_heads: int):
    """Multi-head self-attention context at every one of the (B*T, D) rows."""
    B, T = key_bias.shape[0], key_bias.shape[-1]
    N, D = x.shape

    def heads(t: np.ndarray) -> np.ndarray:
        return t.reshape(B, T, n_heads, D // n_heads).transpose(0, 2, 1, 3)

    qh, kh, vh = (heads(x @ params[p + w] + params[p + b])
                  for w, b in (("Wq", "bq"), ("Wk", "bk"), ("Wv", "bv")))
    attn = _softmax(qh @ kh.transpose(0, 1, 3, 2) * scale + key_bias)
    ctx = (attn @ vh).transpose(0, 2, 1, 3).reshape(N, D)
    return ctx, (x, qh, kh, vh, attn, scale)


def _attention_backward(params, p: str, dctx: np.ndarray, cache, grads) -> np.ndarray:
    """Gradients of the Q/K/V projections; returns the gradient of x."""
    x, qh, kh, vh, attn, scale = cache
    B, H, T, dh = qh.shape
    N, D = x.shape
    dctxh = dctx.reshape(B, T, H, dh).transpose(0, 2, 1, 3)
    dattn = dctxh @ vh.transpose(0, 1, 3, 2)
    dvh = attn.transpose(0, 1, 3, 2) @ dctxh
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dqh = dscores @ kh * scale
    dkh = dscores.transpose(0, 1, 3, 2) @ qh * scale
    dx = np.zeros_like(x)
    for name, dhead in (("q", dqh), ("k", dkh), ("v", dvh)):
        dproj = dhead.transpose(0, 2, 1, 3).reshape(N, D)
        grads[p + "W" + name] = x.T @ dproj
        grads[p + "b" + name] = dproj.sum(axis=0)
        dx += dproj @ params[p + "W" + name].T
    return dx


def _block_tail(params, p: str, x: np.ndarray, ctx: np.ndarray):
    """Row-wise rest of a block: output projection, LN1, FF with GELU, LN2."""
    x1, ln1_cache = _layer_norm(x + ctx @ params[p + "Wo"] + params[p + "bo"],
                                params[p + "ln1_g"], params[p + "ln1_b"])
    h = x1 @ params[p + "W1"] + params[p + "b1"]
    cdf = ndtr(h)  # standard normal CDF, 0.5 * (1 + erf(h / sqrt 2))
    g = h * cdf
    out, ln2_cache = _layer_norm(x1 + g @ params[p + "W2"] + params[p + "b2"],
                                 params[p + "ln2_g"], params[p + "ln2_b"])
    return out, (ctx, ln1_cache, x1, h, cdf, g, ln2_cache)


def _block_tail_backward(params, p: str, dy: np.ndarray, cache, grads):
    """Gradients of the tail's parameters; returns (d block input, d context)."""
    ctx, ln1_cache, x1, h, cdf, g, ln2_cache = cache
    dr2, grads[p + "ln2_g"], grads[p + "ln2_b"] = _layer_norm_backward(dy, ln2_cache)
    grads[p + "W2"] = g.T @ dr2
    grads[p + "b2"] = dr2.sum(axis=0)
    dh = (dr2 @ params[p + "W2"].T) * (cdf + h * np.exp(-0.5 * h * h) / np.sqrt(2.0 * np.pi))
    grads[p + "W1"] = x1.T @ dh
    grads[p + "b1"] = dh.sum(axis=0)
    dr1, grads[p + "ln1_g"], grads[p + "ln1_b"] = _layer_norm_backward(
        dr2 + dh @ params[p + "W1"].T, ln1_cache)
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

    Blocks before the last, and the last block's attention, run at every
    position. Nothing after that attention mixes positions, so the last
    block's tail and the tied head run on the selected rows only, with
    the same result there as at every position. ``positions=None``
    selects every position in order.
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

    x = (params["tok_emb"][ids] + params["pos_emb"][:T]).reshape(B * T, cfg.d_model)
    key_bias = np.where(ids == PAD_ID, _ATTN_NEG, 0.0)[:, None, None, :]
    scale = 1.0 / np.sqrt(cfg.d_model // cfg.n_heads)

    caches = []
    for l in range(cfg.n_layers):
        p = f"layer{l}."
        ctx, attn_cache = _attention(params, p, x, key_bias, scale, cfg.n_heads)
        if positions is not None and l == cfg.n_layers - 1:
            x, ctx = x[positions], ctx[positions]
        x, tail_cache = _block_tail(params, p, x, ctx)
        caches.append((attn_cache, tail_cache))

    logits = x @ params["tok_emb"].T + params["out_bias"]
    return logits, (ids, x, caches)


def forward(params: Mapping[str, np.ndarray], ids: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """(B, T, V) logits at every position."""
    logits, (ids, _, _) = _encode(params, ids, cfg)
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


def assemble_batch(records: Sequence[TrainingRecord], vocab: Vocabulary) -> Batch:
    """Pad records to a common length and scatter targets onto vocab ids."""
    if not records:
        raise ValueError("cannot assemble an empty batch")
    V = len(vocab)
    T = max(len(r.input_ids) for r in records)
    ids = np.full((len(records), T), PAD_ID, dtype=np.int64)
    rows, cols, tgt_rows, weights = [], [], [], []
    for i, rec in enumerate(records):
        ids[i, : len(rec.input_ids)] = rec.input_ids
        for t in rec.targets:
            row = np.zeros(V)
            if t.soft is not None:
                start, labels = vocab.val_block(rec.dimension)
                row[start : start + len(labels)] = t.soft
            else:
                row[t.token_id] = 1.0
            rows.append(i)
            cols.append(t.position)
            tgt_rows.append(row)
            weights.append(rec.weight)
    if not rows:
        raise ValueError("batch has no supervised slots")
    return Batch(
        ids=ids,
        slot_rows=np.array(rows, dtype=np.int64),
        slot_cols=np.array(cols, dtype=np.int64),
        targets=np.array(tgt_rows),
        weights=np.array(weights, dtype=np.float64),
    )


def loss_and_gradients(
    params: Mapping[str, np.ndarray],
    batch: Batch,
    cfg: TrainConfig,
) -> tuple[float, dict[str, np.ndarray]]:
    """Exact reverse-mode gradients of the weighted soft cross-entropy.

    The forward stops at the supervised slots (see ``_encode``); the
    backward scatters back to every position at the last attention.
    """
    B, T = batch.ids.shape
    rows = np.asarray(batch.slot_rows, dtype=np.int64)
    cols = np.asarray(batch.slot_cols, dtype=np.int64)
    # A flat position would silently alias a neighbouring row's slot.
    if np.any((rows < 0) | (rows >= B) | (cols < 0) | (cols >= T)):
        raise ValueError("slot position outside the batch")
    positions = rows * T + cols
    logits, (ids, x, caches) = _encode(params, batch.ids, cfg, positions)
    loss = soft_ce_loss(logits, batch.targets, batch.weights)

    w_sum = batch.weights.sum()
    dlogits = (batch.weights[:, None] * (_softmax(logits) - batch.targets)) / w_sum
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
            dx, dctx = _scatter_add(positions, dx, B * T), _scatter_add(positions, dctx, B * T)
        dx += _attention_backward(params, p, dctx, attn_cache, grads)

    grads["tok_emb"] += _scatter_add(ids.reshape(-1), dx, len(grads["tok_emb"]))
    grads["pos_emb"] = np.zeros_like(params["pos_emb"])
    grads["pos_emb"][:T] = dx.reshape(B, T, -1).sum(axis=0)
    return loss, grads


@dataclass
class AdamState:
    """First/second moment accumulators and the shared step counter.

    The moments are flat vectors over every parameter in sorted key
    order, so one update is a few whole-vector operations; ``work`` holds
    two more such vectors that every update reuses.
    """

    m: np.ndarray
    v: np.ndarray
    work: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: Mapping[str, np.ndarray]) -> "AdamState":
        n = sum(p.size for p in params.values())
        return cls(m=np.zeros(n), v=np.zeros(n), work=np.zeros((2, n)))


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
    m *= cfg.beta1
    m += np.multiply(g, 1.0 - cfg.beta1, out=tmp)
    g *= g
    v *= cfg.beta2
    v += np.multiply(g, 1.0 - cfg.beta2, out=tmp)
    denom = np.divide(v, 1.0 - cfg.beta2 ** t, out=tmp)
    np.sqrt(denom, out=denom)
    denom += cfg.adam_eps
    update = np.divide(m, 1.0 - cfg.beta1 ** t, out=g)
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


def _record_gold_index(rec: TrainingRecord, vocab: Vocabulary) -> int:
    """Label index encoded in the record's [Val] slot (masked or not)."""
    start, labels = vocab.val_block(rec.dimension)
    for t in rec.targets:
        if t.position == rec.val_position:
            return t.token_id - start
    return rec.input_ids[rec.val_position] - start


def _val_slot_distances(
    params: Mapping[str, np.ndarray],
    records: Sequence[TrainingRecord],
    vocab: Vocabulary,
    cfg: TrainConfig,
) -> list[int]:
    """Rank distances of argmax [Val] predictions, ordinal dimensions only."""
    distances: list[int] = []
    for i in range(0, len(records), cfg.batch_size):
        chunk = records[i : i + cfg.batch_size]
        ids = np.full((len(chunk), max(len(r.input_ids) for r in chunk)), PAD_ID, dtype=np.int64)
        for j, rec in enumerate(chunk):
            ids[j, : len(rec.input_ids)] = rec.input_ids
            ids[j, rec.val_position] = MASK_ID
        logits = forward(params, ids, cfg)
        for j, rec in enumerate(chunk):
            space = label_space(rec.dimension)
            if space.topology is Topology.CATEGORICAL:
                continue
            start, labels = vocab.val_block(rec.dimension)
            block = logits[j, rec.val_position, start : start + len(labels)]
            pred = int(np.argmax(block))
            gold = _record_gold_index(rec, vocab)
            if space.topology is Topology.CIRCULAR:
                d = circular_distance(labels[pred], labels[gold], space)
            else:
                d = linear_distance(labels[pred], labels[gold], space)
            distances.append(d)
    return distances


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
    with the mean rank distance of masked-[Val] predictions. A batch with
    no supervised slot (a short trailing batch can draw none) is skipped:
    no update and no share of the loss.
    """
    if not records:
        raise ValueError("training requires a non-empty dataset")
    if not any(r.targets for r in records):
        raise ValueError("no training record has a supervised slot")
    if val_records and not any(r.targets for r in val_records):
        raise ValueError("no validation record has a supervised slot")
    params = init_params(cfg, len(vocab))
    state = AdamState.for_params(params)
    log: list[LogRow] = []

    for epoch in range(cfg.epochs):
        order = stream_rng(cfg.seed, "shuffle", epoch).permutation(len(records))
        total_wce = 0.0
        total_w = 0.0
        for i in range(0, len(order), cfg.batch_size):
            chunk = [records[j] for j in order[i : i + cfg.batch_size]]
            if not any(r.targets for r in chunk):
                continue  # nothing supervised: no step, no loss
            batch = assemble_batch(chunk, vocab)
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
            val_losses = []
            val_weights = []
            for i in range(0, len(val_records), cfg.batch_size):
                chunk = list(val_records[i : i + cfg.batch_size])
                if not any(r.targets for r in chunk):
                    continue
                batch = assemble_batch(chunk, vocab)
                logits = forward(params, batch.ids, cfg)
                slot_logits = logits[batch.slot_rows, batch.slot_cols]
                val_losses.append(soft_ce_loss(slot_logits, batch.targets, batch.weights) * batch.weights.sum())
                val_weights.append(batch.weights.sum())
            distances = _val_slot_distances(params, val_records, vocab, cfg)
            mean_d = float(np.mean(distances)) if distances else None
            log.append(LogRow(epoch, "val", float(sum(val_losses) / sum(val_weights)), mean_d))

    return params, log


def predict_value_distribution(
    params: Mapping[str, np.ndarray],
    cfg: TrainConfig,
    vocab: Vocabulary,
    event_tokens: Sequence[str],
    verb_index: int,
    dimension: TemporalDimension,
) -> np.ndarray:
    """Distribution over the dimension's labels for one event.

    The query sequence carries a masked [Val] slot; logits are restricted
    to the dimension's [Val] block and softmaxed over that block alone.
    """
    space = label_space(dimension)
    placeholder = TemporalTuple(
        event_tokens=tuple(event_tokens),
        verb_index=verb_index,
        dimension=dimension,
        value=space.labels[0],
    )
    built = build_sequence(placeholder, vocab, max_length=cfg.max_len)
    ids = np.array([built.ids], dtype=np.int64)
    ids[0, built.val_position] = MASK_ID
    logits = forward(params, ids, cfg)
    start, labels = vocab.val_block(dimension)
    block = logits[0, built.val_position, start : start + len(labels)]
    return _softmax(block[None, :])[0]


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
                max_len=16, batch_size=2, epochs=1, seed=seed + i,
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
_CKPT_VERSION = 1


def save_checkpoint(
    path: str,
    params: Mapping[str, np.ndarray],
    cfg: TrainConfig,
    header_lines: Sequence[str] = (),
) -> None:
    """Versioned binary: text header with config echo and shape manifest,
    then row-major little-endian float32 blocks in sorted key order."""
    lines = list(header_lines)
    lines.append(f"config d_model={cfg.d_model} n_layers={cfg.n_layers} "
                 f"n_heads={cfg.n_heads} ff_dim={cfg.ff_dim} max_len={cfg.max_len}")
    for key in sorted(params):
        shape = "x".join(str(s) for s in params[key].shape)
        lines.append(f"param {key} {shape}")
    header = "".join(f"# {line}\n" for line in lines).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<HI", _CKPT_VERSION, len(header)))
        fh.write(header)
        for key in sorted(params):
            fh.write(np.ascontiguousarray(params[key], dtype="<f4").tobytes())


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], TrainConfig]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CKPT_MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    version, header_len = struct.unpack_from("<HI", blob, 4)
    if version != _CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    start = 4 + struct.calcsize("<HI")
    header = blob[start : start + header_len].decode("utf-8")
    off = start + header_len

    shapes: list[tuple[str, tuple[int, ...]]] = []
    cfg_kwargs: dict[str, int] = {}
    for line in header.splitlines():
        body = line.lstrip("# ").strip()
        if body.startswith("param "):
            _, key, shape_s = body.split(" ", 2)
            shapes.append((key, tuple(int(x) for x in shape_s.split("x"))))
        elif body.startswith("config "):
            for pair in body[len("config "):].split():
                k, v = pair.split("=")
                cfg_kwargs[k] = int(v)
    params: dict[str, np.ndarray] = {}
    for key, shape in shapes:
        n = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=off).astype(np.float64)
        params[key] = arr.reshape(shape)
        off += 4 * n
    cfg = TrainConfig(**cfg_kwargs)
    return params, cfg
