"""Soft target distributions, instance weights, and dimension balancing.

A gold label is expanded into a distribution over its whole label space so
that near misses cost less than distant ones. Log-linear spaces use a
Gaussian over log-seconds positions, circular spaces a Gaussian over ring
distance, and categorical spaces stay one-hot.
"""

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from .extraction import TemporalTuple
from .label_space import (
    TemporalDimension,
    Topology,
    label_space,
    logsec,
)
from .seeding import stream_rng

__all__ = [
    "soft_target",
    "weight_table",
    "label_count_tables",
    "balance_keep_probabilities",
    "subsample_tuples",
    "DEFAULT_SIGMA_LOG",
    "DEFAULT_SIGMA_CIRCULAR",
    "WEIGHT_CLIP_LOW",
    "WEIGHT_CLIP_HIGH",
]

DEFAULT_SIGMA_LOG = 4.0
DEFAULT_SIGMA_CIRCULAR = 0.5

WEIGHT_CLIP_LOW = 0.1
WEIGHT_CLIP_HIGH = 10.0


def soft_target(
    dimension: TemporalDimension,
    gold_label: str,
    sigma_log: float = DEFAULT_SIGMA_LOG,
    sigma_circular: float = DEFAULT_SIGMA_CIRCULAR,
) -> np.ndarray:
    """Distribution over the dimension's labels, peaked at the gold label.

    The Gaussian densities divided by their sum; a larger sigma gives a
    flatter target with the same argmax. Categorical dimensions are one-hot.
    """
    space = label_space(dimension)
    gold_idx = space.index(gold_label)

    if space.topology is Topology.CATEGORICAL:
        return (np.arange(len(space)) == gold_idx).astype(np.float64)

    if space.topology is Topology.LOG_LINEAR:
        positions = np.array([logsec(lab) for lab in space.labels], dtype=np.float64)
        d = positions - positions[gold_idx]
        scores = np.exp(-(d * d) / (2.0 * sigma_log * sigma_log))
    else:
        n = len(space)
        raw = np.abs(np.arange(n) - gold_idx)
        d = np.minimum(raw, n - raw).astype(np.float64)
        scores = np.exp(-(d * d) / (2.0 * sigma_circular * sigma_circular))
    return scores / scores.sum()


def weight_table(counts: Mapping[str, int]) -> dict[str, float]:
    """Instance weight per label from one dimension's observed counts: the
    inverse prevalence total / (labels * count), clipped to
    [WEIGHT_CLIP_LOW, WEIGHT_CLIP_HIGH], so a label at exactly the uniform
    share weighs 1.0. A count that is not positive raises ValueError."""
    if any(c <= 0 for c in counts.values()):
        raise ValueError("label count must be positive to weight an instance")
    total, n = sum(counts.values()), len(counts)
    return {label: min(max(total / (n * c), WEIGHT_CLIP_LOW), WEIGHT_CLIP_HIGH)
            for label, c in counts.items()}


def label_count_tables(
    tuples: Iterable[TemporalTuple],
) -> dict[TemporalDimension, dict[str, int]]:
    """Observed (dimension, label) counts, labels in label-space order."""
    raw: dict[TemporalDimension, Counter] = {}
    for t in tuples:
        raw.setdefault(t.dimension, Counter())[t.value] += 1
    tables: dict[TemporalDimension, dict[str, int]] = {}
    for dim in TemporalDimension:
        if dim not in raw:
            continue
        space = label_space(dim)
        tables[dim] = {lab: raw[dim][lab] for lab in space.labels if raw[dim][lab] > 0}
    return tables


def balance_keep_probabilities(
    counts_by_dimension: Mapping[TemporalDimension, int],
) -> dict[TemporalDimension, float]:
    """Keep probability per dimension that levels dimension sizes.

    The target size is the smallest non-frequency dimension count;
    frequency is always kept in full.
    """
    non_freq = {
        d: c for d, c in counts_by_dimension.items()
        if d is not TemporalDimension.FREQUENCY and c > 0
    }
    probs: dict[TemporalDimension, float] = {}
    target = min(non_freq.values()) if non_freq else 0
    for d, c in counts_by_dimension.items():
        if d is TemporalDimension.FREQUENCY or c <= 0:
            probs[d] = 1.0
        else:
            probs[d] = min(1.0, target / c)
    return probs


def subsample_tuples(
    tuples: Sequence[TemporalTuple],
    seed: int,
) -> list[tuple[int, TemporalTuple]]:
    """Balance dimensions by independent per-tuple coin flips.

    Returns (original ordinal, tuple) pairs so later stages can key
    their randomness on the position in the unbalanced stream. Each
    flip uses its own ordinal-keyed generator, so the decision for a
    tuple does not depend on how many tuples precede it.
    """
    counts = Counter(t.dimension for t in tuples)
    probs = balance_keep_probabilities(counts)
    kept: list[tuple[int, TemporalTuple]] = []
    for ordinal, t in enumerate(tuples):
        p = probs[t.dimension]
        if p >= 1.0 or stream_rng(seed, "sampling", ordinal).random() < p:
            kept.append((ordinal, t))
    return kept
