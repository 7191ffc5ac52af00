import math

import numpy as np
import pytest

from tempomine.extraction import TemporalTuple
from tempomine.label_space import (
    TemporalDimension,
    Topology,
    label_space,
    logsec,
)
from tempomine.targets import (
    DEFAULT_SIGMA_CIRCULAR,
    DEFAULT_SIGMA_LOG,
    balance_keep_probabilities,
    label_count_tables,
    soft_target,
    subsample_tuples,
    weight_table,
)

ORDINAL_DIMS = [d for d in TemporalDimension
                if label_space(d).topology is not Topology.CATEGORICAL]


def naive_soft_target(dimension, gold, sigma_log, sigma_circular):
    """Independent oracle: per-label density loop, then divide by sum."""
    space = label_space(dimension)
    gold_idx = space.index(gold)
    scores = []
    for i, lab in enumerate(space.labels):
        if space.topology is Topology.LOG_LINEAR:
            d = logsec(lab) - logsec(space.labels[gold_idx])
            sigma = sigma_log
        else:
            n = len(space)
            raw = abs(i - gold_idx)
            d = min(raw, n - raw)
            sigma = sigma_circular
        scores.append(math.exp(-(d * d) / (2 * sigma * sigma)))
    total = sum(scores)
    return np.array([s / total for s in scores])


def all_dim_gold_pairs():
    for dim in TemporalDimension:
        for gold in label_space(dim).labels:
            yield dim, gold


@pytest.mark.parametrize("dim,gold", list(all_dim_gold_pairs()))
def test_soft_target_matches_naive_oracle(dim, gold):
    got = soft_target(dim, gold)
    space = label_space(dim)
    if space.topology is Topology.CATEGORICAL:
        want = np.eye(len(space))[space.index(gold)]
    else:
        want = naive_soft_target(dim, gold, DEFAULT_SIGMA_LOG, DEFAULT_SIGMA_CIRCULAR)
    assert np.max(np.abs(got - want)) < 1e-10


# Each pair runs at the default sigmas and at doubled sigmas, a flatter
# target with the same argmax. The ids keep the item names from when a
# normalization mode, not a wider sigma, made the flatter target.
@pytest.mark.parametrize("widen", [1.0, 2.0], ids=["normalize", "softmax"])
@pytest.mark.parametrize("dim,gold", list(all_dim_gold_pairs()))
def test_soft_target_sums_to_one_and_peaks_at_gold(dim, gold, widen):
    y = soft_target(dim, gold, sigma_log=widen * DEFAULT_SIGMA_LOG,
                    sigma_circular=widen * DEFAULT_SIGMA_CIRCULAR)
    space = label_space(dim)
    assert y.shape == (len(space),)
    assert abs(y.sum() - 1.0) < 1e-9
    assert np.all(y >= 0)
    assert int(np.argmax(y)) == space.index(gold)


@pytest.mark.parametrize("dim", ORDINAL_DIMS)
def test_soft_target_monotone_in_distance(dim):
    # Mass must not increase as rank (or ring) distance from gold grows.
    space = label_space(dim)
    n = len(space)
    for gi, gold in enumerate(space.labels):
        y = soft_target(dim, gold)
        if space.topology is Topology.CIRCULAR:
            dist = [min(abs(i - gi), n - abs(i - gi)) for i in range(n)]
        else:
            dist = [abs(i - gi) for i in range(n)]
        by_dist = sorted(zip(dist, y))
        for (d1, p1), (d2, p2) in zip(by_dist, by_dist[1:]):
            if d2 > d1:
                assert p2 <= p1 + 1e-12


def test_circular_target_mirrors_around_gold():
    # Equidistant ring neighbors get identical mass.
    for dim in (TemporalDimension.TYPICAL_WEEK, TemporalDimension.TYPICAL_MONTH,
                TemporalDimension.TYPICAL_DAY, TemporalDimension.TYPICAL_SEASON):
        space = label_space(dim)
        n = len(space)
        for gi in range(n):
            y = soft_target(dim, space.labels[gi])
            for step in range(1, n // 2 + 1):
                left = y[(gi - step) % n]
                right = y[(gi + step) % n]
                assert left == pytest.approx(right, abs=1e-12)


def test_larger_sigma_flatter_but_same_order():
    y = soft_target(TemporalDimension.DURATION, "day")
    y_wide = soft_target(TemporalDimension.DURATION, "day", sigma_log=2 * DEFAULT_SIGMA_LOG)
    assert np.argmax(y_wide) == np.argmax(y)
    assert np.array_equal(np.argsort(y_wide), np.argsort(y))
    assert y_wide.max() < y.max()
    assert y_wide.min() > y.min()


def test_hierarchy_one_hot_at_any_sigma():
    want = np.zeros(4)
    want[2] = 1.0
    for sigma in (0.5, DEFAULT_SIGMA_LOG, 8.0):
        y = soft_target(TemporalDimension.HIERARCHY, "during",
                        sigma_log=sigma, sigma_circular=sigma)
        assert np.array_equal(y, want)


def test_soft_target_sigma_controls_spread():
    tight = soft_target(TemporalDimension.DURATION, "day", sigma_log=1.0)
    wide = soft_target(TemporalDimension.DURATION, "day", sigma_log=8.0)
    assert tight.max() > wide.max()


def test_soft_target_rejects_unknown_label():
    with pytest.raises(KeyError):
        soft_target(TemporalDimension.DURATION, "fortnight")


# ---------------------------------------------------------------- weights

def test_instance_weight_uniform_share_is_one():
    # 300 instances over 3 labels: a label with 100 sits at the uniform share.
    assert weight_table({"second": 100, "minute": 100, "hour": 100}) == {
        "second": 1.0, "minute": 1.0, "hour": 1.0}


def test_instance_weight_rare_label_upweighted():
    assert weight_table({"second": 10, "minute": 145, "hour": 145})["second"] == pytest.approx(10.0)
    # clipped at the high end
    assert weight_table({"second": 5, "minute": 145, "hour": 150})["second"] == 10.0


def test_instance_weight_frequent_label_downweighted():
    assert weight_table({"second": 250, "minute": 25, "hour": 25})["second"] == pytest.approx(0.4)
    # Clipped at the low end, which takes more than ten labels: a label's
    # weight is at least 1 / (number of labels).
    months = label_space(TemporalDimension.TYPICAL_MONTH).labels
    table = weight_table({month: 10_000 if month == "January" else 1 for month in months})
    assert table["January"] == 0.1
    assert table["December"] == 10.0


def test_instance_weight_zero_count_raises():
    for count in (0, -1):
        with pytest.raises(ValueError, match="label count must be positive"):
            weight_table({"second": count, "minute": 300})
    assert weight_table({}) == {}


def test_weight_table_num_labels_is_table_size():
    table = weight_table({"second": 50, "minute": 100, "hour": 150})
    # total 300, 3 labels
    assert table["second"] == pytest.approx(2.0)
    assert table["minute"] == pytest.approx(1.0)
    assert table["hour"] == pytest.approx(2.0 / 3.0)


def _tuple(dim, value):
    return TemporalTuple(("ev", "happened"), 1, dim, value)


def test_label_count_tables_order_and_content():
    tuples = (
        [_tuple(TemporalDimension.DURATION, "hour")] * 3
        + [_tuple(TemporalDimension.DURATION, "minute")] * 2
        + [_tuple(TemporalDimension.TYPICAL_WEEK, "Friday")]
    )
    tables = label_count_tables(tuples)
    assert set(tables) == {TemporalDimension.DURATION, TemporalDimension.TYPICAL_WEEK}
    assert tables[TemporalDimension.DURATION] == {"minute": 2, "hour": 3}
    # labels appear in label-space order, not insertion order
    assert list(tables[TemporalDimension.DURATION]) == ["minute", "hour"]
    assert tables[TemporalDimension.TYPICAL_WEEK] == {"Friday": 1}


# ---------------------------------------------------------------- balancing

def test_balance_keep_probabilities_reference_counts():
    counts = {
        TemporalDimension.DURATION: 30_000,
        TemporalDimension.UPPER_BOUND: 10_000,
        TemporalDimension.TYPICAL_WEEK: 20_000,
        TemporalDimension.FREQUENCY: 1_000,
    }
    probs = balance_keep_probabilities(counts)
    assert probs[TemporalDimension.UPPER_BOUND] == 1.0
    assert probs[TemporalDimension.DURATION] == pytest.approx(1 / 3)
    assert probs[TemporalDimension.TYPICAL_WEEK] == pytest.approx(0.5)
    # frequency is never subsampled, even though it is the smallest
    assert probs[TemporalDimension.FREQUENCY] == 1.0


def test_balance_only_frequency_present():
    probs = balance_keep_probabilities({TemporalDimension.FREQUENCY: 500})
    assert probs == {TemporalDimension.FREQUENCY: 1.0}


def test_subsample_deterministic_and_ordinal_keyed():
    tuples = (
        [_tuple(TemporalDimension.DURATION, "hour")] * 400
        + [_tuple(TemporalDimension.UPPER_BOUND, "day")] * 100
        + [_tuple(TemporalDimension.FREQUENCY, "week")] * 50
    )
    kept_a = subsample_tuples(tuples, seed=3)
    kept_b = subsample_tuples(tuples, seed=3)
    assert kept_a == kept_b
    kept_other = subsample_tuples(tuples, seed=4)
    assert kept_a != kept_other

    ordinals = [o for o, _ in kept_a]
    assert ordinals == sorted(ordinals)
    # upper bound (the smallest non-frequency dimension) and frequency
    # survive in full; duration shrinks toward 100
    by_dim = {}
    for _, t in kept_a:
        by_dim[t.dimension] = by_dim.get(t.dimension, 0) + 1
    assert by_dim[TemporalDimension.UPPER_BOUND] == 100
    assert by_dim[TemporalDimension.FREQUENCY] == 50
    assert 60 <= by_dim[TemporalDimension.DURATION] <= 140


def test_subsample_decision_independent_of_neighbors():
    # Removing earlier tuples must not change later keep decisions,
    # because each flip is keyed on the tuple's own ordinal.
    tuples = (
        [_tuple(TemporalDimension.DURATION, "hour")] * 50
        + [_tuple(TemporalDimension.UPPER_BOUND, "day")] * 10
    )
    kept = dict(subsample_tuples(tuples, seed=9))
    probs = balance_keep_probabilities(
        {TemporalDimension.DURATION: 50, TemporalDimension.UPPER_BOUND: 10})
    from tempomine.seeding import stream_rng
    for ordinal in range(50):
        expected = stream_rng(9, "sampling", ordinal).random() < probs[TemporalDimension.DURATION]
        assert (ordinal in kept) == expected
