import math

import numpy as np
import pytest

from tempomine.label_space import UNIT_SECONDS as PACKAGE_UNIT_SECONDS
from tempomine.label_space import (
    UNIT_ORDER,
    TemporalDimension,
    Topology,
    label_space,
    logsec,
    nearest_unit,
    rank_distance,
)

UNIT_SECONDS = {
    "second": 1,
    "minute": 60,
    "hour": 3_600,
    "day": 86_400,
    "week": 604_800,
    "month": 2_592_000,
    "year": 31_536_000,
    "decade": 315_360_000,
    "century": 3_153_600_000,
}


def test_unit_inventory_order_and_seconds():
    assert PACKAGE_UNIT_SECONDS == UNIT_SECONDS
    assert UNIT_ORDER == tuple(UNIT_SECONDS)


def test_logsec_known_values():
    assert logsec("second") == 0.0
    assert logsec("minute") == pytest.approx(4.0943445622221, abs=1e-3)
    for unit, seconds in UNIT_SECONDS.items():
        assert logsec(unit) == pytest.approx(math.log(seconds), abs=1e-12)


def test_nearest_unit_round_trips_canonical_seconds():
    for unit, seconds in UNIT_SECONDS.items():
        assert nearest_unit(seconds) == unit


@pytest.mark.parametrize(
    "seconds,expected",
    [
        (151_200, "day"),   # 1.75 days: log midpoint day/week not yet crossed
        (129_600, "day"),   # 36 hours rounds up to day in log space
        (7_200, "hour"),
        (720, "hour"),      # 12 minutes sits above the minute/hour midpoint
        (259_200, "week"),  # 3 days rounds up to week in log space
        (300, "minute"),
    ],
)
def test_nearest_unit_log_rounding(seconds, expected):
    assert nearest_unit(seconds) == expected


def test_nearest_unit_tie_prefers_smaller():
    # sqrt(60) is log-equidistant between second and minute.
    assert nearest_unit(math.sqrt(60)) == "second"


def test_nearest_unit_rejects_non_positive():
    with pytest.raises(ValueError):
        nearest_unit(0)
    with pytest.raises(ValueError):
        nearest_unit(-5)


@pytest.mark.parametrize("seconds", [math.inf, math.nan])
def test_nearest_unit_rejects_non_finite(seconds):
    with pytest.raises(ValueError, match="positive and finite"):
        nearest_unit(seconds)


def test_unknown_unit_raises():
    with pytest.raises(KeyError):
        logsec("fortnight")


SPACE_SIZES = {
    TemporalDimension.DURATION: 9,
    TemporalDimension.FREQUENCY: 9,
    TemporalDimension.UPPER_BOUND: 9,
    TemporalDimension.TYPICAL_DAY: 8,
    TemporalDimension.TYPICAL_WEEK: 7,
    TemporalDimension.TYPICAL_MONTH: 12,
    TemporalDimension.TYPICAL_SEASON: 4,
    TemporalDimension.HIERARCHY: 4,
}


def test_label_space_sizes():
    for dim, size in SPACE_SIZES.items():
        assert len(label_space(dim)) == size
        assert len(label_space(dim).labels) == size


def test_label_space_topologies():
    for dim in (TemporalDimension.DURATION, TemporalDimension.FREQUENCY,
                TemporalDimension.UPPER_BOUND):
        assert label_space(dim).topology is Topology.LOG_LINEAR
    for dim in (TemporalDimension.TYPICAL_DAY, TemporalDimension.TYPICAL_WEEK,
                TemporalDimension.TYPICAL_MONTH, TemporalDimension.TYPICAL_SEASON):
        assert label_space(dim).topology is Topology.CIRCULAR
    assert label_space(TemporalDimension.HIERARCHY).topology is Topology.CATEGORICAL


def test_all_label_spaces_covers_every_dimension():
    for dim in TemporalDimension:
        assert label_space(dim).dimension is dim


def test_linear_distance_examples():
    assert rank_distance("minute", "year", TemporalDimension.FREQUENCY) == 5
    assert rank_distance("year", "minute", TemporalDimension.FREQUENCY) == 5
    assert rank_distance("day", "day", TemporalDimension.FREQUENCY) == 0


def test_circular_distance_examples():
    months, week = TemporalDimension.TYPICAL_MONTH, TemporalDimension.TYPICAL_WEEK
    assert rank_distance("January", "December", months) == 1
    assert rank_distance("January", "July", months) == 6
    assert rank_distance("Monday", "Sunday", week) == 1
    assert rank_distance("Monday", "Thursday", week) == 3


def test_circular_distance_matches_brute_force():
    # Oracle: walk the ring both ways, take the shorter path.
    months = label_space(TemporalDimension.TYPICAL_MONTH)
    n = len(months)
    for i, a in enumerate(months.labels):
        for j, b in enumerate(months.labels):
            forward = (j - i) % n
            backward = (i - j) % n
            assert rank_distance(a, b, TemporalDimension.TYPICAL_MONTH) == min(forward, backward)


def test_distance_unknown_label_raises():
    with pytest.raises(KeyError, match="'fortnight' not in duration space"):
        rank_distance("second", "fortnight", TemporalDimension.DURATION)
    with pytest.raises(KeyError, match="'autumn' not in typical_season space"):
        rank_distance("autumn", "fall", TemporalDimension.TYPICAL_SEASON)


def test_rank_distance_follows_topology():
    # First to last label: one step round a ring, the whole scale on a line.
    for dim in TemporalDimension:
        space = label_space(dim)
        a, b = space.labels[0], space.labels[-1]
        if space.topology is Topology.CIRCULAR:
            assert rank_distance(a, b, dim) == 1
        elif space.topology is Topology.LOG_LINEAR:
            assert rank_distance(a, b, dim) == len(space) - 1
        else:
            with pytest.raises(ValueError, match="no ordinal structure"):
                rank_distance(a, b, dim)


def test_hierarchy_labels():
    assert label_space(TemporalDimension.HIERARCHY).labels == (
        "before", "after", "during", "when")


def test_typical_day_ring():
    assert label_space(TemporalDimension.TYPICAL_DAY).labels == (
        "midnight", "dawn", "morning", "noon", "afternoon", "evening",
        "night", "overnight")


def test_label_space_membership():
    space = label_space(TemporalDimension.TYPICAL_SEASON)
    assert "fall" in space
    assert "autumn" not in space
    assert space.index("winter") == 3


def test_total_value_token_count():
    assert sum(SPACE_SIZES.values()) == 62


def test_log_positions_strictly_increasing():
    pos = np.array([logsec(u) for u in UNIT_ORDER])
    assert pos.shape == (9,)
    assert np.all(np.diff(pos) > 0)
