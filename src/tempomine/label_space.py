"""Temporal dimensions, label vocabularies, and the distances between labels.

Eight dimensions are modeled. Duration, frequency, and duration upper-bound
share the nine-unit inventory (second through century) on a log-seconds
scale; the typical-time dimensions (time of day, day of week, month, season)
live on rings; relative hierarchy is a plain categorical set.
"""

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "TemporalDimension",
    "Topology",
    "LabelSpace",
    "UNIT_SECONDS",
    "UNIT_ORDER",
    "logsec",
    "nearest_unit",
    "rank_distance",
    "DimensionReport",
    "dimension_reports",
    "label_space",
]


class TemporalDimension(str, Enum):
    """The eight temporal facets mined and modeled by this package."""

    DURATION = "duration"
    FREQUENCY = "frequency"
    UPPER_BOUND = "upper_bound"
    TYPICAL_DAY = "typical_day"
    TYPICAL_WEEK = "typical_week"
    TYPICAL_MONTH = "typical_month"
    TYPICAL_SEASON = "typical_season"
    HIERARCHY = "hierarchy"

    @classmethod
    def parse(cls, name, key: str = "dimension") -> "TemporalDimension":
        """The dimension called ``name``; else a ValueError naming ``key``."""
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(d.value for d in cls)
            raise ValueError(f"{key} must be one of: {valid}; got {json.dumps(name)}") from None


class Topology(str, Enum):
    LOG_LINEAR = "log_linear"
    CIRCULAR = "circular"
    CATEGORICAL = "categorical"


# The duration unit inventory, smallest first: name -> span in seconds.
# Calendar-precision choices (30-day month, 365-day year) do not affect
# nearest-unit assignment, which happens on the log scale.
UNIT_SECONDS: dict[str, int] = {
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

UNIT_ORDER: tuple[str, ...] = tuple(UNIT_SECONDS)

TIME_OF_DAY_LABELS = ("midnight", "dawn", "morning", "noon", "afternoon", "evening", "night", "overnight")
DAY_OF_WEEK_LABELS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
MONTH_LABELS = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)
SEASON_LABELS = ("spring", "summer", "fall", "winter")
HIERARCHY_LABELS = ("before", "after", "during", "when")


@dataclass(frozen=True)
class LabelSpace:
    """An ordered label vocabulary plus the geometry its distances live in."""

    dimension: TemporalDimension
    labels: tuple[str, ...]
    topology: Topology

    def __post_init__(self):
        object.__setattr__(self, "_index", {label: i for i, label in enumerate(self.labels)})

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"label {label!r} not in {self.dimension.value} space") from None

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self.labels)


_SPACES: dict[TemporalDimension, LabelSpace] = {
    TemporalDimension.DURATION: LabelSpace(TemporalDimension.DURATION, UNIT_ORDER, Topology.LOG_LINEAR),
    TemporalDimension.FREQUENCY: LabelSpace(TemporalDimension.FREQUENCY, UNIT_ORDER, Topology.LOG_LINEAR),
    TemporalDimension.UPPER_BOUND: LabelSpace(TemporalDimension.UPPER_BOUND, UNIT_ORDER, Topology.LOG_LINEAR),
    TemporalDimension.TYPICAL_DAY: LabelSpace(TemporalDimension.TYPICAL_DAY, TIME_OF_DAY_LABELS, Topology.CIRCULAR),
    TemporalDimension.TYPICAL_WEEK: LabelSpace(TemporalDimension.TYPICAL_WEEK, DAY_OF_WEEK_LABELS, Topology.CIRCULAR),
    TemporalDimension.TYPICAL_MONTH: LabelSpace(TemporalDimension.TYPICAL_MONTH, MONTH_LABELS, Topology.CIRCULAR),
    TemporalDimension.TYPICAL_SEASON: LabelSpace(TemporalDimension.TYPICAL_SEASON, SEASON_LABELS, Topology.CIRCULAR),
    TemporalDimension.HIERARCHY: LabelSpace(TemporalDimension.HIERARCHY, HIERARCHY_LABELS, Topology.CATEGORICAL),
}


def label_space(dimension: TemporalDimension) -> LabelSpace:
    """The label space owned by ``dimension``."""
    return _SPACES[dimension]


def logsec(unit: str) -> float:
    """Natural log of the unit's span in seconds (minute -> 4.094)."""
    return math.log(UNIT_SECONDS[unit])


_UNIT_LOGSECS = tuple(map(logsec, UNIT_ORDER))


def nearest_unit(seconds: float) -> str:
    """The unit whose log-seconds anchor is closest to ``log(seconds)``.

    Ties break toward the smaller unit. 1.75 days (151200 s) lands on "day";
    3 days (259200 s) is already closer to "week" on the log scale.
    """
    if not 0 < seconds < math.inf:
        raise ValueError(f"seconds must be positive and finite, got {seconds!r}")
    target = math.log(seconds)
    best = 0
    best_gap = abs(target - _UNIT_LOGSECS[0])
    for i in range(1, len(_UNIT_LOGSECS)):
        gap = abs(target - _UNIT_LOGSECS[i])
        if gap < best_gap:
            best, best_gap = i, gap
    return UNIT_ORDER[best]


def rank_distance(pred: str, gold: str, dimension: TemporalDimension) -> int:
    """Rank difference between prediction and gold on an ordinal space:
    the minimal number of steps either way round a ring, the absolute
    difference on the ordered log-linear scale."""
    space = _SPACES[dimension]
    if space.topology is Topology.CATEGORICAL:
        raise ValueError(f"{dimension.value} has no ordinal structure to rank")
    d = abs(space.index(pred) - space.index(gold))
    return min(d, len(space) - d) if space.topology is Topology.CIRCULAR else d


@dataclass(frozen=True)
class DimensionReport:
    dimension: TemporalDimension
    count: int
    mean_distance: float | None  # None for categorical dimensions
    normalized: float | None
    accuracy_at_0: float
    distances: tuple[int, ...] = ()  # each item's rank distance; none when categorical


def dimension_reports(
    blocks: Iterable[Iterable[float]],
    dimensions: Iterable[TemporalDimension],
    gold_indices: Iterable[int],
) -> list[DimensionReport]:
    """Per-dimension reports, in declaration order, predicting each item as the argmax
    of its label-block scores; np.argmax takes the first maximum, so ties go low."""
    by_dim: dict[TemporalDimension, list[tuple[int, int]]] = {}
    for block, dim, gold in zip(blocks, dimensions, gold_indices, strict=True):
        by_dim.setdefault(dim, []).append((int(np.argmax(block)), gold))
    reports = []
    for dim in TemporalDimension:
        if dim not in by_dim:
            continue
        pairs, space = by_dim[dim], _SPACES[dim]
        acc = float(np.mean([p == g for p, g in pairs]))
        distances = () if space.topology is Topology.CATEGORICAL else tuple(
            rank_distance(space.labels[p], space.labels[g], dim) for p, g in pairs)
        mean = float(np.mean(distances)) if distances else None
        normalized = None if mean is None else mean / len(space)
        reports.append(DimensionReport(dim, len(pairs), mean, normalized, acc, distances))
    return reports
