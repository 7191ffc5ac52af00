"""Rank-distance evaluation and prediction-distribution export.

The intrinsic metric is the absolute rank difference between a model's
top label and the gold label: positional on ordered (log-linear) spaces,
minimal ring distance on circular ones. Hierarchy has no ordinal
structure, so it is scored by plain accuracy instead.
"""

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from .extraction import TemporalTuple
from .label_space import DimensionReport, TemporalDimension, dimension_reports, label_space
from .model import Query, TrainConfig, predict_value_distribution
from .sequences import Vocabulary
from .srl_ingest import _as_int, _as_str, _as_token_list, parse_json_lines

__all__ = [
    "evaluate",
    "report_csv_lines",
    "distribution_csv_lines",
    "read_eval_instances",
    "read_queries",
    "eval_instance_to_json_dict",
]


def eval_instance_to_json_dict(inst: TemporalTuple) -> dict:
    """The eval-file line of a gold event: its query fields and its value
    as ``gold_label``."""
    return {
        "event_tokens": list(inst.event_tokens),
        "verb_index": inst.verb_index,
        "dimension": inst.dimension.value,
        "gold_label": inst.value,
    }


def _parse_query(obj: dict) -> Query:
    """The event_tokens / verb_index / dimension fields of one JSON line.

    A hierarchy line is refused: its relation needs a second event, which
    these lines do not carry.
    """
    tokens = _as_token_list(obj["event_tokens"], "event_tokens")
    verb_index = _as_int(obj["verb_index"], "verb_index")
    if not 0 <= verb_index < len(tokens):
        raise ValueError(f"verb_index {verb_index} out of bounds for {len(tokens)} tokens")
    dimension = TemporalDimension.parse(obj["dimension"])
    if dimension is TemporalDimension.HIERARCHY:
        raise ValueError("a hierarchy query relates two events, and a query line names one")
    return tokens, verb_index, dimension


def read_queries(lines: Iterable[str], source: str = "<queries>") -> list[Query]:
    """Prediction queries: one event_tokens/verb_index/dimension object a line."""
    return parse_json_lines(lines, source, _parse_query)


def read_eval_instances(lines: Iterable[str], source: str = "<instances>") -> list[TemporalTuple]:
    """Queries that also carry a gold_label, each read as the tuple whose
    value is that label."""
    return parse_json_lines(lines, source, lambda obj: TemporalTuple(
        *_parse_query(obj), value=_as_str(obj["gold_label"], "gold_label")))


def evaluate(
    params: Mapping[str, np.ndarray],
    cfg: TrainConfig,
    vocab: Vocabulary,
    instances: Sequence[TemporalTuple],
) -> list[DimensionReport]:
    """Per-dimension reports in dimension declaration order."""
    if not instances:
        raise ValueError("evaluation requires at least one instance")
    dists = predict_value_distribution(
        params, cfg, vocab, [(i.event_tokens, i.verb_index, i.dimension) for i in instances])
    return dimension_reports(dists, [i.dimension for i in instances],
                             [label_space(i.dimension).index(i.value) for i in instances])


def report_csv_lines(reports: Sequence[DimensionReport]) -> list[str]:
    lines = ["dimension,count,mean_distance,normalized_mean_distance,accuracy_at_0"]
    for r in reports:
        md = "" if r.mean_distance is None else repr(r.mean_distance)
        nd = "" if r.normalized is None else repr(r.normalized)
        lines.append(f"{r.dimension.value},{r.count},{md},{nd},{r.accuracy_at_0!r}")
    return lines


def distribution_csv_lines(
    params: Mapping[str, np.ndarray],
    cfg: TrainConfig,
    vocab: Vocabulary,
    queries: Sequence[Query],
) -> list[str]:
    """Rows (event id, dimension, label, probability) in query order.

    Each query block spans that dimension's labels and its probabilities
    sum to 1.
    """
    lines = ["event_id,dimension,label,probability"]
    dists = predict_value_distribution(params, cfg, vocab, queries)
    for event_id, ((_, _, dimension), dist) in enumerate(zip(queries, dists)):
        prefix = f"{event_id},{dimension.value},"
        lines += [f"{prefix}{label},{prob!r}"
                  for label, prob in zip(label_space(dimension).labels, dist.tolist())]
    return lines
