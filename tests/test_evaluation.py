import json

import numpy as np
import pytest

from tempomine.evaluation import (
    distribution_csv_lines,
    eval_instance_to_json_dict,
    evaluate,
    read_eval_instances,
    read_queries,
    report_csv_lines,
)
from tempomine.extraction import TemporalTuple
from tempomine.label_space import (DimensionReport, TemporalDimension, dimension_reports,
                                   label_space, rank_distance)
from tempomine.model import predict_value_distribution
from tempomine.srl_ingest import SchemaError


# ---------------------------------------------------------------- metrics

def test_rank_distance_linear_and_circular():
    assert rank_distance("second", "hour", TemporalDimension.DURATION) == 2
    assert rank_distance("minute", "year", TemporalDimension.FREQUENCY) == 5
    assert rank_distance("January", "December", TemporalDimension.TYPICAL_MONTH) == 1
    assert rank_distance("Monday", "Sunday", TemporalDimension.TYPICAL_WEEK) == 1
    assert rank_distance("spring", "winter", TemporalDimension.TYPICAL_SEASON) == 1
    assert rank_distance("day", "day", TemporalDimension.UPPER_BOUND) == 0


def test_rank_distance_hierarchy_raises():
    with pytest.raises(ValueError):
        rank_distance("before", "after", TemporalDimension.HIERARCHY)


def _one_hot_reports(dimension, preds, golds):
    """dimension_reports on one-hot blocks that predict ``preds``."""
    space = label_space(dimension)
    blocks = [np.eye(len(space))[space.index(p)] for p in preds]
    (report,) = dimension_reports(blocks, [dimension] * len(preds),
                                  [space.index(g) for g in golds])
    return report


def test_mean_distance_example():
    # |minute-hour| = 1 and |second-day| = 3 -> mean 2.0, over 9 labels 2/9
    r = _one_hot_reports(TemporalDimension.DURATION, ["minute", "second"], ["hour", "day"])
    assert r.mean_distance == 2.0
    assert r.normalized == pytest.approx(2.0 / 9.0)


def test_mean_distance_bounds():
    space = label_space(TemporalDimension.TYPICAL_MONTH)
    rng = np.random.default_rng(0)
    preds = [str(rng.choice(space.labels)) for _ in range(50)]
    golds = [str(rng.choice(space.labels)) for _ in range(50)]
    r = _one_hot_reports(TemporalDimension.TYPICAL_MONTH, preds, golds)
    assert 0.0 <= r.mean_distance <= 6.0  # ring diameter of a 12-cycle
    assert r.normalized == pytest.approx(r.mean_distance / 12.0)


def test_uniform_week_expected_distance():
    # Uniform predictions on a 7-ring against any fixed gold: distances
    # are [0,1,1,2,2,3,3] -> mean 12/7. Brute-force over all pairs.
    space = label_space(TemporalDimension.TYPICAL_WEEK)
    preds, golds = [], []
    for p in space.labels:
        for g in space.labels:
            preds.append(p)
            golds.append(g)
    r = _one_hot_reports(TemporalDimension.TYPICAL_WEEK, preds, golds)
    assert r.mean_distance == pytest.approx(12.0 / 7.0)


def test_accuracy_at_zero():
    hier = TemporalDimension.HIERARCHY
    r = _one_hot_reports(hier, ["before", "after", "during"], ["before", "when", "during"])
    assert r.accuracy_at_0 == pytest.approx(2 / 3)
    assert _one_hot_reports(hier, ["before"], ["before"]).accuracy_at_0 == 1.0


def test_metric_input_validation():
    blocks = [np.eye(9)[2], np.eye(9)[3]]
    dur = TemporalDimension.DURATION
    with pytest.raises(ValueError):
        dimension_reports(blocks, [dur, dur], [2])
    with pytest.raises(ValueError):
        dimension_reports(blocks, [dur], [2, 3])


# ---------------------------------------------------------------- instances

def test_eval_instance_validates_gold():
    # A gold event is a tuple, whose value must be a label of its dimension.
    with pytest.raises(ValueError, match="label 'fortnight' not in the duration space"):
        TemporalTuple(("a",), 0, TemporalDimension.DURATION, "fortnight")
    inst = TemporalTuple(("a",), 0, TemporalDimension.TYPICAL_SEASON, "fall")
    assert inst.value == "fall"


def test_read_queries_parses_each_line():
    lines = ["# header", "",
             json.dumps({"event_tokens": ["they", "slept"], "verb_index": 1,
                         "dimension": "duration"})]
    assert read_queries(lines) == [(("they", "slept"), 1, TemporalDimension.DURATION)]


@pytest.mark.parametrize("obj, message", [
    ({"event_tokens": ["they", "slept"], "dimension": "duration"},
     "missing key 'verb_index'"),
    pytest.param({"event_tokens": ["they", "slept"], "verb_index": 1, "dimension": "eon"},
                 'dimension must be one of: duration, .*; got "eon"', id="obj1-unknown-dimension"),
    ({"event_tokens": ["they", "slept"], "verb_index": 2, "dimension": "duration"},
     "verb_index 2 out of bounds for 2 tokens"),
    ({"event_tokens": "they slept", "verb_index": 1, "dimension": "duration"},
     "event_tokens must be a list of strings"),
    (["they", "slept"], "expected a JSON object"),
    ({"event_tokens": ["they", "slept"], "verb_index": 1, "dimension": "hierarchy"},
     "a hierarchy query relates two events"),
])
def test_read_queries_rejects_bad_line_as_path_line(obj, message):
    lines = ["# header", json.dumps(obj)]
    with pytest.raises(SchemaError, match=rf"^q\.jsonl:2: .*{message}"):
        read_queries(lines, "q.jsonl")


def test_read_eval_instances_shares_the_query_parser():
    good = {"event_tokens": ["they", "slept"], "verb_index": 1,
            "dimension": "duration", "gold_label": "hour"}
    lines = [json.dumps(good), json.dumps({**good, "gold_label": "fortnight"})]
    with pytest.raises(SchemaError,
                       match="gold.jsonl:2: label 'fortnight' not in the duration space"):
        read_eval_instances(lines, "gold.jsonl")
    missing = {k: v for k, v in good.items() if k != "gold_label"}
    with pytest.raises(SchemaError, match="gold.jsonl:1: missing key 'gold_label'"):
        read_eval_instances([json.dumps(missing)], "gold.jsonl")
    del missing["dimension"]
    with pytest.raises(SchemaError, match="gold.jsonl:1: missing key 'dimension'"):
        read_eval_instances([json.dumps(missing)], "gold.jsonl")


def test_eval_instances_json_round_trip():
    inst = TemporalTuple(("they", "slept"), 1, TemporalDimension.DURATION, "hour")
    line = json.dumps(eval_instance_to_json_dict(inst))
    assert json.loads(line) == {"event_tokens": ["they", "slept"], "verb_index": 1,
                                "dimension": "duration", "gold_label": "hour"}
    back = read_eval_instances(["# header", "", line])
    assert back == [inst]


# ---------------------------------------------------------------- evaluate

def test_evaluate_reports(tiny_trained):
    import tempomine as tm

    params = tiny_trained["params"]
    cfg = tiny_trained["cfg"]
    vocab = tiny_trained["vocab"]
    instances = []
    for s in tiny_trained["test_sentences"][:60]:
        instances.extend(tm.extract_sentence(s))
    assert instances
    reports = evaluate(params, cfg, vocab, instances)
    dims = [r.dimension for r in reports]
    assert dims == sorted(dims, key=list(TemporalDimension).index)
    assert sum(r.count for r in reports) == len(instances)
    for r in reports:
        assert 0.0 <= r.accuracy_at_0 <= 1.0
        if r.dimension is TemporalDimension.HIERARCHY:
            assert r.mean_distance is None and r.normalized is None
        else:
            assert r.mean_distance is not None
            assert r.normalized == pytest.approx(
                r.mean_distance / len(label_space(r.dimension)))


def test_dimension_reports_from_blocks():
    week, dur, hier = (TemporalDimension.TYPICAL_WEEK, TemporalDimension.DURATION,
                       TemporalDimension.HIERARCHY)
    blocks = [np.eye(7)[0], np.eye(4)[2], np.eye(9)[3], np.eye(7)[1],
              np.zeros(9), np.eye(4)[1]]  # all-zero block: ties go to label 0
    dims = [week, hier, dur, week, dur, hier]
    golds = [6, 2, 0, 1, 2, 0]
    reports = dimension_reports(blocks, dims, golds)
    assert reports == [
        DimensionReport(dur, 2, 2.5, 2.5 / 9, 0.0, (3, 2)),
        DimensionReport(week, 2, 0.5, 0.5 / 7, 0.5, (1, 0)),  # first to last day: 1 on the ring
        DimensionReport(hier, 2, None, None, 0.5),
    ]
    with pytest.raises(ValueError):
        dimension_reports(blocks, dims, golds[:-1])


def test_evaluate_empty_raises(tiny_trained):
    with pytest.raises(ValueError):
        evaluate(tiny_trained["params"], tiny_trained["cfg"],
                 tiny_trained["vocab"], [])


# ---------------------------------------------------------------- CSV

def test_report_csv_format():
    reports = [
        DimensionReport(TemporalDimension.DURATION, 10, 1.5, 1.5 / 9, 0.4),
        DimensionReport(TemporalDimension.HIERARCHY, 4, None, None, 0.75),
    ]
    lines = report_csv_lines(reports)
    assert lines[0] == "dimension,count,mean_distance,normalized_mean_distance,accuracy_at_0"
    assert lines[1] == f"duration,10,1.5,{1.5 / 9!r},0.4"
    assert lines[2] == "hierarchy,4,,,0.75"


def test_distribution_csv(tiny_trained):
    params = tiny_trained["params"]
    cfg = tiny_trained["cfg"]
    vocab = tiny_trained["vocab"]
    queries = [
        (("they", "napped"), 1, TemporalDimension.DURATION),
        (("they", "met"), 1, TemporalDimension.TYPICAL_WEEK),
    ]
    lines = distribution_csv_lines(params, cfg, vocab, queries)
    assert lines[0] == "event_id,dimension,label,probability"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 9 + 7
    # block 0: duration labels in canonical order, probabilities sum to 1
    block0 = [r for r in rows if r[0] == "0"]
    assert [r[2] for r in block0] == list(label_space(TemporalDimension.DURATION).labels)
    assert sum(float(r[3]) for r in block0) == pytest.approx(1.0, abs=1e-9)
    block1 = [r for r in rows if r[0] == "1"]
    assert all(r[1] == "typical_week" for r in block1)
    assert sum(float(r[3]) for r in block1) == pytest.approx(1.0, abs=1e-9)
    # Rows formatted from .tolist() floats carry the bits float(p) gives.
    dists = predict_value_distribution(params, cfg, vocab, queries)
    assert lines[1:] == [f"{i},{dim.value},{label},{float(p)!r}"
                         for i, ((_, _, dim), dist) in enumerate(zip(queries, dists))
                         for label, p in zip(label_space(dim).labels, dist)]

