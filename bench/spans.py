"""Spans around the package's public functions, for the traced run only.

``traced(tracer)`` swaps module attributes that callers look up by name
(``tempomine.cli.extract_sentence``, ``tempomine.model.forward``, ...)
for wrappers that record a span: name, start, end, parent span and
operation id. An operation is a subcommand call, a training step (one
``assemble_batch`` through its ``adam_step``) or a query (one
``predict_value_distribution``). Nothing inside ``src/`` is timed.

Spans nest on one thread, so a span's self time is its duration minus
the durations of its direct children, computed as spans close. Spans
stay in memory and are written out once, at the end of the run.
"""

import contextlib
import functools
import importlib
import math
import statistics
from array import array
from time import perf_counter

import numpy as np
from tempomine.srl_ingest import is_temporal_role


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []   # [span index, start, child seconds, op before]
        self.op = 0
        self._ops = 0
        # per name id: [calls, total seconds, self seconds]
        self._agg: list[list] = []
        # Counts and samples taken at the wrapped boundaries.
        self.sentences = self.skipped = self.temporal_args = self.tuples = 0
        self.records = self.record_tokens = 0
        self.distinct_targets: set = set()
        self.step_seconds: list[float] = []
        self.step_shapes: list[tuple[int, int, int]] = []   # (B, T, supervised slots)
        self.predict_seconds: list[float] = []
        self._step_start = 0.0
        self._step_shape = (0, 0, 0)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._agg.append([0, 0.0, 0.0])
        return nid

    @property
    def totals(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds]"""
        return dict(zip(self.names, self._agg))

    def enter(self, nid: int, new_op: bool = False) -> list:
        prev_op = self.op
        if new_op:
            self._ops += 1
            self.op = self._ops
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(math.nan)
        frame = [idx, 0.0, 0.0, prev_op]
        self._stack.append(frame)
        frame[1] = start = perf_counter()
        self.span_start.append(start)
        return frame

    def exit(self, frame: list, restore_op: bool = True) -> None:
        end = perf_counter()
        idx, start, child, prev_op = frame
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("spans closed out of order")
        self.span_end[idx] = end
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        agg = self._agg[self.span_name[idx]]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if restore_op:
            self.op = prev_op

    def children(self, name: str, child: str = "") -> tuple[float, float, int]:
        """Seconds spent in spans ``name``, seconds their direct children
        cover, and the number of direct children named ``child``."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0.0, 0.0, 0
        names = np.array(self.span_name)
        dur = np.array(self.span_end) - np.array(self.span_start)
        mine = names == nid
        is_child = np.isin(np.array(self.span_parent), np.flatnonzero(mine))
        n = 0
        if child in self._name_ids:
            n = int((is_child & (names == self._name_ids[child])).sum())
        return float(dur[mine].sum()), float(dur[is_child].sum()), n

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name),
            parent=np.array(self.span_parent),
            op=np.array(self.span_op),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
        )


def _wrap(tracer: Tracer, name: str, fn, *, new_op=False, keep_op=False, after=None):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(nid, new_op)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame, restore_op=not keep_op)
        if after is not None:
            after(tracer, frame, args, kwargs, result)
        return result
    return wrapper


class _TracedReader:
    """read_corpus result whose iteration, consumer included, is one span.

    extract reads the corpus it mines; build-dataset --ms reads it again
    for neighbour context. Only the first counts toward the srl_ingest
    metrics; the second is its own span, so coverage still sees it.
    """

    def __init__(self, tracer: Tracer, reader) -> None:
        self._tracer = tracer
        self._reader = reader

    def __getattr__(self, attr):
        return getattr(self._reader, attr)

    def __iter__(self):
        t = self._tracer
        mining = bool(t._stack) and t.names[t.span_name[t._stack[0][0]]] == "cli.extract"
        frame = t.enter(t.name_id("srl_ingest.read_corpus" if mining else "srl_ingest.read_context"))
        try:
            yield from self._reader
        finally:
            t.exit(frame)
            if mining:
                t.sentences += self._reader.records_read
                t.skipped += self._reader.records_skipped


def _after_extract(t, frame, args, kwargs, result):
    for f in args[0].frames:
        for role, _ in f.arguments:
            if is_temporal_role(role):
                t.temporal_args += 1
    t.tuples += len(result)


def _after_masking(t, frame, args, kwargs, result):
    t.records += 1
    t.record_tokens += len(result.input_ids)


def _after_soft_target(t, frame, args, kwargs, result):
    t.distinct_targets.add((args, tuple(kwargs.items())))


def _after_assemble(t, frame, args, kwargs, result):
    b, tt = result.ids.shape
    t._step_start = frame[1]
    t._step_shape = (b, tt, len(result.slot_rows))


def _after_adam(t, frame, args, kwargs, result):
    t.step_seconds.append(t.span_end[frame[0]] - t._step_start)
    t.step_shapes.append(t._step_shape)


def _after_predict(t, frame, args, kwargs, result):
    t.predict_seconds.append(t.span_end[frame[0]] - frame[1])


# (module, attribute, span name, options). Each attribute is the name a
# caller resolves at call time, so the wrapper sees every such call.
_TARGETS = (
    ("tempomine.cli", "build_parser", "cli.build_parser", {}),
    ("tempomine.cli", "resolve_config", "cli.resolve_config", {}),
    ("tempomine.cli", "read_corpus", None, {}),
    ("tempomine.cli", "extract_sentence", "extraction.extract_sentence", {"after": _after_extract}),
    ("tempomine.cli", "write_tuples_jsonl", "extraction.write_tuples", {}),
    ("tempomine.cli", "read_tuples_jsonl", "extraction.read_tuples", {}),
    ("tempomine.cli", "stream_rng", "seeding.stream_rng", {}),
    ("tempomine.model", "stream_rng", "seeding.stream_rng", {}),
    ("tempomine.cli", "label_count_tables", "targets.weights", {}),
    ("tempomine.cli", "weight_table", "targets.weights", {}),
    ("tempomine.sequences", "soft_target", "targets.soft_target", {"after": _after_soft_target}),
    ("tempomine.cli", "build_vocabulary", "sequences.build_vocabulary", {}),
    ("tempomine.cli", "build_sequence", "sequences.build_sequence", {}),
    ("tempomine.model", "build_sequence", "sequences.build_sequence", {}),
    ("tempomine.cli", "apply_masking", "sequences.apply_masking", {"after": _after_masking}),
    ("tempomine.cli", "write_records_jsonl", "sequences.write_records", {}),
    ("tempomine.cli", "read_records_jsonl", "sequences.read_records", {}),
    ("tempomine.model", "init_params", "model.init_params", {}),
    # A training step's operation lasts until the next batch starts.
    ("tempomine.model", "assemble_batch", "model.assemble_batch",
     {"new_op": True, "keep_op": True, "after": _after_assemble}),
    ("tempomine.model", "loss_and_gradients", "model.loss_and_gradients", {}),
    ("tempomine.model", "adam_step", "model.adam_step", {"after": _after_adam}),
    ("tempomine.model", "forward", "model.forward", {}),
    ("tempomine.cli", "save_checkpoint", "model.save_checkpoint", {}),
    ("tempomine.cli", "load_checkpoint", "model.load_checkpoint", {}),
    ("tempomine.cli", "read_eval_instances", "evaluation.read_eval_instances", {}),
    ("tempomine.cli", "evaluate", "evaluation.evaluate", {}),
    ("tempomine.cli", "distribution_csv_lines", "evaluation.distribution_csv_lines", {}),
    ("tempomine.evaluation", "predict_value_distribution", "model.predict_value_distribution",
     {"new_op": True, "after": _after_predict}),
    ("tempomine.cli", "predict_value_distribution", "model.predict_value_distribution",
     {"new_op": True, "after": _after_predict}),
)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, opts in _TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            if name is None:
                wrapper = functools.wraps(original)(
                    lambda *a, _f=original, **k: _TracedReader(tracer, _f(*a, **k)))
            else:
                wrapper = _wrap(tracer, name, original, **opts)
            saved.append((module, attr, original))
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def step_flop(B: int, T: int, D: int, F: int, V: int, L: int) -> int:
    """Matmul FLOPs of one training step of the encoder, from its shapes.

    Forward per layer: Q, K, V and output projections (8BTD^2), scores and
    context (4BT^2D), feed-forward in and out (4BTDF); then the tied
    output head (2BTDV). Backward runs two matmuls of the same size for
    each forward one, so a step is three forwards. Element-wise work is
    left out.
    """
    forward = L * (8 * B * T * D * D + 4 * B * T * T * D + 4 * B * T * D * F) + 2 * B * T * D * V
    return 3 * forward


def step_bytes(B: int, T: int, D: int, H: int, F: int, V: int, L: int, max_len: int) -> int:
    """Float64 bytes one training step must move at least, from shapes.

    Parameters: read in forward and backward, gradient written, and Adam
    reading parameter, gradient and both moments and writing three
    (10 passes). Activations the backward pass uses: written once, read
    once.
    """
    per_layer_params = 4 * D * D + 2 * D * F + F + 9 * D
    params = V * D + max_len * D + V + L * per_layer_params
    per_layer_acts = 8 * B * T * D + 2 * B * T * F + B * H * T * T
    acts = L * per_layer_acts + B * T * V + B * T * D
    return 8 * (10 * params + 2 * acts)


def _pct(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)]


SUBCOMMANDS = ("extract", "build_dataset", "train", "eval", "predict")


def layer_metrics(t: Tracer, iterations: int, model: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of ``iterations`` traced loop passes.

    Times and counts are per pass; ratios and percentiles pool all passes.
    """
    totals = t.totals

    def secs(name, kind=1):
        return totals.get(name, [0, 0.0, 0.0])[kind] / iterations

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0] / iterations

    def ratio(a, b):
        return a / b if b else 0.0

    steps, shapes, predicts = t.step_seconds, t.step_shapes, t.predict_seconds
    D, H, F, L, V, max_len = (model[k] for k in ("d_model", "n_heads", "ff_dim", "n_layers",
                                                  "vocab", "max_len"))
    flops = [step_flop(b, tt, D, F, V, L) for b, tt, _ in shapes]
    moved = [step_bytes(b, tt, D, H, F, V, L, max_len) for b, tt, _ in shapes]
    positions = sum(b * tt for b, tt, _ in shapes)
    slots = sum(s for _, _, s in shapes)

    m = {
        "srl_ingest.read_s": secs("srl_ingest.read_corpus"),
        "srl_ingest.sentences": t.sentences / iterations,
        "srl_ingest.skipped": t.skipped / iterations,
        "extraction.extract_sentence_s": secs("extraction.extract_sentence", 2),
        "extraction.calls": calls("extraction.extract_sentence"),
        "extraction.write_tuples_s": secs("extraction.write_tuples"),
        "extraction.read_tuples_s": secs("extraction.read_tuples"),
        "extraction.yield": ratio(t.tuples, t.temporal_args),
        "seeding.stream_rng_s": secs("seeding.stream_rng"),
        "seeding.stream_rng_calls": calls("seeding.stream_rng"),
        "targets.soft_target_s": secs("targets.soft_target"),
        "targets.soft_target_calls": calls("targets.soft_target"),
        "targets.soft_target_distinct": len(t.distinct_targets),
        "targets.weights_s": secs("targets.weights"),
        "sequences.build_vocabulary_s": secs("sequences.build_vocabulary"),
        "sequences.build_sequence_s": secs("sequences.build_sequence"),
        "sequences.build_sequence_calls": calls("sequences.build_sequence"),
        "sequences.apply_masking_s": secs("sequences.apply_masking", 2),
        "sequences.write_records_s": secs("sequences.write_records"),
        "sequences.read_records_s": secs("sequences.read_records"),
        "sequences.mean_len": ratio(t.record_tokens, t.records),
        "model.assemble_batch_s": secs("model.assemble_batch"),
        "model.loss_and_gradients_s": secs("model.loss_and_gradients"),
        "model.adam_step_s": secs("model.adam_step"),
        "model.steps": len(steps) / iterations,
        "model.step_ms_p50": 1e3 * statistics.median(steps) if steps else 0.0,
        "model.step_ms_p99": 1e3 * _pct(steps, 0.99) if steps else 0.0,
        "model.positions_per_step": ratio(positions, len(shapes)),
        "model.slots_per_step": ratio(slots, len(shapes)),
        "model.supervised_ratio": ratio(slots, positions),
        "model.step_gflop": ratio(sum(flops), len(flops)) / 1e9,
        "model.step_bytes": ratio(sum(moved), len(moved)),
        "model.gflops_per_s": ratio(sum(flops), sum(steps)) / 1e9,
        "model.save_checkpoint_s": secs("model.save_checkpoint"),
        "model.forward_s": secs("model.forward"),
        "model.forward_calls": calls("model.forward"),
        "model.predict_value_distribution_s": secs("model.predict_value_distribution"),
        "model.predict_ms_p50": 1e3 * statistics.median(predicts) if predicts else 0.0,
        "model.predict_ms_p99": 1e3 * _pct(predicts, 0.99) if predicts else 0.0,
        "model.load_checkpoint_s": secs("model.load_checkpoint"),
        "evaluation.evaluate_s": secs("evaluation.evaluate"),
        "evaluation.distribution_csv_lines_s": secs("evaluation.distribution_csv_lines"),
    }
    _, _, query_forwards = t.children("model.predict_value_distribution", "model.forward")
    m["evaluation.forwards_per_query"] = ratio(
        query_forwards, totals.get("model.predict_value_distribution", [0])[0])
    self_total = 0.0
    coverage = {}
    for sub in SUBCOMMANDS:
        total, covered, _ = t.children("cli." + sub)
        m[f"cli.{sub}_s"] = total / iterations
        self_total += total - covered
        coverage[sub] = ratio(covered, total)
        m[f"bench.span_coverage.{sub}"] = coverage[sub]
    m["cli.self_s"] = self_total / iterations
    m["bench.span_coverage"] = min(coverage.values())
    return m
