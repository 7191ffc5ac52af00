"""Benchmark: mine, train and query through the tempomine CLI, end to end.

    python3 bench/run.py --workload {mine,train,query} --seed N --seconds S --trace {0,1}

One process runs one workload as a closed loop: a single client calls
``tempomine.cli.main`` for extract, build-dataset, train, eval and
predict --input, then runs fresh-process ``predict --event`` calls, each
call issued after the previous one returns, and repeats the pass until
``--seconds`` have elapsed. Every output is checked; a non-zero exit or a
failed check counts as a failed operation.

The host's speed swings by up to 2x within a run, so every call is paired
with probes of a fixed reference task (``speed.py``) and the end-to-end
metrics state each call's time at the reference speed; the report lines give each
one as measured too.

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric of BENCHMARK.json. With ``--trace 1`` passes alternate
between untraced and traced, and the metrics are the per-layer ones.
Earlier stdout lines report machine facts, sample counts and failures;
bench/results/ keeps a JSON copy of each run.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

sys.path[:0] = [str(BENCH), str(SRC)]
import speed  # noqa: E402
from inputs import MODEL_FLAGS, TRAIN_CORPUS_SEED, WORKLOADS, Workload  # noqa: E402

IMPORT_PROBE = ("import time; t = time.perf_counter(); import tempomine, tempomine.cli; "
                "print(time.perf_counter() - t)")
# What the installed `tempomine` console script runs.
CLI_ENTRY = "import sys; from tempomine.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 120


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _data_lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip() and not line.startswith("#")]


def _blas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    import ctypes

    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "numpy": numpy.__version__,
             "scipy": scipy.__version__, "seed": seed}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                       if line.startswith("model name")), None)
    except OSError:
        facts["cpu_model"] = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts[f"L{level}"] = size
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts.update(blas=blas.get("name"), blas_version=blas.get("version"),
                 blas_threads=_blas_threads())
    return facts


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class Pass:
    """One closed-loop pass over the pipeline and its output checks."""

    def __init__(self, work: Path, spec: Workload, seed: int, expected: dict, corrupt=None):
        self.w = work
        self.spec = spec
        self.seed = seed
        self.expected = expected
        self.corrupt = corrupt

    def schedule(self) -> list[tuple[str, list[str]]]:
        """The pass's calls in order: train, then rounds of the other stages.

        Machine speed changes within seconds, so a stage's repeats are
        spread over the pass in rounds rather than run back to back. "once"
        is a fresh-process ``predict --event`` and "import" a fresh-process
        import of the package; every other call runs in-process.
        """
        w, s, spec = self.w, str(self.seed), self.spec
        model = ["--model", str(w / "model.ckpt"), "--vocab", str(w / "train.jsonl.vocab.tsv")]
        extract, build, train, evaluate, predict = [
            ("extract", ["extract", "--input", str(w / "corpus.jsonl"),
                         "--output", str(w / "tuples.jsonl"), "--seed", s]),
            ("build_dataset", ["build-dataset", "--input", str(w / "tuples.jsonl"),
                               "--output", str(w / "records.jsonl"), "--ms",
                               "--corpus", str(w / "corpus.jsonl"), "--seed", s]),
            ("train", ["train", "--input", str(w / "train.jsonl"),
                       "--vocab", str(w / "train.jsonl.vocab.tsv"),
                       "--output", str(w / "model.ckpt"), "--val-fraction", "0.1",
                       "--epochs", str(spec.epochs),
                       "--learning-rate", repr(spec.learning_rate),
                       *MODEL_FLAGS, "--seed", str(TRAIN_CORPUS_SEED)]),
            ("eval", ["eval", "--input", str(w / "gold.jsonl"), *model,
                      "--output", str(w / "eval.csv")]),
            ("predict", ["predict", "--input", str(w / "queries.jsonl"), *model,
                         "--output", str(w / "predict.csv")]),
        ]
        calls = [train]
        for i in range(max(spec.mine_repeat, spec.query_repeat, spec.once)):
            if i < spec.mine_repeat:
                calls += [extract, build]
            if i < spec.query_repeat:
                calls += [evaluate, predict]
            if i < spec.once:
                tokens, verb, dim = self.expected["queries"][i]
                calls.append(("once", [sys.executable, "-c", CLI_ENTRY, "predict", *model,
                                       "--event", " ".join(tokens), "--verb-index", str(verb),
                                       "--dimension", dim]))
                calls.append(("import", [sys.executable, "-c", IMPORT_PROBE]))
        return calls

    def run(self, tracer=None) -> dict:
        """Run the schedule once. ``t`` holds each stage's call times as
        measured and ``ref`` the same times at the reference speed: an
        in-process call is scaled by the mean of the in-process probes run
        just before, during (every tenth of a second) and just after it, a
        fresh process by a fresh-process probe run just before it."""
        out = {"t": {}, "ref": {}, "failures": [], "hashes": {}, "distance": None, "ops": 0,
               "probes": [speed.probe()], "fresh_probes": []}
        for name, argv in self.schedule():
            label = f"{name}#{out['ops']}"
            out["ops"] += 1
            if name in ("import", "once"):
                out["fresh_probes"].append(speed.fresh_probe(_env(), CHILD_TIMEOUT_S))
                if name == "import":
                    problems, elapsed = self._import(argv)
                else:
                    problems, elapsed = self._fresh(out, argv)
                ref = speed.at_reference(elapsed, out["fresh_probes"][-1], "fresh")
                out["probes"].append(speed.probe())
            else:
                # Traced passes give no end-to-end numbers; their spans
                # should not hold the sampler's probes.
                sampler = speed.Sampler(active=tracer is None)
                problems, elapsed = self._in_process(out, name, argv, tracer, sampler)
                out["probes"].append(speed.probe())
                speeds = [out["probes"][-2], *sampler.samples, out["probes"][-1]]
                ref = speed.at_reference(elapsed, statistics.mean(speeds), "mixed")
            if problems:
                out["failures"].append((label, problems))
            else:
                out["t"].setdefault(name, []).append(elapsed)
                out["ref"].setdefault(name, []).append(ref)
        return out

    def _in_process(self, out, name, argv, tracer, sampler):
        from tempomine.cli import main

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            frame = tracer.enter(tracer.name_id("cli." + name), new_op=True) if tracer else None
            start = perf_counter()
            try:
                with sampler:
                    code = main(argv)
            except SystemExit as exc:
                code = exc.code
            finally:
                elapsed = perf_counter() - start - sampler.spent
                if frame:
                    tracer.exit(frame)
        if self.corrupt:
            self.corrupt(name, self.w)
        if code != 0:
            return [f"exit {code}: {sink.getvalue().strip()[-300:]}"], elapsed
        try:
            return getattr(self, "check_" + name)(out, name), elapsed
        except (OSError, ValueError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"], elapsed

    def _fresh(self, out, cmd):
        """One fresh-process predict --event, run the way the installed
        ``tempomine`` script runs it; ``cmd`` ends with the dimension."""
        start = perf_counter()
        try:
            proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return [f"no answer within {CHILD_TIMEOUT_S} s"], None
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"], elapsed
        query = " ".join(cmd[-5:])
        out["hashes"][f"once {query}:stdout"] = hashlib.sha256(proc.stdout.encode()).hexdigest()
        rows = [line for line in proc.stdout.splitlines() if line and not line.startswith("#")]
        try:
            return _check_distribution(rows[1:], cmd[-1], f"once {query}: "), elapsed
        except (ValueError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"], elapsed

    @staticmethod
    def _import(cmd):
        """Fresh-process import time of tempomine and tempomine.cli, timed
        inside the child. The input generator has imported the package
        already, so the bytecode cache is warm, as for a user's second run."""
        try:
            proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return [f"no answer within {CHILD_TIMEOUT_S} s"], None
        if proc.returncode != 0:
            return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"], None
        try:
            return [], float(proc.stdout.strip())
        except ValueError:
            return [f"unreadable output: {proc.stdout.strip()[-300:]!r}"], None

    def _hash(self, out, op, *files) -> list[str]:
        """Record each file's digest; a repeat within the pass must match."""
        problems = []
        for f in files:
            key, digest = f"{op}:{f}", _sha256(self.w / f)
            if out["hashes"].setdefault(key, digest) != digest:
                problems.append(f"{f} differs from its first repeat in this pass")
        return problems

    def check_extract(self, out, op) -> list[str]:
        problems = self._hash(out, op, "tuples.jsonl")
        n = len(_data_lines(self.w / "tuples.jsonl"))
        want = self.expected["tuples"]
        return problems + ([] if n == want else [f"{n} tuples, expected {want}"])

    def check_build_dataset(self, out, op) -> list[str]:
        problems = self._hash(out, op, "records.jsonl", "records.jsonl.vocab.tsv")
        n = len(_data_lines(self.w / "records.jsonl"))
        want = self.expected["records"]
        return problems + ([] if n == want else [f"{n} records, expected {want}"])

    def check_train(self, out, op) -> list[str]:
        problems = self._hash(out, op, "model.ckpt")
        rows = [line.split(",") for line in _data_lines(self.w / "model.ckpt.loss.csv")[1:]]
        bad = [r for r in rows if not math.isfinite(float(r[2]))]
        epochs = sum(1 for r in rows if r[1] == "train")
        if bad:
            problems.append(f"non-finite loss in {bad}")
        if epochs != self.spec.epochs:
            problems.append(f"{epochs} train epochs logged, expected {self.spec.epochs}")
        return problems

    def check_eval(self, out, op) -> list[str]:
        problems = self._hash(out, op, "eval.csv")
        rows = [line.split(",") for line in _data_lines(self.w / "eval.csv")[1:]]
        counts = {r[0]: int(r[1]) for r in rows}
        if counts != self.expected["gold_by_dim"]:
            problems.append(f"eval counts {counts} != gold {self.expected['gold_by_dim']}")
        n = sum(int(r[1]) for r in rows)
        distance = sum(int(r[1]) * float(r[2]) for r in rows) / n if n else math.nan
        if not distance < self.spec.max_distance:
            problems.append(f"held-out mean distance {distance} not below {self.spec.max_distance}")
        out["distance"] = distance
        return problems

    def check_predict(self, out, op) -> list[str]:
        problems = self._hash(out, op, "predict.csv")
        blocks: dict[str, list[str]] = {}
        for line in _data_lines(self.w / "predict.csv")[1:]:
            event_id, rest = line.split(",", 1)
            blocks.setdefault(event_id, []).append(rest)
        queries = self.expected["queries"]
        if list(blocks) != [str(i) for i in range(len(queries))]:
            problems.append(f"{len(blocks)} events in predict output, expected {len(queries)}")
        for i, (_, _, dim) in enumerate(queries):
            rows = blocks.get(str(i), [])
            if any(not r.startswith(dim + ",") for r in rows):
                problems.append(f"event {i}: rows of another dimension than {dim}")
                continue
            problems += _check_distribution([r.split(",", 1)[1] for r in rows], dim, f"event {i}: ")
        return problems[:5]


def _check_distribution(rows: list[str], dim: str, where: str) -> list[str]:
    """rows are 'label,probability': one per label of ``dim``, in order, summing to 1."""
    from tempomine import TemporalDimension, label_space

    labels = [r.split(",")[0] for r in rows]
    want = list(label_space(TemporalDimension(dim)).labels)
    if labels != want:
        return [f"{where}labels {labels} != {want}"]
    total = math.fsum(float(r.split(",")[1]) for r in rows)
    return [] if abs(total - 1.0) <= 1e-9 else [f"{where}probabilities sum to {total!r}"]


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def run(workload: str, seed: int, seconds: float, trace: bool,
        spec: Workload | None = None, corrupt=None) -> dict:
    """Run one workload; return the result line plus the full report."""
    spec = spec or WORKLOADS[workload]
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        cmd = [sys.executable, str(BENCH / "inputs.py"), "--spec", json.dumps(spec.__dict__),
               "--seed", str(seed), "--out", str(work)]
        subprocess.run(cmd, env=_env(), check=True, timeout=CHILD_TIMEOUT_S)
        expected = json.loads((work / "expected.json").read_text())
        return _measure(workload, seed, seconds, trace, spec, work, expected, corrupt)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, seed, seconds, trace, spec, work, expected, corrupt) -> dict:
    import tempomine
    import tempomine.cli

    import spans

    if Path(tempomine.__file__).resolve().parent != SRC / "tempomine":
        raise RuntimeError(f"imported tempomine from {tempomine.__file__}, not {SRC}")
    inputs = _digest(sorted(work.iterdir()))
    tracer = spans.Tracer() if trace else None
    one_pass = Pass(work, spec, seed, expected, corrupt)
    # An untimed warm-up pass fills caches, the allocator and lazy imports;
    # its outputs are checked like any other pass's.
    warmup = one_pass.run()
    warmup["traced"] = False
    passes = [warmup]
    start = perf_counter()
    # Traced runs alternate untraced and traced passes. Machine speed drifts
    # within a run, so samples are spread across it: every pass runs every
    # stage and one import sample.
    while True:
        traced = trace and len(passes) % 2 == 0
        with spans.traced(tracer) if traced else contextlib.nullcontext():
            result = one_pass.run(tracer if traced else None)
        result["traced"] = traced
        passes.append(result)
        if perf_counter() - start >= seconds and (not trace or len(passes) >= 3):
            break

    # Same-seed artifacts must be byte-identical across passes, traced or not,
    # and across runs of the same program on the same inputs.
    reference = dict(passes[0]["hashes"])
    program = _digest(sorted((SRC / "tempomine").glob("*.py")))
    RESULTS.mkdir(exist_ok=True)
    stored_path = RESULTS / f"hashes-{workload}-{seed}.json"
    if stored_path.exists():
        stored = json.loads(stored_path.read_text())
        if stored["program"] == program and stored["inputs"] == inputs:
            for name, digest in stored["artifacts"].items():
                if reference.get(name, digest) != digest:
                    passes[0]["failures"].append((name, [f"{name} differs from an earlier run"]))
    for p in passes[1:]:
        for name, digest in p["hashes"].items():
            if reference.get(name, digest) != digest:
                p["failures"].append((name, [f"{name} differs from the first pass"]))
    if not any(p["failures"] for p in passes):
        stored_path.write_text(json.dumps({"program": program, "inputs": inputs,
                                           "artifacts": reference}, sort_keys=True))

    attempted = sum(p["ops"] for p in passes)
    failed = sum(len({label for label, _ in p["failures"]}) for p in passes)
    plain = [p for p in passes[1:] if not p["traced"]]
    train_records = len(_data_lines(work / "train.jsonl"))

    def samples(stage, key, ps=plain):
        return [x for p in ps for x in p[key].get(stage, ())]

    def rate(work_items, stage, key):
        """Items per second of time spent in the stage over the whole run."""
        seconds = samples(stage, key)
        return work_items * len(seconds) / sum(seconds) if seconds else None

    def end_to_end(key):
        """The end-to-end metrics from the times in ``key``: "ref" at the
        reference speed, "t" as measured."""
        return {
            "setup_s": _median(samples("import", key, passes[1:])),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "extract_sentences_per_s": rate(expected["mine_sentences"], "extract", key),
            "build_records_per_s": rate(expected["records"], "build_dataset", key),
            "train_records_per_s": rate(train_records * spec.epochs, "train", key),
            "heldout_mean_distance": _median(p["distance"] for p in plain
                                             if p["distance"] is not None),
            "query_per_s": rate(len(expected["queries"]), "predict", key),
            "eval_per_s": rate(expected["gold"], "eval", key),
            "predict_once_s": _median(samples("once", key)),
        }

    imports = samples("import", "t", passes[1:])
    once = samples("once", "t")
    probes = {kind: [x for p in passes[1:] for x in p[key]]
              for kind, key in (("mixed", "probes"), ("fresh", "fresh_probes"))}
    if trace:
        vocab = len(_data_lines(work / "train.jsonl.vocab.tsv"))
        dims = dict(zip(MODEL_FLAGS[::2], MODEL_FLAGS[1::2]))
        model = {"d_model": int(dims["--d-model"]), "n_heads": int(dims["--n-heads"]),
                 "ff_dim": int(dims["--ff-dim"]), "n_layers": int(dims["--n-layers"]),
                 "vocab": vocab, "max_len": tempomine.cli.PipelineConfig().max_len}
        traced_passes = [p for p in passes if p["traced"]]
        metrics = spans.layer_metrics(tracer, len(traced_passes), model)
        # Tracing acts on the in-process calls only.
        wall = lambda ps: _median(sum(sum(v) for k, v in p["t"].items()  # noqa: E731
                                      if k not in ("once", "import")) for p in ps)
        metrics["cli.import_s"] = _median(imports)
        metrics["bench.trace_overhead"] = wall(traced_passes) / wall(plain) - 1.0
        metrics["bench.failed_ratio"] = failed / attempted
        RESULTS.mkdir(exist_ok=True)
        tracer.save(str(RESULTS / f"spans-{workload}-{seed}.npz"))
    else:
        metrics = end_to_end("ref")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_facts(seed), "spec": spec.__dict__,
        "passes": len(passes) - 1, "traced_passes": sum(p["traced"] for p in passes),
        "failed_ratio": failed / attempted,
        "failures": [(i, op, msgs) for i, p in enumerate(passes) for op, msgs in p["failures"]],
        "samples": {"setup_s": imports, "predict_once_s": once,
                    "stage_seconds": [p["t"] for p in passes],
                    "stage_seconds_at_reference": [p["ref"] for p in passes]},
        "as_measured": None if trace else end_to_end("t"),
        "speed_probe_s": {kind: {"median": _median(v), "min": min(v), "max": max(v),
                                 "nominal": speed.NOMINAL_S[kind], "samples": len(v)}
                          for kind, v in probes.items() if v},
        "undeclared_metrics": sorted(set(metrics) - set(units)),
        "result": line,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))
    return report


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "tempomine" / "__init__.py").is_file():
        print(f"error: no tempomine package under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# machine " + json.dumps(report["machine"], sort_keys=True))
    print(f"# workload={report['workload']} seed={report['seed']} passes={report['passes']} "
          f"traced_passes={report['traced_passes']} attempted={report['result']['attempted']} "
          f"failed={report['result']['failed']} failed_ratio={report['failed_ratio']:.4f} "
          f"setup_samples={len(report['samples']['setup_s'])} "
          f"predict_once_samples={len(report['samples']['predict_once_s'])}")
    for op in report["failures"]:
        print(f"# FAILED pass {op[0]} {op[1]}: {op[2]}")
    for kind, probe in report["speed_probe_s"].items():
        print(f"# {kind} speed probe: {probe['samples']} samples, median {probe['median']:.6g} s, "
              f"range {probe['min']:.6g}-{probe['max']:.6g} s, nominal {probe['nominal']:.6g} s")
    for name, m in report["result"]["metrics"].items():
        raw = (report["as_measured"] or {}).get(name)
        print(f"# {name} = {m['value']} {m['unit']}"
              + ("" if raw is None else f" (as measured: {raw})"))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
