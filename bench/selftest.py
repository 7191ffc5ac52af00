"""Self-test of the benchmark harness at tiny sizes (about 20 seconds).

    python3 bench/selftest.py
"""

import json
import math
import sys
import unittest
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from inputs import WORKLOADS, mining_corpus  # noqa: E402

TINY = replace(WORKLOADS["query"], mine_sentences=400, mine_repeat=2, train_sentences=300,
               epochs=1, extra_gold=20, queries=40, query_repeat=2, once=1, max_distance=20.0)
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# Per-layer metrics that read 0 on a correct run; every other one is a
# count, time or ratio of a stage the tiny run exercises, so 0 there
# means a wrapper stopped firing.
MAY_BE_ZERO = {"srl_ingest.skipped", "bench.trace_overhead", "bench.failed_ratio"}


def _run(seed: int, trace: bool = False, corrupt=None, seconds: float = 0.0) -> dict:
    return run.run("query", seed, seconds, trace, spec=TINY, corrupt=corrupt)


class MetricsTest(unittest.TestCase):
    def test_every_declared_metric_is_reported_with_its_unit(self):
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            # Coverage sums every traced pass; a single tiny pass is short
            # enough that one slow moment of the machine can sink it.
            report = _run(5, trace, seconds=12.0 if trace else 0.0)
            result = report["result"]
            self.assertTrue(result["correct"], report["failures"])
            self.assertEqual(report["undeclared_metrics"], [])
            self.assertEqual(list(result["metrics"]), [m["name"] for m in DECLARED[kind]])
            for m in DECLARED[kind]:
                got = result["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"])
                self.assertIsInstance(got["value"], (int, float), m["name"])
                self.assertTrue(math.isfinite(got["value"]), m["name"])
                if m["name"] not in MAY_BE_ZERO:
                    self.assertGreater(got["value"], 0, m["name"])
                if not trace:
                    self.assertGreater(report["as_measured"][m["name"]], 0, m["name"])
            if trace:
                for m in DECLARED[kind]:
                    if m["name"].startswith("bench.span_coverage"):
                        self.assertGreaterEqual(result["metrics"][m["name"]]["value"], 0.9,
                                                m["name"])

    def test_step_gflop_matches_a_hand_count(self):
        B, T, D, F, V, L = 2, 3, 4, 8, 10, 1
        forward = (
            4 * (2 * B * T * D * D)      # Q, K, V, output projections: 768
            + 2 * (2 * B * T * T * D)    # scores and attention-weighted values: 288
            + 2 * (2 * B * T * D * F)    # feed-forward in and out: 768
            + 2 * B * T * D * V          # tied output head: 480
        )
        self.assertEqual(forward, 2304)
        self.assertEqual(spans.step_flop(B, T, D, F, V, L), 3 * 2304)

        tracer = spans.Tracer()
        tracer.step_seconds.append(0.5)
        tracer.step_shapes.append((B, T, 1))
        model = {"d_model": D, "n_heads": 2, "ff_dim": F, "n_layers": L, "vocab": V, "max_len": 8}
        metrics = spans.layer_metrics(tracer, 1, model)
        self.assertEqual(metrics["model.step_gflop"], 6912 / 1e9)
        self.assertEqual(metrics["model.gflops_per_s"], 6912 / 0.5 / 1e9)

    def test_times_are_stated_at_the_reference_speed(self):
        for kind, nominal in speed.NOMINAL_S.items():
            self.assertEqual(speed.at_reference(2.0, nominal, kind), 2.0)
            self.assertEqual(speed.at_reference(2.0, 2 * nominal, kind), 1.0)
        self.assertGreater(speed.probe(), 0.0)
        self.assertGreater(speed.fresh_probe(run._env(), 60), 0.0)

    def test_mining_corpus_yields_one_tuple_per_two_temporal_arguments(self):
        from tempomine import extract_sentence

        corpus = mining_corpus(60, seed=4)
        self.assertTrue(all(len(s.frames) == 2 for s in corpus))
        self.assertTrue(all(s.left_context or s.right_context for s in corpus))
        self.assertEqual([len(extract_sentence(s)) for s in corpus], [1] * 60)


class OutputCheckTest(unittest.TestCase):
    def test_corrupted_outputs_fail_their_checks(self):
        def corrupt(op, work):
            if op == "extract":
                path = work / "tuples.jsonl"
                path.write_text("".join(path.read_text().splitlines(True)[:-1]))
            elif op == "predict":
                path = work / "predict.csv"
                lines = path.read_text().splitlines(True)
                label, prob = lines[-1].rsplit(",", 1)
                lines[-1] = f"{label},{float(prob) + 1e-6!r}\n"
                path.write_text("".join(lines))

        report = _run(6, corrupt=corrupt)
        failed_ops = {label.split("#")[0] for _, label, _ in report["failures"]}
        self.assertLessEqual({"extract", "predict"}, failed_ops)
        self.assertFalse(report["result"]["correct"])
        self.assertGreater(report["failed_ratio"], 0.0)

    def test_artifact_bytes_must_repeat_across_runs(self):
        self.assertTrue(_run(7)["result"]["correct"])

        def touch_header(op, work):
            if op == "eval":
                path = work / "eval.csv"
                path.write_text("# edited\n" + path.read_text())

        report = _run(7, corrupt=touch_header)
        self.assertEqual([(op, msgs) for _, op, msgs in report["failures"]],
                         [("eval:eval.csv", ["eval:eval.csv differs from an earlier run"])])
        self.assertEqual(report["result"]["failed"], 1)


if __name__ == "__main__":
    unittest.main()
