"""Self-tests of the benchmark itself (not of the package).

    python3 bench/selftest.py            # fast tests, a few seconds
    BENCH_SEED_CHECK=1 python3 bench/selftest.py   # adds the held-out seed run

The held-out seed check runs the whole benchmark six times per workload at
the ``run_seconds`` of ``BENCHMARK.json`` (about ten minutes), so it is
opt-in.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import unittest
from array import array
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from oob import optimizer  # noqa: E402

import layers  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, root_ns, summarize  # noqa: E402
from workloads import WORKLOADS, Optimize, check_run_result  # noqa: E402

# Seed used while the benchmark was written, and one that was not.
WRITING_SEED = 1
HELD_OUT_SEED = 271828


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 100] > a [10, 40] > a1 [15, 25]; root > b [50, 90]; lone [120, 130]
        names = ["root", "a", "a1", "b", "lone"]
        spans = [(0, -1, 0, 100), (1, 0, 10, 40), (2, 1, 15, 25), (3, 0, 50, 90), (4, -1, 120, 130)]
        name, parent, start, end = (array("q", col) for col in zip(*spans))
        out = summarize(names, name, parent, start, end, array("q", [0] * 5))
        self.assertEqual({k: v["self_ns"] for k, v in out.items()},
                         {"root": 30, "a": 20, "a1": 10, "b": 40, "lone": 10})
        self.assertEqual(sum(v["self_ns"] for v in out.values()), root_ns(parent, start, end))

    def test_overlapping_child_shows_negative_self(self):
        name, parent = array("q", [0, 1]), array("q", [-1, 0])
        out = summarize(["p", "c"], name, parent, array("q", [0, 5]), array("q", [10, 20]),
                        array("q", [0, 0]))
        self.assertLess(out["p"]["min_self_ns"], 0)

    def test_tracer_nests_real_calls(self):
        class Box:
            def inner(self):
                return 3

            def outer(self):
                return self.inner() + 1

        with Tracer() as tracer:
            tracer.patch(Box, "inner", "t.inner", count=lambda r: r)
            tracer.patch(Box, "outer", "t.outer")
            self.assertEqual(Box().outer(), 4)
        self.assertEqual(list(tracer.parent), [-1, 0])
        out = tracer.summary()
        self.assertEqual(out["t.inner"]["count"], 3)
        self.assertEqual(out["t.outer"]["total_ns"] - out["t.inner"]["total_ns"],
                         out["t.outer"]["self_ns"])
        self.assertNotIn("__wrapped__", vars(Box.outer))


class Checker(unittest.TestCase):
    def setUp(self):
        self.eps, self.seed = 0.05, 12345
        self.result = optimizer.run_oob(self.eps, self.seed)

    def test_accepts_real_result(self):
        self.assertIsNone(check_run_result(self.eps, self.seed, self.result))

    def test_rejects_m_hat_below_the_trace_maximum(self):
        # An evaluated point, but not the best one.
        t, w = min(self.result.trace, key=lambda point: point[1])
        doctored = replace(self.result, t_hat=t, m_hat=w)
        self.assertIn("trace maximum", check_run_result(self.eps, self.seed, doctored))

    def test_rejects_m_hat_off_the_trace(self):
        doctored = replace(self.result, m_hat=self.result.m_hat + 1e-9)
        self.assertIsNotNone(check_run_result(self.eps, self.seed, doctored))

    def test_rejects_n_evals_over_cap(self):
        cap = 2 ** (self.result.h_max + 1)
        extra = tuple((0.5, -1.0) for _ in range(cap + 1 - self.result.n_evals))
        doctored = replace(self.result, trace=self.result.trace + extra, n_evals=cap + 1)
        self.assertIn("cap", check_run_result(self.eps, self.seed, doctored))

    def test_rejects_wrong_h_max(self):
        doctored = replace(self.result, h_max=self.result.h_max + 1)
        self.assertIn("h_max", check_run_result(self.eps, self.seed, doctored))


class TracedRun(unittest.TestCase):
    def test_attributes_restored_and_digest_kept(self):
        with tempfile.TemporaryDirectory() as scratch:
            for name, cls in WORKLOADS.items():
                with self.subTest(workload=name):
                    workload = cls(WRITING_SEED, Path(scratch))
                    inputs = workload.inputs(0)[:3]
                    plain = [workload.check(i, workload.call(i)).digest for i in inputs]
                    before = layers.snapshot()
                    with Tracer() as tracer:
                        layers.install(tracer)
                        self.assertTrue(layers.changed_names(before))
                        traced = [workload.check(i, workload.call(i)).digest for i in inputs]
                    self.assertEqual(layers.changed_names(before), [])
                    self.assertEqual(plain, traced)
                    self.assertGreater(len(tracer.name), len(inputs))

    def test_loop_counts_a_failing_call(self):
        class Broken(Optimize):
            def call(self, inp):
                raise RuntimeError("boom")

        stats = worker.loop(Broken(WRITING_SEED, Path(".")), 0.0)
        self.assertEqual(stats["failed"], stats["calls"])
        self.assertEqual(stats["trials"], 0)


@unittest.skipUnless(os.environ.get("BENCH_SEED_CHECK"), "set BENCH_SEED_CHECK=1 (minutes)")
class HeldOutSeed(unittest.TestCase):
    # Machine speed drifts between runs by more than a bound, so single runs
    # are not compared: each seed runs REPEATS times, alternating, and the
    # medians are.
    REPEATS = 3

    def test_end_to_end_within_bounds(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {WRITING_SEED: [], HELD_OUT_SEED: []}
            for _ in range(self.REPEATS):
                for seed, results in runs.items():
                    results.append(_run(workload, seed, spec["run_seconds"]))
            for metric in spec["end_to_end"]:
                a, b = (
                    statistics.median(r["metrics"][metric["name"]]["value"] for r in results)
                    for results in runs.values()
                )
                with self.subTest(workload=workload, metric=metric["name"], medians=(a, b)):
                    self.assertTrue(all(r["correct"] for rs in runs.values() for r in rs))
                    self.assertLessEqual(abs(b - a) / a, metric["bound"])


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


if __name__ == "__main__":
    unittest.main()
