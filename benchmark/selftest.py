"""The benchmark's own tests.

    python3 benchmark/selftest.py          # about 6 minutes on 2 cores

Not part of the package's test suite: each test runs the benchmark.
``test_every_metric_emitted`` runs every workload briefly in both modes and
checks that each metric BENCHMARK.json names comes out, and that the traced
layer self times add up to the traced op time.
``test_repeat_agrees`` runs every workload twice on one seed for the full
``run_seconds`` and checks that the two runs agree within the end-to-end
bounds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYER_BUCKETS = ("cli", "synth", "estimation", "fitting", "theory", "process", "bench")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def test_every_metric_emitted(self):
        for workload in WORKLOADS:
            for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    result = run(workload, seed=1, seconds=1, trace=trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(list(metrics), [m["name"] for m in listed])
                    for m in listed:
                        value = metrics[m["name"]]["value"]
                        self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                        self.assertTrue(math.isfinite(value), m["name"])
                        if trace == 0:
                            self.assertGreater(value, 0.0, m["name"])
                    if trace == 1:
                        value = {name: metrics[name]["value"] for name in metrics}
                        total = sum(value[f"{layer}.self_s"] for layer in LAYER_BUCKETS)
                        self.assertAlmostEqual(total, value["trace.op_s"], delta=1e-6)
                        self.assertAlmostEqual(
                            value["trace.op_s"] - value["trace.untraced_op_s"],
                            value["trace.overhead_s"], delta=1e-9,
                        )

    def test_repeat_agrees(self):
        for workload in WORKLOADS:
            first, second = (run(workload, 2, SPEC["run_seconds"], 0) for _ in range(2))
            for m in SPEC["end_to_end"]:
                with self.subTest(workload=workload, metric=m["name"]):
                    a = first["metrics"][m["name"]]["value"]
                    b = second["metrics"][m["name"]]["value"]
                    self.assertLessEqual(abs(a - b) / min(a, b), m["bound"], (a, b))


if __name__ == "__main__":
    unittest.main()
