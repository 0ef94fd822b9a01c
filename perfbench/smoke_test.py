#!/usr/bin/env python3
"""Smoke test of the benchmark: a short pass of every workload in both modes.

Run from the repository root:

    python3 perfbench/smoke_test.py

Each pass goes through `perfbench/run.py` (which builds what it needs) with
`--seconds 1`, and checks the contract of its last output line: exactly the
keys correct/attempted/failed/metrics, every output correct, and every metric
that `BENCHMARK.json` names for the mode present, with its unit and a finite
value (non-zero for end-to-end metrics).
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return out.returncode, out.stdout.strip().splitlines(), out.stderr


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        code, lines, stderr = run(workload, trace)
        self.assertEqual(code, 0, stderr[-2000:])
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in expected))
        for metric in expected:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])
            if not trace:
                self.assertGreater(got["value"], 0, metric["name"])
        # One human-readable line per metric precedes the result.
        printed = [line.split()[1] for line in lines if line.startswith("metric ")]
        self.assertEqual(sorted(printed), sorted(m["name"] for m in expected))


def add_cases():
    for workload in [w["name"] for w in BENCHMARK["workloads"]]:
        for trace in (0, 1):
            setattr(Smoke, f"test_{workload}_trace{trace}",
                    lambda self, w=workload, t=trace: self.check(w, t))


add_cases()

if __name__ == "__main__":
    unittest.main()
