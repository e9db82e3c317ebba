#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py        # about two minutes

Every metric BENCHMARK.json names must be emitted, with its unit, on
every workload; the correctness gates must fail a run fed a wrong
expectation; a second seed must give the same fail rate and metrics of
the same size.
"""

import functools
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def run(workload, trace=0, seed=1, perturb=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    if perturb:
        cmd.append("--perturb-expected")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().split("\n")[-1])


class Gates(unittest.TestCase):
    def test_self_test(self):
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                              "--self-test"], cwd=ROOT, capture_output=True,
                             text=True)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr[-3000:])
        self.assertNotIn("FAIL", out.stdout)

    def test_wrong_expectation_fails_every_query(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = run(w, perturb=True)
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], r["attempted"])


class Metrics(unittest.TestCase):
    def check(self, result, spec):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = run(w)
                self.check(r, SPEC["end_to_end"])
                for name, m in r["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(run(w, trace=1), SPEC["per_layer"])

    def test_second_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = run(w), run(w, seed=2)
                self.assertEqual(a["failed"] / a["attempted"],
                                 b["failed"] / b["attempted"])
                for name, m in a["metrics"].items():
                    ratio = m["value"] / b["metrics"][name]["value"]
                    self.assertTrue(1 / 3 < ratio < 3, (name, ratio))


if __name__ == "__main__":
    unittest.main()
