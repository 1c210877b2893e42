#!/usr/bin/env python3
"""Self-test of the repository benchmark, at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout. Runs all four workloads untraced and
traced through run.py and checks that:

  * every metric BENCHMARK.json names is printed with its unit, and the
    outputs were judged correct;
  * the traced pass reproduced the untraced results bit for bit (the
    harness compares every traced household and counts any difference as a
    failure; for the fleets both passes must also match the same recorded
    aggregates);
  * a corrupted recorded aggregate makes the command fail.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1


def run(workload, trace, reference=None):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(SEED), "--seconds", "1", "--trace",
               str(trace), "--tiny"]
    if reference is not None:
        command += ["--reference", reference]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), \
        done.stderr


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_run(self, workload, trace):
        code, result, stderr = run(workload, trace)
        self.assertEqual(code, 0, stderr[-3000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(printed["value"], (int, float))

    def test_workloads_untraced_and_traced(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_corrupted_reference_fails(self):
        with open(os.path.join(HERE, "reference.json")) as f:
            reference = json.load(f)
        recorded = reference["fleet_rl/tiny"][str(SEED)]
        recorded["sr.mean"] = repr(float(recorded["sr.mean"]) * (1 + 1e-15))
        path = os.path.join(ROOT, ".bench_build", "corrupted_reference.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(reference, f)
        try:
            code, result, stderr = run("fleet_rl", 0, reference=path)
        finally:
            os.remove(path)
        self.assertNotEqual(code, 0)
        self.assertIsNotNone(result, stderr[-3000:])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
