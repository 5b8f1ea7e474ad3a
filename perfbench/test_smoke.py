#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size.

Run from the root of the repository:

    python3 perfbench/test_smoke.py

For each workload, with tracing off and on, it checks that the result
line carries every metric BENCHMARK.json names, with its unit, and that
no op failed. It also checks that the benchmark fails, without printing a
result, when the repository's sources are absent.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = os.path.join("perfbench", "run.py")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result(self, workload, trace):
        out = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--smoke"])
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), (m["name"], got))

    def test_every_workload_reports_every_metric(self):
        for w in self.spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_result(w["name"], trace)

    def test_fails_without_the_repository(self):
        bare = os.path.join(ROOT, ".bench_runs", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.makedirs(bare)
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in self.spec["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("target", "__pycache__"))
            out = run(["--workload", self.spec["workloads"][0]["name"], "--seed", "1",
                       "--seconds", "1", "--trace", "0"], cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
