#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

* A tiny-size smoke run of each workload, untraced and traced, checks
  that every metric named in BENCHMARK.json is present, with its unit
  and a finite value, and that every answer was correct.
* A sabotage run of each workload flips one bit of one reference answer:
  the oracle must count the answer as failed and the run must fail.
* Outside a repository checkout (only BENCHMARK.json and the benchmark's
  files), the benchmark must exit nonzero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
# Every workload the benchmark defines, including `read-write`, which
# BENCHMARK.json does not list (see perfbench/README.md).
WORKLOADS = ["read-hot", "read-write", "oneshot-cli"]


def run(workload, trace, *extra, cwd=ROOT):
    args = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=900)


def result(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class Benchmark(unittest.TestCase):
    def check_metrics(self, workload, trace, names):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stdout[-3000:] + done.stderr[-3000:])
        r = result(done)
        self.assertEqual(sorted(r), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(r["correct"])
        self.assertGreaterEqual(r["attempted"], 1)
        self.assertEqual(r["failed"], 0)
        for m in names:
            got = r["metrics"].get(m["name"])
            self.assertIsNotNone(got, f"{workload}: {m['name']} missing")
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        self.assertEqual(len(r["metrics"]), len(names))

    def test_workloads_are_defined(self):
        for w in SPEC["workloads"]:
            self.assertIn(w["name"], WORKLOADS)

    def test_smoke_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(w, 0, SPEC["end_to_end"])

    def test_smoke_per_layer(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(w, 1, SPEC["per_layer"])

    def test_sabotaged_reference_fails_the_run(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                done = run(w, 0, "--sabotage")
                self.assertNotEqual(done.returncode, 0)
                r = result(done)
                self.assertIsNotNone(r, done.stderr[-3000:])
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)

    def test_fails_without_the_repository(self):
        bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("target"))
        try:
            done = run(WORKLOADS[0], 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
