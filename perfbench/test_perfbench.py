#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

* Smoke: every workload at tiny sizes (--smoke), untraced and traced, with
  all output checks on; each run must be correct, report exactly the
  metrics BENCHMARK.json names, and (traced) write a valid trace file.
* Repeatability: two traced runs with one seed. The counts listed in
  EXACT_COUNTS must repeat exactly; every other count is printed with
  its spread across the two runs.
* Bare directory: with only BENCHMARK.json and perfbench/ present, the
  benchmark must fail without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("wordcount", "climate", "serve")
SEED = 7

# Counts a fixed seed must reproduce exactly (input- or
# configuration-determined, not timing-determined).
EXACT_COUNTS = {
    "wordcount": ["mapreduce.distinct_keys", "native.compiles",
                  "native.promotions", "native.downgrades"],
    "climate": ["native.compiles", "native.promotions", "native.downgrades",
                "workers.pool_jobs"],
    "serve": ["native.compiles", "native.promotions", "native.downgrades",
              "serve.failed", "serve.shed", "serve.rejected",
              "supervise.recovered", "persist.checkpoint_bytes",
              "supervise.checkpoint_failures"],
}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=SEED, cwd=ROOT, run_py=RUN):
    proc = subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc):
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace, expected):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result, lines = result_of(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in expected])
        for m in expected:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        provenance = json.loads(lines[-2])["provenance"]
        for key in ("nproc", "cpu_model", "compiler", "build_type",
                    "source_sha256", "seed", "loadavg_1m_at_start"):
            self.assertIn(key, provenance)
        self.assertEqual(provenance["seed"], SEED)
        return result

    def test_untraced_runs_report_end_to_end_metrics(self):
        expected = load_benchmark()["end_to_end"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_run(workload, 0, expected)
                for name, entry in result["metrics"].items():
                    self.assertGreater(entry["value"], 0, name)

    def test_traced_runs_report_layers_and_write_a_trace(self):
        expected = load_benchmark()["per_layer"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1, expected)
                path = os.path.join(ROOT, ".bench_build", "traces",
                                    "%s-seed%d.json" % (workload, SEED))
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                names = {e["name"] for e in events}
                self.assertIn("bench.setup", names)
                self.assertIn("native.settle", names)


class RepeatabilityTest(unittest.TestCase):
    def test_counts_for_a_fixed_seed(self):
        units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
        for workload in WORKLOADS:
            runs = []
            for _ in range(2):
                proc = run(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                runs.append(result_of(proc)[0]["metrics"])
            exact = EXACT_COUNTS[workload]
            for name in exact:
                with self.subTest(workload=workload, metric=name):
                    self.assertEqual(runs[0][name]["value"],
                                     runs[1][name]["value"])
            varying = []
            for name in runs[0]:
                if units[name] == "count" and name not in exact:
                    values = [r[name]["value"] for r in runs]
                    if values[0] != values[1]:
                        varying.append("%s %g..%g" % (name, min(values),
                                                      max(values)))
            print("\n%s: repeat exactly: %s\n%s: vary: %s" % (
                workload, ", ".join(exact), workload,
                "; ".join(varying) or "none"))


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("wordcount", 0, cwd=bare,
                       run_py=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
