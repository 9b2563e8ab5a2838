#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

- every metric BENCHMARK.json names is printed, with its unit, for every
  workload: the end-to-end metrics untraced, the per-layer ones traced;
- the C++ unit tests pass (summary statistics and their sample-count
  rule; a perturbed row fails the row checks);
- a perturbed row in a committed baseline fails the run: exit 1 and
  "correct": false;
- usage errors exit 2 without printing a result.

The workload runs use --seconds 1 and take a minute or two in total.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import run  # noqa: E402  (the benchmark's build-and-run wrapper)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORK = os.path.join(run.build_dir(), "work")


def result_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build("sbgp_perfbench")
        os.makedirs(WORK, exist_ok=True)

    def drive(self, workload, trace, repo_root=ROOT, seed="7"):
        cmd = [self.binary, "--workload", workload, "--seed", seed,
               "--seconds", "1", "--trace", str(trace),
               "--repo-root", repo_root, "--work-dir", WORK]
        return subprocess.run(cmd, capture_output=True, text=True, timeout=180)

    def test_every_metric_printed_for_every_workload(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in (w["name"] for w in SPEC["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    done = self.drive(workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = result_line(done.stdout)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    printed = {k: v["unit"]
                               for k, v in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    if trace == 0:
                        for name, value in result["metrics"].items():
                            self.assertGreater(value["value"], 0, name)

    def test_unit_tests(self):
        binary = run.build("sbgp_perfbench_test")
        done = subprocess.run([binary, ROOT, WORK], capture_output=True,
                              text=True, timeout=180)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def test_perturbed_baseline_fails_the_run(self):
        fake = os.path.join(WORK, "perturbed-root")
        shutil.rmtree(fake, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "baselines"),
                        os.path.join(fake, "baselines"))
        shutil.copytree(os.path.join(ROOT, "tests", "data"),
                        os.path.join(fake, "tests", "data"))
        path = os.path.join(fake, "baselines", "tiny-500.csv")
        with open(path) as f:
            lines = f.read().splitlines(keepends=True)
        fields = lines[1].split(",")
        fields[-1] = str(int(fields[-1]) + 1) + "\n"  # one counter of one row
        lines[1] = ",".join(fields)
        with open(path, "w") as f:
            f.writelines(lines)
        done = self.drive("cache-churn-500", 1, repo_root=fake)
        shutil.rmtree(fake, ignore_errors=True)
        self.assertEqual(done.returncode, 1, done.stderr[-2000:])
        self.assertFalse(result_line(done.stdout)["correct"])
        self.assertIn("tiny-500 preflight", done.stderr)

    def test_usage_errors_print_no_result(self):
        for args in ([], ["--workload", "nope", "--seed", "1", "--seconds", "1",
                          "--trace", "0", "--repo-root", ROOT,
                          "--work-dir", WORK]):
            with self.subTest(args=args):
                done = subprocess.run([self.binary] + args, capture_output=True,
                                      text=True, timeout=60)
                self.assertEqual(done.returncode, 2)
                self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
