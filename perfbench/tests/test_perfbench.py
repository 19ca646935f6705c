"""Tests of the benchmark itself, built on its smoke mode.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests

The first test builds COMPACT and the runner under .bench_build/ if needed.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=1800)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.proc = run("--smoke")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_check_passes(self):
        self.assertEqual(self.proc.returncode, 0, self.proc.stderr[-3000:])
        result = last_json(self.proc.stdout)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def test_every_metric_is_printed_with_its_unit(self):
        result = last_json(self.proc.stdout)
        for workload in self.spec["workloads"]:
            for metric in self.spec["end_to_end"] + self.spec["per_layer"]:
                name = workload["name"] + "/" + metric["name"]
                self.assertIn("metric " + name + " ", self.proc.stdout)
                self.assertEqual(result["metrics"][name]["unit"], metric["unit"])

    def test_layer_attribution(self):
        m = last_json(self.proc.stdout)["metrics"]
        self.assertEqual(m["oct-serve/milp.lp_iterations"]["value"], 0)
        self.assertGreater(m["mip-sweep/milp.lp_iterations"]["value"], 0)
        self.assertGreater(m["flow-serve/core.label_cache_hit_ratio"]["value"], 0)
        self.assertGreater(m["flow-serve/core.label_cache_evictions"]["value"], 0)
        for workload in ("oct-serve", "mip-sweep", "flow-serve"):
            self.assertGreaterEqual(
                m[workload + "/trace.span_coverage"]["value"], 0.9)


class FaultInjectionTest(unittest.TestCase):
    def test_a_wrong_design_fails_the_run(self):
        proc = run("--smoke", "--inject-fault", "flip")
        self.assertEqual(proc.returncode, 1)
        self.assertFalse(last_json(proc.stdout)["correct"])
        self.assertIn("differs from the reference netlist", proc.stderr)

    def test_a_dropped_output_fails_the_run(self):
        # One output line removed from every design, and the last output
        # from every evaluate answer.
        proc = run("--smoke", "--inject-fault", "drop-output")
        self.assertEqual(proc.returncode, 1)
        self.assertFalse(last_json(proc.stdout)["correct"])
        self.assertIn("is missing from the design", proc.stderr)
        self.assertRegex(proc.stderr, r"evaluate answered \d+ outputs, the netlist has")


class GuardSmokeTest(unittest.TestCase):
    def test_small_pools_are_clock_independent(self):
        proc = run("--guard", "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr[-3000:])
        self.assertIn("guard PASS", proc.stdout)


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("--workload", "oct-serve", "--seed", "1", "--seconds",
                       "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
