#!/usr/bin/env python3
"""Self-test for tools/bench_compare.py (stdlib unittest).

Runs the compare script on small synthetic reports and checks its exit
status: 0 on a clean pass, 1 on an exactness failure, a regressed total
or kernel, or a missing kernel or family, and 2 on a schema or benchmark
mismatch.

Usage:
  python3 tools/bench_compare_test.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_compare.py")


def ratios(converge, lanes):
    return {"converge": {"full_seconds": converge, "accel_seconds": 1.0,
                         "speedup": converge},
            "lanes": {"scalar_seconds": lanes, "lanes_seconds": 1.0,
                      "speedup": lanes}}


def matrix_report():
    """A talft-bench-v2 report with two kernels and two families."""
    return {
        "schema": "talft-bench-v2",
        "benchmark": "campaign_matrix",
        "ok": True,
        "kernels": [
            {"name": "a", "ok": True, "ratios": ratios(4.0, 2.0)},
            {"name": "b", "ok": True, "ratios": ratios(8.0, 3.0)},
        ],
        "totals": {"ratios": ratios(6.0, 2.5)},
    }


def serve_report():
    """A talft-bench-v1 report: the one-family case."""
    return {
        "schema": "talft-bench-v1",
        "benchmark": "serve_latency",
        "tables_identical": True,
        "kernels": [{"name": "a", "cold_seconds": 2.0, "warm_seconds": 0.2,
                     "speedup": 10.0, "tables_identical": True}],
        "totals": {"cold_seconds": 2.0, "warm_seconds": 0.2,
                   "speedup": 10.0},
    }


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def compare(self, baseline, current, *flags):
        paths = []
        for name, report in (("baseline", baseline), ("current", current)):
            path = os.path.join(self.dir.name, name + ".json")
            with open(path, "w") as f:
                json.dump(report, f)
            paths.append(path)
        run = subprocess.run([sys.executable, SCRIPT, *paths, *flags],
                             capture_output=True, text=True)
        return run.returncode, run.stdout + run.stderr

    def assertExit(self, code, baseline, current, *flags):
        got, output = self.compare(baseline, current, *flags)
        self.assertEqual(got, code, output)
        return output

    def test_clean_pass(self):
        base = matrix_report()
        cur = copy.deepcopy(base)
        cur["kernels"][0]["ratios"]["lanes"]["speedup"] = 1.5  # -25%
        self.assertExit(0, base, cur)

    def test_clean_pass_one_family(self):
        self.assertExit(0, serve_report(), serve_report())

    def test_matrix_not_ok(self):
        cur = matrix_report()
        cur["ok"] = False
        self.assertExit(1, matrix_report(), cur)
        cur = matrix_report()
        cur["kernels"][1]["ok"] = False
        self.assertExit(1, matrix_report(), cur)

    def test_tables_not_identical(self):
        cur = serve_report()
        cur["tables_identical"] = False
        self.assertExit(1, serve_report(), cur)

    def test_kernel_tables_not_identical(self):
        cur = serve_report()
        cur["kernels"][0]["tables_identical"] = False
        self.assertExit(1, serve_report(), cur)

    def test_total_regression(self):
        cur = matrix_report()
        cur["totals"]["ratios"]["converge"]["speedup"] = 5.0  # -16.7%
        output = self.assertExit(1, matrix_report(), cur)
        self.assertIn("converge/TOTAL", output)
        # A looser totals threshold lets the same report pass.
        self.assertExit(0, matrix_report(), cur, "--threshold", "20")

    def test_kernel_regression(self):
        cur = matrix_report()
        cur["kernels"][1]["ratios"]["lanes"]["speedup"] = 1.5  # -50%
        output = self.assertExit(1, matrix_report(), cur)
        self.assertIn("lanes/b", output)

    def test_one_family_regression(self):
        cur = serve_report()
        cur["kernels"][0]["speedup"] = 5.0
        self.assertExit(1, serve_report(), cur)
        self.assertExit(0, serve_report(), cur, "--kernel-threshold", "60")

    def test_missing_kernel(self):
        cur = matrix_report()
        del cur["kernels"][1]
        output = self.assertExit(1, matrix_report(), cur)
        self.assertIn("converge/b: missing", output)

    def test_missing_family(self):
        cur = matrix_report()
        for row in cur["kernels"] + [cur["totals"]]:
            del row["ratios"]["lanes"]
        output = self.assertExit(1, matrix_report(), cur)
        self.assertIn("lanes: ratio family missing", output)

    def test_missing_speedup(self):
        cur = matrix_report()
        del cur["kernels"][0]["ratios"]["converge"]["speedup"]
        self.assertExit(1, matrix_report(), cur)

    def test_missing_totals(self):
        cur = matrix_report()
        del cur["totals"]
        self.assertExit(1, matrix_report(), cur)

    def test_new_kernel_is_skipped(self):
        cur = matrix_report()
        cur["kernels"].append({"name": "c", "ratios": ratios(1.0, 1.0)})
        self.assertExit(0, matrix_report(), cur)

    def test_schema_mismatch(self):
        self.assertExit(2, matrix_report(), serve_report())
        cur = matrix_report()
        cur["schema"] = "talft-bench-v0"
        self.assertExit(2, matrix_report(), cur)

    def test_benchmark_mismatch(self):
        cur = matrix_report()
        cur["benchmark"] = "other"
        self.assertExit(2, matrix_report(), cur)

    def test_unreadable_report(self):
        path = os.path.join(self.dir.name, "missing.json")
        run = subprocess.run([sys.executable, SCRIPT, path, path],
                             capture_output=True, text=True)
        self.assertEqual(run.returncode, 2, run.stderr)


if __name__ == "__main__":
    unittest.main()
