#!/usr/bin/env python3
"""Self-tests of the certification benchmark, at tiny sizes.

    python3 certbench/tests/test_certbench.py

Each workload runs on the three shortest kernels with one injection point
per kernel (the oracle fills those tables itself) and must print every
metric BENCHMARK.json names, with its unit. A corrupted expected table
must be reported as a failure, a warm serve-mix repeat must be a memo hit
that runs no shards, and a directory holding only the benchmark must make
the command fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
# BENCHMARK.json times the first and the last; fig10-recover runs on demand.
WORKLOADS = ["fig10-sweep", "fig10-recover", "serve-mix"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def scratch_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    os.makedirs(base, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


def run(workload, trace, *extra, seed=7):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s failed (%d):\n%s" %
                             (" ".join(cmd), proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


class CertBenchTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        s = spec()
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in s[group]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    result, out = run(w, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"], out)
                    self.assertEqual(result["failed"], 0, out)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)

    def test_corrupted_expected_table_is_a_failure(self):
        with scratch_dir() as tmp:
            good = os.path.join(tmp, "oracle.tsv")
            result, out = run("fig10-sweep", 0, "--oracle", good,
                              "--write-oracle", good)
            self.assertTrue(result["correct"], out)
            with open(good) as f:
                lines = f.read().splitlines()
            for i, line in enumerate(lines):
                if line.startswith("plain\t"):
                    cols = line.split("\t")
                    cols[5] = str(int(cols[5]) + 1)  # masked
                    lines[i] = "\t".join(cols)
                    break
            else:
                self.fail("no plain case in the generated oracle")
            bad = os.path.join(tmp, "corrupt.tsv")
            with open(bad, "w") as f:
                f.write("\n".join(lines) + "\n")
            result, out = run("fig10-sweep", 0, "--oracle", bad)
            self.assertFalse(result["correct"])
            self.assertGreater(result["failed"], 0)
            self.assertIn("FAILED:", out)

    def test_warm_repeat_is_a_hit_without_shards(self):
        # A warm repeat that misses or streams a shard counts as failed.
        result, out = run("serve-mix", 1)
        self.assertTrue(result["correct"], out)
        self.assertEqual(result["failed"], 0, out)
        self.assertEqual(result["metrics"]["serve.cache_hit_frac"]["value"],
                         0.5)
        self.assertGreater(
            result["metrics"]["serve.pool_dispatched"]["value"], 0)

    def test_benchmark_alone_fails_without_a_result(self):
        s = spec()
        with scratch_dir() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for p in s["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(tmp, p),
                                ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                s["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
