#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Runs the C++ arithmetic tests (perfbench_selftest), every workload at a tiny
--smoke size, traced and untraced, and the missing-sources refusal. Takes
about a minute after the first build.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN = os.path.join(PERFBENCH, "run.py")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=600)


class Perfbench(unittest.TestCase):
    def test_selftest(self):
        # Building perfbench first configures the build tree.
        self.assertEqual(run(RUN, "--workload", "serve-fleet", "--seed", "1",
                             "--seconds", "1", "--trace", "0",
                             "--smoke").returncode, 0)
        build = subprocess.run(["cmake", "--build", BUILD, "--target",
                                "perfbench_selftest"], capture_output=True,
                               text=True)
        self.assertEqual(build.returncode, 0, build.stdout + build.stderr)
        test = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(test.returncode, 0, test.stdout)

    def test_smoke_workloads(self):
        spec = declared()
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            names = [m["name"] for m in spec[group]]
            units = {m["name"]: m["unit"] for m in spec[group]}
            for workload in (w["name"] for w in spec["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    out = run(RUN, "--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", trace, "--smoke")
                    self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                    result = json.loads(out.stdout.splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct",
                                                      "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(list(result["metrics"]), names)
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], units[name])
                    if trace == "0":
                        for metric in result["metrics"].values():
                            self.assertGreater(metric["value"], 0)

    def test_refuses_without_library_sources(self):
        with tempfile.TemporaryDirectory(dir=BUILD) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(PERFBENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run("perfbench/run.py", "--workload", "grid-roomy",
                      "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    os.makedirs(BUILD, exist_ok=True)
    unittest.main()
