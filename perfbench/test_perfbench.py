#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Checks BENCHMARK.json's metric names and units, runs every workload at the
tiny smoke scale (untraced and traced) and checks that each passes its
output checks, reports exactly the declared metrics with their units, and
reaches trace.coverage >= 0.95. Also checks that the benchmark fails
cleanly, without a result line, where the library sources are missing.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ["gcn-train", "gat-train", "sage-minibatch", "serve-openloop"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SpecTest(unittest.TestCase):
    def test_metric_names_match_pattern_and_carry_units(self):
        spec = load_spec()
        names = []
        for group in ("end_to_end", "per_layer"):
            for m in spec[group]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("lower", "higher"))
                names.append(m["name"])
        for w in spec["workloads"]:
            self.assertRegex(w["name"], NAME)
            names.append(w["name"])
        self.assertEqual(len(names), len(set(names)), "names are used once")

    def test_declared_workloads_are_runnable(self):
        declared = [w["name"] for w in load_spec()["workloads"]]
        self.assertGreaterEqual(len(declared), 2)
        self.assertTrue(set(declared) <= set(WORKLOADS))

    def test_bounds(self):
        spec = load_spec()
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class TinySmokeTest(unittest.TestCase):
    """One `--workload all --tiny` run, shared by the tests below."""

    @classmethod
    def setUpClass(cls):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "all", "--tiny", "--seconds", "2", "--seed", "3"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        cls.status = proc.returncode
        cls.summary = json.loads(proc.stdout.splitlines()[-1])

    def test_every_workload_passes_its_checks(self):
        self.assertEqual(self.status, 0)
        self.assertTrue(self.summary["correct"])
        self.assertEqual(self.summary["failed"], 0)
        self.assertGreater(self.summary["attempted"], 0)

    def test_reports_exactly_the_declared_metrics(self):
        spec = load_spec()
        declared = {m["name"]: m["unit"]
                    for m in spec["end_to_end"] + spec["per_layer"]}
        for w in WORKLOADS:
            got = {k.split("/", 1)[1]: v for k, v in
                   self.summary["metrics"].items() if k.startswith(w + "/")}
            self.assertEqual(set(got), set(declared), w)
            for name, metric in got.items():
                self.assertEqual(metric["unit"], declared[name], name)
                self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics_are_never_zero(self):
        for m in load_spec()["end_to_end"]:
            for w in WORKLOADS:
                self.assertGreater(
                    self.summary["metrics"][w + "/" + m["name"]]["value"], 0)

    def test_trace_coverage(self):
        for w in WORKLOADS:
            cov = self.summary["metrics"][w + "/trace.coverage"]["value"]
            self.assertGreaterEqual(cov, 0.95, w)


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_result_when_sources_are_missing(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "gcn-train", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
