#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the simulator).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Runs every workload, at the size the benchmark measures, through run.py
(which builds the program on first use) with a short --seconds, so each run
does the minimum number of rounds, and checks the result contract: metric
names, units, the end-to-end and per-layer metric sets, and that the export
digest repeats for a seed and changes with it.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload: str, seed: int, trace: int = 0) -> tuple:
    """Returns (stdout lines, parsed result) of one short run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                             f"{proc.stdout[-1500:]}\n{proc.stderr[-1500:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def digest(lines: list, workload: str) -> str:
    found = [l.split()[2] for l in lines if l.startswith(f"digest {workload} ")]
    if len(found) != 1:
        raise AssertionError(f"expected one digest line for {workload}, got {found}")
    return found[0]


class MetricNames(unittest.TestCase):
    def test_every_declared_name_is_well_formed(self):
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] + WORKLOADS
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))


class ResultContract(unittest.TestCase):
    def check(self, result: dict, declared: list):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertTrue(NAME.fullmatch(m["name"]))
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_emits_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result = run(workload, 3)
                self.check(result, BENCH["end_to_end"])
                for m in BENCH["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_traced_run_emits_every_per_layer_metric_and_same_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                traced_lines, traced = run(workload, 3, trace=1)
                self.check(traced, BENCH["per_layer"])
                untraced_lines, _ = run(workload, 3)
                self.assertEqual(digest(traced_lines, workload),
                                 digest(untraced_lines, workload))


class Digest(unittest.TestCase):
    def test_same_seed_repeats_and_other_seed_changes_the_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = digest(run(workload, 11)[0], workload)
                b = digest(run(workload, 11)[0], workload)
                c = digest(run(workload, 12)[0], workload)
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)


if __name__ == "__main__":
    unittest.main()
