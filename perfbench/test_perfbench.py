#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale (a few seconds per run).

Checks that two same-seed runs do exactly the same work (per-SELECT work
counts and recall repeat bit for bit on pase_ivf, whose reads see no
concurrent writer), and that every run prints exactly the metrics
BENCHMARK.json names, with its units.

Run from the root of a checkout:  python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7

# Per-SELECT work counts that are a pure function of the query sequence when
# no writer runs beside the reads, so they must repeat exactly across
# same-seed runs.
EXACT_COUNTS = (
    "bufmgr.pins_per_select",
    "pase.tuples_per_select",
    "pase.buckets_per_select",
    "pase.heap_pushes_per_select",
)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result(self, result, section):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_same_seed_repeats_work_and_recall(self):
        first = [run("pase_ivf", 0), run("pase_ivf", 1)]
        second = [run("pase_ivf", 0), run("pase_ivf", 1)]
        for a, b in zip(first, second):
            self.assertEqual(a["failed"], b["failed"])
        self.assertEqual(first[0]["metrics"]["recall_at_10"],
                         second[0]["metrics"]["recall_at_10"])
        for name in EXACT_COUNTS:
            self.assertEqual(first[1]["metrics"][name],
                             second[1]["metrics"][name], name)
        self.check_result(first[0], "end_to_end")
        self.check_result(first[1], "per_layer")

    def test_filtered_rw_prints_every_metric(self):
        self.check_result(run("filtered_rw", 0), "end_to_end")
        self.check_result(run("filtered_rw", 1), "per_layer")


if __name__ == "__main__":
    unittest.main()
