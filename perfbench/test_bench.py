#!/usr/bin/env python3
"""Smoke test of the repo benchmark. Run from the repo root:

    python3 perfbench/test_bench.py

Builds the cell runner if needed (see run.py), then runs short cells.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMOKE_MEASURE_SEC = "2"
SMOKE_DIR = os.path.join(run.ROOT, ".bench_build", "smoke")


def cell(workload, seed, mode, *extra):
    out = subprocess.run(
        [run.CELL_BIN, "--workload", workload, "--seed", str(seed),
         "--measure-sec", SMOKE_MEASURE_SEC, "--mode", mode, *extra],
        stdout=subprocess.PIPE, check=True, text=True, env=run.child_env())
    return json.loads(out.stdout.strip().splitlines()[-1])


class MetricTables(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_names_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"])
             for m in self.bench["end_to_end"]},
            run.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"])
             for m in self.bench["per_layer"]},
            {k: (u, b) for k, (u, b, _, _) in run.PER_LAYER.items()})
        self.assertIn("setup_s", run.END_TO_END)
        self.assertTrue(set(run.SIMULATED) <= set(run.END_TO_END))

    def test_every_layer_metric_names_an_end_to_end_metric(self):
        for name, (_, _, moves, kind) in run.PER_LAYER.items():
            self.assertIn(kind, ("sim", "host"), name)
            self.assertTrue(moves, name)
            for target in moves:
                self.assertIn(target, run.END_TO_END, name)


class Cells(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(SMOKE_DIR, exist_ok=True)

    def test_same_seed_same_digest_other_seed_other_digest(self):
        a = cell("swiso-ycsb-pagerank", 1, "plain")
        b = cell("swiso-ycsb-pagerank", 1, "plain")
        c = cell("swiso-ycsb-pagerank", 2, "plain")
        self.assertEqual(a["digest"], b["digest"])
        self.assertNotEqual(a["digest"], c["digest"])
        self.assertEqual(run.cell_problems(a), [])

    def test_traced_cell_matches_untraced_and_writes_a_trace(self):
        trace = os.path.join(SMOKE_DIR, "smoke.trace.json")
        plain = cell("fleetio-vdi-terasort", 3, "plain")
        traced = cell("fleetio-vdi-terasort", 3, "traced",
                      "--trace-out", trace)
        self.assertEqual(run.traced_problems(traced, plain), [])
        self.assertEqual(run.trace_file_problems(trace), [])
        for name in run.PER_LAYER:
            if name not in ("workloads.ls_p99_ms",
                            "workloads.ls_slo_violation",
                            "obs.on_cost_ratio", "trace.overhead_ratio"):
                self.assertIn(name, traced)
        self.assertGreater(traced["core.decisions"], 0)
        self.assertGreater(traced["harvest.gsb_created"], 0)

    def test_run_prints_the_result_line(self):
        out = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"),
             "--workload", "swiso-ycsb-pagerank", "--seed", "5",
             "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, check=True, text=True)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["attempted"], run.SEEDS_PER_RUN)
        self.assertEqual(set(res["metrics"]), set(run.END_TO_END))
        for name, m in res["metrics"].items():
            self.assertEqual(m["unit"], run.END_TO_END[name][0])
            self.assertGreater(m["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
