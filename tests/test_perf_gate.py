#!/usr/bin/env python3
"""Verdict rule of tools/perf_gate.py on synthetic perfbench results.

    python3 tests/test_perf_gate.py

No benchmark runs: compare() gets hand-made run objects.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))
import perf_gate  # noqa: E402

METRICS = [
    {"name": "cell_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "sim_speed", "unit": "s/s", "better": "higher", "bound": 0.25},
]


def run(cell_s=1.0, sim_speed=100.0, correct=True, attempted=5, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"cell_s": {"value": cell_s, "unit": "s"},
                        "sim_speed": {"value": sim_speed, "unit": "s/s"}}}


def runs(n=5, **kw):
    return [run(**kw) for _ in range(n)]


class Verdict(unittest.TestCase):
    def verdict(self, base, head):
        return perf_gate.compare(METRICS, base, head)[1]

    def test_same_results_pass(self):
        self.assertEqual(self.verdict(runs(), runs()), [])

    def test_within_bound_passes(self):
        self.assertEqual(self.verdict(runs(), runs(cell_s=1.2)), [])
        self.assertEqual(self.verdict(runs(), runs(sim_speed=80.0)), [])

    def test_lower_is_better_worse_beyond_bound_fails(self):
        bad = self.verdict(runs(), runs(cell_s=1.3))
        self.assertEqual(len(bad), 1)
        self.assertIn("cell_s", bad[0])

    def test_higher_is_better_worse_beyond_bound_fails(self):
        bad = self.verdict(runs(), runs(sim_speed=70.0))
        self.assertEqual(len(bad), 1)
        self.assertIn("sim_speed", bad[0])

    def test_direction_is_respected(self):
        # Large moves in the better direction pass on both kinds.
        self.assertEqual(
            self.verdict(runs(), runs(cell_s=0.5, sim_speed=200.0)), [])
        # The same moves reversed fail on both.
        bad = self.verdict(runs(cell_s=0.5, sim_speed=200.0), runs())
        self.assertEqual(len(bad), 2)

    def test_medians_not_single_runs_decide(self):
        head = runs(3) + runs(2, cell_s=10.0, sim_speed=1.0)
        self.assertEqual(self.verdict(runs(), head), [])
        head = runs(2) + runs(3, cell_s=10.0)
        self.assertEqual(len(self.verdict(runs(), head)), 1)

    def test_incorrect_head_run_fails(self):
        head = runs(4) + [run(correct=False)]
        bad = self.verdict(runs(), head)
        self.assertTrue(any("correct: false" in b for b in bad))

    def test_larger_failed_share_fails(self):
        head = runs(4) + [run(failed=1)]
        bad = self.verdict(runs(), head)
        self.assertTrue(any("failed share" in b for b in bad))
        # An equal share on both sides is not a regression.
        self.assertFalse(any("failed share" in b
                             for b in self.verdict(head, head)))

    def test_unfinished_head_run_fails(self):
        bad = self.verdict(runs(), runs(4) + [None])
        self.assertTrue(any("did not finish" in b for b in bad))

    def test_no_base_result_fails(self):
        self.assertTrue(self.verdict([None] * 5, runs()))


if __name__ == "__main__":
    unittest.main()
