#!/usr/bin/env python3
"""Unit tests for tools/bench_diff.py: the exact simulated-time and
model-count tiers, the loose wall-clock tier, metrics that never gate, and
the exit status of a whole run. Run directly or via ctest (`ctest -R tools.bench_diff`); stdlib
unittest only."""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_diff  # noqa: E402


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.dir = self._tmp.name
        os.mkdir(os.path.join(self.dir, "baselines"))
        os.mkdir(os.path.join(self.dir, "run"))

    def write(self, where, metrics, name="BENCH_x.json"):
        path = os.path.join(self.dir, where, name)
        with open(path, "w") as f:
            json.dump(metrics, f)
        return path

    def compare(self, current, baseline, wall_threshold=3.0):
        return bench_diff.compare(self.write("run", current),
                                  self.write("baselines", baseline),
                                  wall_threshold)

    def run_main(self, *files):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            status = bench_diff.main(
                ["--baselines", os.path.join(self.dir, "baselines")] +
                list(files))
        return status, out.getvalue()

    def test_tiers(self):
        self.assertEqual(bench_diff.metric_tier("sync_p50_micros"), "sim")
        self.assertEqual(bench_diff.metric_tier("checkout_ms"), "sim")
        self.assertEqual(bench_diff.metric_tier("BM_Lz_real_ns"), "wall")
        for name in ("point4_hit_rate", "effort_rf1_rate020_coverage",
                     "strict_rf1_rate020_availability", "batch_8_total_span",
                     "strict_rf2_rate010_retries", "strict_rf2_rate002_hedges"):
            self.assertEqual(bench_diff.metric_tier(name), "count", name)
        # Wall-derived rates and bytes never gate.
        for name in ("shards_4_records_per_sec", "batch_1_commits_per_sec",
                     "speedup_4_shards", "point0_capacity_bytes", "retries"):
            self.assertIsNone(bench_diff.metric_tier(name), name)

    def test_unchanged_simulated_time_passes(self):
        failures, lines = self.compare({"a_micros": 1000}, {"a_micros": 1000})
        self.assertEqual(failures, 0)
        self.assertIn("gate exact", lines[0])

    def test_any_simulated_time_change_fails(self):
        # +1% and -1% both fail: the +25% gate this replaced let a 1-2%
        # modeling drift through, and an improvement is a change too.
        for value in (1010, 990, 1001):
            failures, lines = self.compare({"a_micros": value},
                                           {"a_micros": 1000})
            self.assertEqual(failures, 1, value)
            self.assertIn("CHANGED", lines[0])

    def test_any_model_count_change_fails(self):
        same = {"p_hit_rate": 0.8095238095238095, "s_retries": 1}
        failures, lines = self.compare(same, same)
        self.assertEqual(failures, 0)
        self.assertTrue(all("gate exact" in line for line in lines))
        # A rise is a change too: fewer requests can raise coverage.
        for name, base, value in (("p_hit_rate", 0.81, 0.78),
                                  ("x_coverage", 0.875, 1.0),
                                  ("x_availability", 1.0, 0.875),
                                  ("batch_8_total_span", 484, 485),
                                  ("s_retries", 1, 0),
                                  ("s_hedges", 2, 3)):
            failures, lines = self.compare({name: value}, {name: base})
            self.assertEqual(failures, 1, name)
            self.assertIn("CHANGED", lines[0])

    def test_wall_clock_gates_only_past_its_threshold(self):
        self.assertEqual(
            self.compare({"b_real_ns": 390}, {"b_real_ns": 100})[0], 0)
        self.assertEqual(
            self.compare({"b_real_ns": 20}, {"b_real_ns": 100})[0], 0)
        failures, lines = self.compare({"b_real_ns": 410}, {"b_real_ns": 100})
        self.assertEqual(failures, 1)
        self.assertIn("REGRESSED", lines[0])

    def test_other_metrics_and_new_series_never_gate(self):
        failures, lines = self.compare(
            {"a_records_per_sec": 9, "new_micros": 5},
            {"a_records_per_sec": 1})
        self.assertEqual(failures, 0)
        self.assertEqual(len(lines), 1)
        self.assertIn("NEW", lines[0])

    def test_exit_status(self):
        self.write("baselines", {"a_micros": 1000})
        same = self.write("run", {"a_micros": 1000})
        self.assertEqual(self.run_main(same)[0], 0)
        changed = self.write("run", {"a_micros": 999})
        status, out = self.run_main(changed)
        self.assertEqual(status, 1)
        self.assertIn("CHANGED", out)
        self.write("baselines", {"a_micros": 1000, "b_hit_rate": 0.5})
        count_changed = self.write("run", {"a_micros": 1000, "b_hit_rate": 0.6})
        status, out = self.run_main(count_changed)
        self.assertEqual(status, 1)
        self.assertIn("CHANGED", out)
        # A bench without a committed baseline is skipped, not failed.
        other = self.write("run", {"a_micros": 1}, name="BENCH_new.json")
        self.assertEqual(self.run_main(other)[0], 0)


if __name__ == "__main__":
    unittest.main()
