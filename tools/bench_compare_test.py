#!/usr/bin/env python3
"""Tests for bench_compare.py's per-unit verdicts.

Each case writes one baseline row and one current row into a temporary
directory, runs the gate on them and checks its verdict line and exit
code.  Run directly or through ctest (tools.bench_compare_test).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "bench_compare.py"


def gate_output(unit: str, old: float, new: float,
                metric: str = "m") -> tuple[int, str]:
    """Gate one metric moving from old to new; returns (exit code, stdout)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        report = {"experiment": "E0", "host_wall_ms": 1,
                  "rows": [{"metric": metric, "value": new, "unit": unit}]}
        baseline = {"E0": dict(report, rows=[
            {"metric": metric, "value": old, "unit": unit}])}
        (root / "BENCH_E0.json").write_text(json.dumps(report))
        (root / "baseline.json").write_text(json.dumps(baseline))
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), str(root),
             "--baseline", str(root / "baseline.json")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


def run_gate(unit: str, old: float, new: float,
             metric: str = "m") -> tuple[int, str]:
    """Gate one metric moving from old to new; returns (exit code, line)."""
    code, out = gate_output(unit, old, new, metric)
    verdicts = [line for line in out.splitlines() if f"E0/{metric}" in line]
    return code, verdicts[0] if verdicts else ""


class Directions(unittest.TestCase):

    def assertVerdict(self, unit, old, new, prefix, code):
        got_code, line = run_gate(unit, old, new)
        self.assertEqual(got_code, code, line)
        self.assertTrue(line.startswith(prefix), f"{unit}: {line!r}")
        return line

    def test_throughput_drop_warns(self):
        # The case that read as an improvement: commits/s falling 64%.
        line = self.assertVerdict("commits/s", 6391, 2292, "warn", 0)
        self.assertNotIn("improvement", line)

    def test_higher_is_better_units(self):
        for unit in ("commits/s", "states/s", "x"):
            with self.subTest(unit=unit):
                self.assertVerdict(unit, 100, 50, "warn", 0)
                self.assertIn("improvement",
                              self.assertVerdict(unit, 100, 150, "note", 0))

    def test_lower_is_better_host_units(self):
        for unit in ("ms", "us"):
            with self.subTest(unit=unit):
                self.assertVerdict(unit, 100, 150, "warn", 0)
                self.assertIn("improvement",
                              self.assertVerdict(unit, 100, 50, "note", 0))

    def test_deterministic_units_fail_on_rise(self):
        for unit in ("cycles", "msgs", "bytes", "iters", "steps", "nodes",
                     "nnz", "states", "findings"):
            with self.subTest(unit=unit):
                self.assertVerdict(unit, 100, 130, "FAIL", 1)
                self.assertIn("improvement",
                              self.assertVerdict(unit, 100, 70, "note", 0))

    def test_rise_from_zero_baseline(self):
        self.assertVerdict("findings", 0, 2, "FAIL", 1)
        self.assertVerdict("ms", 0, 2, "warn", 0)
        self.assertVerdict("commits/s", 0, 2, "note", 0)

    def test_host_change_within_threshold_is_silent(self):
        for unit in ("ms", "commits/s"):
            with self.subTest(unit=unit):
                self.assertEqual(run_gate(unit, 100, 120), (0, ""))
                self.assertEqual(run_gate(unit, 100, 80), (0, ""))

    def test_deterministic_change_within_threshold_is_noted(self):
        # A seeded simulator reproduces every deterministic row exactly, so
        # even a 1-cycle move is reported (but does not fail the gate).
        for old, new in ((1547306, 1547307), (100, 120), (100, 80)):
            with self.subTest(old=old, new=new):
                code, out = gate_output("cycles", old, new)
                self.assertEqual(code, 0, out)
                self.assertIn("note  E0/m:", out)
                self.assertIn("deterministic row changed", out)
                self.assertIn("deterministic rows changed: 1", out)

    def test_unchanged_rows_count_zero(self):
        code, out = gate_output("cycles", 100, 100)
        self.assertEqual(code, 0, out)
        self.assertNotIn("E0/m", out)
        self.assertIn("deterministic rows changed: 0", out)
        # A host row moving does not count as a deterministic change.
        code, out = gate_output("ms", 100, 110)
        self.assertIn("deterministic rows changed: 0", out)

    def test_unknown_unit_fails(self):
        line = self.assertVerdict("furlongs", 1, 1, "FAIL", 1)
        self.assertIn("unknown unit", line)


if __name__ == "__main__":
    unittest.main()
