#!/usr/bin/env python3
"""Tests for bench_compare.py's per-unit and missing-row verdicts and for
--update.

Each case writes a baseline and a current report, usually one row each,
into a temporary directory, runs the gate on them and checks its verdict
line and exit code.  Run directly or through ctest
(tools.bench_compare_test).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "bench_compare.py"


def row(metric: str, value: float, unit: str) -> dict:
    return {"metric": metric, "value": value, "unit": unit}


def compare_output(base_rows: list[dict], current_rows: list[dict],
                   unreported: dict[str, list[dict]] | None = None,
                   args: tuple[str, ...] = ()) -> tuple[int, str]:
    """Gate one E0 report against one E0 baseline; (exit code, stdout).

    `unreported` adds baseline entries (experiment -> rows) that have no
    current report.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        report = {"experiment": "E0", "host_wall_ms": 1, "rows": current_rows}
        baseline = {"E0": dict(report, rows=base_rows)}
        for experiment, rows in (unreported or {}).items():
            baseline[experiment] = dict(report, experiment=experiment,
                                        rows=rows)
        (root / "BENCH_E0.json").write_text(json.dumps(report))
        (root / "baseline.json").write_text(json.dumps(baseline))
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), str(root),
             "--baseline", str(root / "baseline.json"), *args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


def gate_output(unit: str, old: float, new: float,
                metric: str = "m") -> tuple[int, str]:
    """Gate one metric moving from old to new; returns (exit code, stdout)."""
    return compare_output([row(metric, old, unit)], [row(metric, new, unit)])


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


class MissingRows(unittest.TestCase):

    def test_missing_deterministic_row_fails(self):
        # A bench that stops emitting a gated number must not pass.
        for unit in ("cycles", "iters", "findings"):
            with self.subTest(unit=unit):
                code, out = compare_output(
                    [row("kept", 1, unit), row("gone", 2, unit)],
                    [row("kept", 1, unit)])
                self.assertEqual(code, 1, out)
                self.assertIn("FAIL  E0/gone: in baseline but missing", out)

    def test_missing_host_row_warns(self):
        for unit in ("ms", "commits/s"):
            with self.subTest(unit=unit):
                code, out = compare_output(
                    [row("kept", 1, "cycles"), row("gone", 2, unit)],
                    [row("kept", 1, "cycles")])
                self.assertEqual(code, 0, out)
                self.assertIn("warn  E0/gone: in baseline but missing", out)

    def test_missing_report_with_gated_rows_fails(self):
        # Dropping a bench from the harness drops every row it gated.
        kept = [row("kept", 1, "cycles")]
        code, out = compare_output(
            kept, kept, {"E9": [row("t", 3, "ms"), row("c", 4, "msgs")]})
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL  E9: in baseline but no current report "
                      "(deterministic rows unchecked: 1)", out)

    def test_missing_report_with_host_rows_only_warns(self):
        kept = [row("kept", 1, "cycles")]
        code, out = compare_output(
            kept, kept, {"E9": [row("t", 3, "ms"), row("r", 2, "x")]})
        self.assertEqual(code, 0, out)
        self.assertIn("warn  E9: in baseline but no current report", out)

    def test_only_skips_unrequested_reports(self):
        kept = [row("kept", 1, "cycles")]
        code, out = compare_output(
            kept, kept, {"E9": [row("c", 4, "msgs")]}, ("--only", "E0"))
        self.assertEqual(code, 0, out)
        self.assertNotIn("E9", out)

    def test_new_row_warns(self):
        code, out = compare_output(
            [row("kept", 1, "cycles")],
            [row("kept", 1, "cycles"), row("new", 2, "cycles")])
        self.assertEqual(code, 0, out)
        self.assertIn("warn  E0/new: not in baseline", out)



def update_baseline(baseline: dict[str, dict], reports: dict[str, str],
                    args: tuple[str, ...] = ()) -> tuple[int, str, dict]:
    """Run --update over report files (experiment -> file text) against a
    baseline; returns (exit code, stdout, the baseline afterwards)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for experiment, text in reports.items():
            (root / f"BENCH_{experiment}.json").write_text(text)
        (root / "baseline.json").write_text(json.dumps(baseline))
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), str(root), "--update",
             "--baseline", str(root / "baseline.json"), *args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        after = json.loads((root / "baseline.json").read_text())
    return proc.returncode, proc.stdout, after


def report(experiment: str, value: float) -> dict:
    return {"experiment": experiment, "host_wall_ms": 1,
            "rows": [row("m", value, "cycles")]}


class Update(unittest.TestCase):

    def test_rewrites_reported_experiments_and_keeps_the_rest(self):
        baseline = {"E1": report("E1", 1), "E9": report("E9", 9)}
        code, out, after = update_baseline(
            baseline, {"E1": json.dumps(report("E1", 2))})
        self.assertEqual(code, 0, out)
        self.assertEqual(after, {"E1": report("E1", 2), "E9": report("E9", 9)})

    def test_only_rewrites_the_named_experiment(self):
        baseline = {"E1": report("E1", 1), "E16": report("E16", 16)}
        code, out, after = update_baseline(
            baseline, {"E1": json.dumps(report("E1", 2)),
                       "E16": json.dumps(report("E16", 17))},
            ("--only", "E16"))
        self.assertEqual(code, 0, out)
        self.assertEqual(after, {"E1": report("E1", 1),
                                 "E16": report("E16", 17)})

    def test_adopts_a_new_experiment(self):
        code, out, after = update_baseline(
            {"E1": report("E1", 1)}, {"E2": json.dumps(report("E2", 2))})
        self.assertEqual(code, 0, out)
        self.assertEqual(after, {"E1": report("E1", 1), "E2": report("E2", 2)})

    def test_malformed_report_keeps_its_entry_and_fails(self):
        baseline = {"E1": report("E1", 1), "E2": report("E2", 2)}
        truncated = json.dumps(report("E1", 5))[:20]
        for text in (truncated, "[]", json.dumps(dict(report("E1", 5),
                                                      rows=[]))):
            with self.subTest(text=text):
                code, out, after = update_baseline(
                    baseline, {"E1": text, "E2": json.dumps(report("E2", 3))})
                self.assertEqual(code, 1, out)
                self.assertIn("FAIL  BENCH_E1.json", out)
                self.assertEqual(after, {"E1": report("E1", 1),
                                         "E2": report("E2", 3)})

    def test_only_with_a_missing_report_fails(self):
        baseline = {"E1": report("E1", 1)}
        code, out, after = update_baseline(
            baseline, {"E1": json.dumps(report("E1", 2))}, ("--only", "E7"))
        self.assertEqual(code, 1, out)
        self.assertEqual(after, baseline)


if __name__ == "__main__":
    unittest.main()
