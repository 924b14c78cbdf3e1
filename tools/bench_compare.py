#!/usr/bin/env python3
"""Compare BENCH_E*.json reports against a committed baseline.

Usage:
    bench_compare.py --baseline tools/bench_baseline.json [--update]
                     [--only E16[,E2,...]] DIR

DIR holds the BENCH_*.json files emitted by the `--smoke` bench runs
(`ctest -L bench`).  The baseline file maps experiment id -> report with
the same {experiment, rows, host_wall_ms} schema.

Policy, matching the determinism story of the simulator:
  * every unit has a direction.  A change beyond --threshold (default
    25%) in the worse direction is a regression; one in the better
    direction is reported as an improvement.  A rise from a zero
    baseline is a regression for a lower-is-better unit.
  * deterministic metrics — simulated or counted: "cycles", "msgs",
    "bytes", "iters", "steps", "nodes", "nnz", "states", "findings",
    all lower-is-better — FAIL the run on a regression.  Any other
    change to a deterministic row prints a note, however small: the
    simulator is seeded, so a moved row is a changed model, and the
    summary line counts these rows.
  * host-side metrics are hardware-dependent and only WARN: "ms" and
    "us" are lower-is-better, "commits/s", "states/s" and the "x"
    speed-up ratios higher-is-better.
  * a row whose unit is in neither set FAILS: its direction is unknown,
    so the gate cannot judge it.
  * missing metrics WARN in both directions: a current metric absent
    from the baseline (new bench / new row — run --update to adopt it)
    and a baseline metric absent from the current reports (a bench
    silently stopped emitting it, which is how coverage rots).
  * a malformed report (unparsable JSON, wrong shape) or an empty one
    (no rows) FAILS: a bench that crashed mid-write or emitted nothing
    must not pass the gate by accident.
  * --only restricts the comparison to the named experiments
    (comma-separated, e.g. --only E16), for jobs that run one driver
    rather than the whole harness.

Exit code 0 = ok (possibly with warnings), 1 = at least one failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

LOWER, HIGHER = "lower", "higher"  # which direction is better
DETERMINISTIC_UNITS = {unit: LOWER for unit in (
    "cycles", "msgs", "bytes", "iters", "steps", "nodes", "nnz", "states",
    "findings")}
HOST_UNITS = {"ms": LOWER, "us": LOWER, "commits/s": HIGHER,
              "states/s": HIGHER, "x": HIGHER}


def load_reports(directory: Path) -> dict[str, dict]:
    reports = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            report = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            print(f"FAIL  {path.name}: unparsable JSON ({err})")
            reports[path.stem] = None
            continue
        if not isinstance(report, dict) or not isinstance(
                report.get("rows"), list):
            print(f"FAIL  {path.name}: not a report object "
                  f"(expected {{experiment, rows, host_wall_ms}})")
            reports[path.stem] = None
            continue
        if not report["rows"]:
            print(f"FAIL  {path.name}: report has no rows "
                  f"(bench emitted nothing)")
            reports[report.get("experiment", path.stem)] = None
            continue
        reports[report.get("experiment", path.stem)] = report
    return reports


def rows_by_metric(report: dict) -> dict[str, dict]:
    return {row["metric"]: row for row in report.get("rows", [])}


def compare(reports: dict[str, dict], baseline: dict[str, dict],
            threshold: float) -> tuple[int, int, int]:
    failures = warnings = changed = 0
    for experiment, report in sorted(reports.items()):
        if report is None:
            failures += 1
            continue
        base = baseline.get(experiment)
        if base is None:
            print(f"note  {experiment}: no baseline entry (new experiment)")
            continue
        base_rows = rows_by_metric(base)
        current_rows = rows_by_metric(report)
        for metric in sorted(base_rows.keys() - current_rows.keys()):
            print(f"warn  {experiment}/{metric}: in baseline but missing "
                  f"from the current report")
            warnings += 1
        for metric, row in current_rows.items():
            unit = row.get("unit", "")
            deterministic = unit in DETERMINISTIC_UNITS
            better = DETERMINISTIC_UNITS.get(unit) or HOST_UNITS.get(unit)
            if better is None:
                print(f"FAIL  {experiment}/{metric}: unknown unit "
                      f"{unit!r} (give it a direction in bench_compare.py)")
                failures += 1
                continue
            base_row = base_rows.get(metric)
            if base_row is None:
                print(f"warn  {experiment}/{metric}: not in baseline "
                      f"(new metric; adopt with --update)")
                warnings += 1
                continue
            old, new = base_row["value"], row["value"]
            if old == new:
                continue
            if deterministic:
                changed += 1
            if old == 0:
                change, text = math.copysign(math.inf, new), "from 0"
            else:
                change = new / old - 1
                text = f"{100 * change:+.1f}%"
            if better == HIGHER:
                change = -change
            if change > threshold:
                kind = "FAIL " if deterministic else "warn "
                print(f"{kind} {experiment}/{metric}: {old:g} -> {new:g} "
                      f"{unit} ({text}, {better} is better)")
                if deterministic:
                    failures += 1
                else:
                    warnings += 1
            elif change < -threshold:
                print(f"note  {experiment}/{metric}: {old:g} -> {new:g} "
                      f"{unit} ({text}, improvement)")
            elif deterministic:
                print(f"note  {experiment}/{metric}: {old:g} -> {new:g} "
                      f"{unit} ({text}, deterministic row changed)")
    for experiment in sorted(baseline.keys() - reports.keys()):
        print(f"warn  {experiment}: in baseline but no current report")
        warnings += 1
    return failures, warnings, changed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("directory", type=Path,
                        help="directory holding BENCH_*.json reports")
    parser.add_argument("--baseline", type=Path,
                        default=Path("tools/bench_baseline.json"))
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression tolerance (default 0.25)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the given reports")
    parser.add_argument("--only", type=str, default="",
                        help="comma-separated experiment ids to compare "
                             "(e.g. E16); default: all found")
    args = parser.parse_args()

    reports = load_reports(args.directory)
    if args.only:
        only = {e.strip() for e in args.only.split(",") if e.strip()}
        reports = {k: v for k, v in reports.items() if k in only}
        for experiment in sorted(only - reports.keys()):
            print(f"FAIL  {experiment}: requested via --only but no "
                  f"report found in {args.directory}")
            reports[experiment] = None
    if not reports:
        print(f"FAIL  no BENCH_*.json files found in {args.directory}")
        return 1

    if args.update:
        good = {k: v for k, v in reports.items() if v is not None}
        args.baseline.write_text(json.dumps(good, indent=2) + "\n")
        print(f"baseline updated: {args.baseline} "
              f"({len(good)} experiments)")
        return 0

    if not args.baseline.exists():
        print(f"FAIL  baseline {args.baseline} missing "
              f"(generate with --update)")
        return 1
    baseline = json.loads(args.baseline.read_text())
    if args.only:
        baseline = {k: v for k, v in baseline.items() if k in reports}

    failures, warnings, changed = compare(reports, baseline, args.threshold)
    print(f"\n{len(reports)} reports, {failures} failures, "
          f"{warnings} warnings, deterministic rows changed: {changed} "
          f"(threshold {args.threshold:.0%})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
