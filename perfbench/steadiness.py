#!/usr/bin/env python3
"""Check that the benchmark repeats on this host.

    python3 perfbench/steadiness.py [--first-seed N]

Run from the root of a checkout.  For each workload in BENCHMARK.json it
makes two sets of 10 untraced runs of run_seconds on one build,
alternating set A and set B run by run, each run with its own seed.  For
every end-to-end metric it prints each set's median and interquartile
range (IQR, as a share of the median, from statistics.quantiles(n=4)) and
whether the sets agree:

  * spread ok  - each set's IQR/median is within the metric's bound, and
                 "steady" when below a third of it;
  * drift ok   - set B's median is not worse than set A's by more than the
                 bound, in the metric's declared direction.

Then it makes one traced run per workload and prints its per-layer
metrics.  Prints Markdown; exit code 1 when any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUN = ["python3", "perfbench/run.py"]
RUNS = 10


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steadiness: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"steadiness: {workload} seed {seed}: output checks failed")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    print(f"# Steadiness: {RUNS} + {RUNS} alternating runs per workload, "
          f"{seconds} s each\n")
    ok = True
    seed = args.first_seed
    for workload in workloads:
        sets = {"A": [], "B": []}
        for _ in range(RUNS):
            for name in ("A", "B"):
                sets[name].append(run_once(workload, seed, seconds, 0))
                seed += 1
        print(f"## {workload}\n")
        print("| metric | bound | A median | A IQR | B median | B IQR "
              "| B vs A | spread ok | drift ok |")
        print("|---|---|---|---|---|---|---|---|---|")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            a_med, a_iqr = spread(a)
            b_med, b_iqr = spread(b)
            change = (b_med - a_med) / a_med if a_med else 0.0
            worse = change if m["better"] == "lower" else -change
            spread_ok = max(a_iqr, b_iqr) <= bound
            steady = max(a_iqr, b_iqr) < bound / 3
            drift_ok = worse <= bound
            ok = ok and spread_ok and drift_ok
            print(f"| {name} ({m['unit']}) | {bound:.2f} | {a_med:.6g} "
                  f"| {100 * a_iqr:.2f}% | {b_med:.6g} | {100 * b_iqr:.2f}% "
                  f"| {100 * change:+.2f}% "
                  f"| {'yes' if spread_ok else 'NO'}"
                  f"{' (steady)' if steady else ''} "
                  f"| {'yes' if drift_ok else 'NO'} |")
        print()
        for m in metrics:
            for name in ("A", "B"):
                values = " ".join(f"{r['metrics'][m['name']]['value']:.6g}"
                                  for r in sets[name])
                print(f"- {m['name']} {name}: {values}")
        print()
    for workload in workloads:
        result = run_once(workload, seed, seconds, 1)
        seed += 1
        print(f"## {workload}, traced run\n")
        print("| per-layer metric | value |")
        print("|---|---|")
        for name, m in sorted(result["metrics"].items()):
            if m["value"]:
                print(f"| {name} | {m['value']:.6g} {m['unit']} |")
        print()
    print("All checks passed." if ok else "Some checks FAILED.")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
