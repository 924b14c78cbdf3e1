#!/usr/bin/env python3
"""Build fem2_perfbench from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload sim_solve|host_solve|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the root of the checkout.  The build goes to
perfbench-<key> under $CARGO_TARGET_DIR (default .bench_build), where
<key> is a hash of this checkout's path, so checkouts that share a build
root never build or run each other's sources.  The run's data directories
and the traced run's span dump (trace-<workload>.json, Chrome trace-event
JSON) go to work/ inside that build directory.  The last line of stdout
is one JSON object with the outcome of the output checks and the metrics
BENCHMARK.json declares: its end_to_end metrics for --trace 0, its
per_layer metrics for --trace 1.
A per-layer metric of a layer the workload's ops never cross reads 0.
Exit code 0 means a result was printed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sim_solve", "host_solve", "serve_mix")
# Longest a run may take beyond its measured seconds: set-up, the set-up
# probes, the final drain and, for a traced run, writing the span dump.
SLACK_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then (re)build fem2_perfbench; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "fem2_perfbench",
                  "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "fem2_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json in {os.getcwd()}: {e}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    key = hashlib.sha256(HERE.encode()).hexdigest()[:12]
    build_dir = os.path.join(build_root, "perfbench-" + key)
    binary = build(build_dir)
    work = os.path.join(build_dir, "work")
    shutil.rmtree(os.path.join(work, "data"), ignore_errors=True)
    os.makedirs(work, exist_ok=True)

    env = dict(os.environ, FEM2_HOST_THREADS="1")
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work],
            stdout=subprocess.PIPE, text=True, env=env,
            timeout=args.seconds + SLACK_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {args.seconds + SLACK_S} s")
    finally:
        shutil.rmtree(os.path.join(work, "data"), ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{args.workload} exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)

    measured = result["metrics"]
    names = {m["name"] for m in declared}
    if args.trace:
        extra = sorted(set(measured) - names)
        if extra:
            fail("undeclared per-layer metrics: " + ", ".join(extra))
    metrics = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"{name}: unit {measured[name]['unit']} is declared {unit}")
            metrics[name] = {"value": measured[name]["value"], "unit": unit}
        elif args.trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(f"end-to-end metric {name} was not measured")

    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
