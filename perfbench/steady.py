#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command in BENCHMARK.json repeatedly, once per seed, and prints
for every end-to-end metric the median, the first and third quartiles
(Python's statistics.quantiles with n=4) and their distance as a share
of the median, beside the metric's bound. A metric is "steady" when that
spread stays below a third of its bound; setup_s is reported but its
spread is not held to the bound (its medians are).

Run from the repository root:

    python3 perfbench/steady.py --workloads gateway_mix --runs 5
    python3 perfbench/steady.py --runs 10          # every workload
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} "
                 f"failed={result['failed']}")
    return result, elapsed


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default="BENCHMARK.json")
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default every workload")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    unsteady = []
    for workload in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.seed0 + i
            result, elapsed = run_once(bench["command"], workload, seed,
                                       bench["run_seconds"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s wall, "
                  f"{result['attempted']} calls", file=sys.stderr)
        print(f"\n{workload} ({args.runs} runs)")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, bound in bounds.items():
            median, q1, q3, share = spread(values[name])
            if name == "setup_s":
                verdict = "not held to bound"
            elif share < bound / 3:
                verdict = "steady"
            elif share <= bound:
                verdict = "within bound"
            else:
                verdict = "OVER BOUND"
            if verdict not in ("steady", "not held to bound"):
                unsteady.append(f"{workload}/{name}")
            print(f"  {name:<16} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{share:>8.4f} {bound:>6.3f}  {verdict}")
    if unsteady:
        print("\nnot yet steady: " + ", ".join(unsteady))
        sys.exit(1)


if __name__ == "__main__":
    main()
