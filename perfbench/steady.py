#!/usr/bin/env python3
"""Steadiness tool for the repository benchmark.

Repeats one workload N times, each with another seed, and prints for every
metric its median, first and third quartile and the spread
(q3 - q1) / median beside the metric's bound from BENCHMARK.json:

    python3 perfbench/steady.py --workload count --runs 10 [--trace 1]
        [--first-seed 1] [--seconds S] [--save runs.json]

A spread above a third of the bound is flagged "wide", above the bound
"TOO WIDE"; setup_s is flagged like every other bounded metric. Two
saved sets of runs (of the same or of two commits) are compared metric
by metric, the change of the median reported as a share of the first
set's median, signed so that positive means worse:

    python3 perfbench/steady.py --compare before.json after.json

Quartiles are Python's statistics.quantiles(values, n=4), the rule the
benchmark's acceptance check uses. Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(command),
                                               result.returncode))
    out = json.loads(lines[-1])
    if not out["correct"] or out["failed"]:
        sys.exit("run incorrect: %s" % lines[-1])
    return {name: m["value"] for name, m in out["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def report(workload, runs, metrics):
    print("%s: %d runs" % (workload, len(runs)))
    print("%-36s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in runs[0]:
        values = [run[name] for run in runs]
        median, q1, q3, spread = summarize(values)
        bound = metrics.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            if spread > bound:
                flag = "TOO WIDE"
            elif spread > bound / 3:
                flag = "wide"
        print("%-36s %14.6g %14.6g %14.6g %7.2f%% %6s %s" %
              (name, median, q1, q3, 100 * spread,
               "" if bound is None else "%.0f%%" % (100 * bound), flag))


def compare(first_path, second_path, metrics):
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    print("%-10s %-30s %14s %14s %9s %6s" %
          ("workload", "metric", "first", "second", "worse by", "bound"))
    for workload, runs in first.items():
        if workload not in second:
            continue
        for name in runs[0]:
            a = statistics.median(run[name] for run in runs)
            b = statistics.median(run[name] for run in second[workload])
            spec = metrics.get(name, {})
            sign = -1.0 if spec.get("better") == "higher" else 1.0
            worse = sign * (b - a) / abs(a) if a else 0.0
            bound = spec.get("bound")
            flag = "REGRESSION" if bound is not None and worse > bound else ""
            print("%-10s %-30s %14.6g %14.6g %8.2f%% %6s %s" %
                  (workload, name, a, b, 100 * worse,
                   "" if bound is None else "%.0f%%" % (100 * bound), flag))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec, metrics = load_spec()
    if args.compare:
        compare(args.compare[0], args.compare[1], metrics)
        return
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    seconds = args.seconds or spec["run_seconds"]
    saved = {}
    for workload in args.workload:
        runs = [run_once(workload, args.first_seed + i, seconds, args.trace)
                for i in range(args.runs)]
        saved[workload] = runs
        report(workload, runs, metrics)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)


if __name__ == "__main__":
    main()
