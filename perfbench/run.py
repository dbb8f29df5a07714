#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload count|batch|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the measuring program
(perfbench/CMakeLists.txt, a Release build of the library plus the
benchmark) into .bench_build/, generates the workload's inputs from the
seed in one process, measures in a second process, and prints that
process's `# key=value` info lines followed by one JSON result line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and the recorded spans are
kept in .bench_build/traces/. Every workload reports every metric of the
list: end-to-end ones are all measured on every workload, and a per-layer
metric of a layer the workload does not call reads 0. Exits non-zero,
without a result line, when the program cannot be built, a step fails or
its metrics do not match BENCHMARK.json; a failed correctness check prints
its result line (correct: false) and exits 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("count", "batch", "serve")
DEADLINE_S = 175  # the whole run, build excluded, must end within 180 s
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def complete_metrics(result_line, trace):
    """Holds the result's metrics to BENCHMARK.json: same names and units,
    per-layer metrics the workload does not measure added as 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    result = json.loads(result_line)
    measured = result["metrics"]
    extra = sorted(set(measured) - {m["name"] for m in wanted})
    if extra:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(extra))
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if trace != "1":
                fail("end-to-end metric %s was not measured" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    result["metrics"] = metrics
    return json.dumps(result)


def build(build_dir):
    """Configures once, then (re)builds; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src; run from a checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4"])
    start = time.monotonic()
    for step in steps:
        left = BUILD_TIMEOUT_S - (time.monotonic() - start)
        try:
            result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                    stderr=sys.stderr, timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if result.returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)
    program = os.path.join(build_dir, "perfbench")
    start = time.monotonic()

    # Relative to the root: the serve workload's unix-socket path lives in
    # this directory and must stay short.
    work = os.path.relpath(
        os.path.join(build_dir, "work",
                     "%s-%d-%s" % (args.workload, args.seed, args.trace)),
        ROOT)
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--dir", work]
    try:
        gen = subprocess.run([program, "gen"] + common, cwd=ROOT,
                             stdout=sys.stderr, stderr=sys.stderr,
                             timeout=DEADLINE_S / 3)
        if gen.returncode != 0:
            fail("input generation failed")
        left = DEADLINE_S - (time.monotonic() - start)
        run = subprocess.run([program, "run"] + common +
                             ["--trace", args.trace],
                             cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=max(left, 1))
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % DEADLINE_S)

    lines = run.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail("the program printed no result (exit code %d)" % run.returncode)
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        spans = os.path.join(ROOT, work, "trace.jsonl")
        if os.path.isfile(spans):
            shutil.copy(spans, os.path.join(
                traces, "%s-%d.jsonl" % (args.workload, args.seed)))
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    lines[-1] = complete_metrics(lines[-1], args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 0 if run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
