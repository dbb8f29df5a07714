#!/usr/bin/env python3
"""Build and run the MoCHy perf harness, writing a BENCH_*.json report.

Thin driver around bench/bench_report: configures + builds the `release`
CMake preset when needed, runs the harness, and (for CI) compares the
fresh report against a checked-in baseline, failing on wall-time
regressions beyond a threshold.

Typical uses:

  # Full report (5 example graphs, stamped + reference kernels):
  tools/run_bench.py --out BENCH_pr3.json --tag pr3

  # CI perf smoke: one small graph, fail on >25% regression:
  tools/run_bench.py --smoke --out BENCH_smoke.json \
      --baseline bench/baselines/BENCH_smoke_baseline.json --check

A smoke report is the fastest of five harness runs, row by row: a shared
host runs in slow and fast phases of about a second, long enough to slow
every repeat of a few-millisecond row in one run, and five runs rarely
all land in slow phases.
"""

import argparse
import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent


def run(cmd, **kwargs):
    print("+", " ".join(str(c) for c in cmd), flush=True)
    subprocess.run(cmd, check=True, **kwargs)


def ensure_built(build_dir: pathlib.Path, preset: str) -> pathlib.Path:
    """Configures + builds bench_report in `build_dir`; returns its path."""
    if not (build_dir / "CMakeCache.txt").exists():
        if build_dir == REPO / f"build-{preset}":
            # The preset's own binaryDir: configure through the preset.
            run(["cmake", "--preset", preset], cwd=REPO)
        else:
            # A custom --build-dir: the preset would configure its own
            # directory instead, so configure the requested one directly.
            run(["cmake", "-B", str(build_dir), "-S", ".",
                 "-DCMAKE_BUILD_TYPE=Release"], cwd=REPO)
    run(["cmake", "--build", str(build_dir), "-j", "--target", "bench_report"],
        cwd=REPO)
    binary = build_dir / "bench" / "bench_report"
    if not binary.exists():
        sys.exit(f"error: {binary} was not produced by the build")
    return binary


def kernel_walls(report: dict) -> dict:
    """Flattens a report into {(graph, kernel): wall_s}."""
    walls = {}
    for graph in report.get("graphs", []):
        for kernel in graph.get("kernels", []):
            walls[(graph["name"], kernel["kernel"])] = kernel["wall_s"]
    return walls


def fastest_rows(reports: list) -> dict:
    """The first report, with each kernel row replaced by that row's
    fastest measurement over all the reports."""
    merged = json.loads(json.dumps(reports[0]))
    for g, graph in enumerate(merged.get("graphs", [])):
        for k, kernel in enumerate(graph.get("kernels", [])):
            graph["kernels"][k] = min(
                (report["graphs"][g]["kernels"][k] for report in reports),
                key=lambda row: row["wall_s"])
            assert graph["kernels"][k]["kernel"] == kernel["kernel"]
    return merged


def calibration_factor(fresh_walls: dict, base_walls: dict) -> float:
    """Machine-speed ratio between the two runs, estimated from the
    frozen reference kernels (motif/reference.h): their code never
    changes, so any wall-time shift on them is the machine, not the PR.
    Returns the median now/base ratio over reference kernels, or 1.0."""
    ratios = []
    for key, base in base_walls.items():
        if not key[1].endswith("/reference") or base <= 0:
            continue
        now = fresh_walls.get(key)
        if now is not None and now > 0:
            ratios.append(now / base)
    if not ratios:
        return 1.0
    ratios.sort()
    return ratios[len(ratios) // 2]


def check_regressions(fresh: dict, baseline: dict, max_regression: float) -> int:
    """Returns the number of kernels regressing past the threshold.
    Wall times are normalized by the reference-kernel calibration factor
    so the gate compares code, not the baseline machine vs this one."""
    fresh_walls = kernel_walls(fresh)
    base_walls = kernel_walls(baseline)
    calibration = calibration_factor(fresh_walls, base_walls)
    print(f"machine calibration (reference kernels): {calibration:.2f}x")
    failures = 0
    for key, base in sorted(base_walls.items()):
        now = fresh_walls.get(key)
        if now is None:
            print(f"REGRESSION: {key} in baseline but missing from the "
                  f"fresh report")
            failures += 1
            continue
        if base <= 0:
            continue
        ratio = now / (base * calibration)
        status = "ok"
        if ratio > 1.0 + max_regression:
            status = "REGRESSION"
            failures += 1
        print(f"  {key[0]:<14} {key[1]:<20} base={base * 1e3:8.3f}ms "
              f"now={now * 1e3:8.3f}ms calibrated-ratio={ratio:5.2f}  "
              f"{status}")
    # A kernel present in the fresh report but absent from the baseline
    # is ungated: nothing would catch it regressing. Fail so the baseline
    # gets regenerated alongside the code that added the kernel.
    for key in sorted(set(fresh_walls) - set(base_walls)):
        print(f"REGRESSION: {key} in the fresh report but missing from the "
              f"baseline (regenerate the baseline to gate it)")
        failures += 1
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="release",
                        help="CMake configure preset to build (default: release)")
    parser.add_argument("--build-dir", default=None,
                        help="build directory (default: build-<preset>)")
    parser.add_argument("--out", default="BENCH_report.json",
                        help="output JSON path")
    parser.add_argument("--tag", default=None, help="report tag")
    parser.add_argument("--scale", type=float, default=None,
                        help="graph scale (full mode)")
    parser.add_argument("--threads", type=int, default=None,
                        help="counting threads (default: harness default, 1)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="repeats per kernel; wall time is the minimum")
    parser.add_argument("--smoke", action="store_true",
                        help="one small graph, quick repeats (CI payload)")
    parser.add_argument("--baseline", default=None,
                        help="baseline BENCH_*.json to compare against")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when a kernel regresses past "
                             "--max-regression vs the baseline")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional wall-time regression "
                             "(default 0.25 = 25%%)")
    args = parser.parse_args()

    build_dir = pathlib.Path(args.build_dir) if args.build_dir \
        else REPO / f"build-{args.preset}"
    binary = ensure_built(build_dir, args.preset)

    out_path = pathlib.Path(args.out)
    cmd = [str(binary), "--out", str(out_path)]
    if args.smoke:
        cmd.append("--smoke")
    if args.tag is not None:
        cmd += ["--tag", args.tag]
    if args.scale is not None:
        cmd += ["--scale", str(args.scale)]
    if args.threads is not None:
        cmd += ["--threads", str(args.threads)]
    if args.repeat is not None:
        cmd += ["--repeat", str(args.repeat)]
    runs = 5 if args.smoke else 1
    reports = []
    try:
        for _ in range(runs):
            run(cmd)
            reports.append(json.loads(out_path.read_text()))
    except subprocess.CalledProcessError as error:
        # The harness writes its JSON only at the end, so a FATAL
        # mid-scenario (e.g. a bit-identity check tripping) would leave
        # no artifact for CI to upload. Flush a marker report instead so
        # the uploaded file says which invocation died and how.
        out_path.write_text(json.dumps({
            "schema": "mochy-bench-v1",
            "failed": True,
            "exit_code": error.returncode,
            "command": [str(c) for c in error.cmd],
        }, indent=2) + "\n")
        print(f"error: bench_report exited with {error.returncode}; "
              f"wrote failure marker to {out_path}")
        return error.returncode or 1

    fresh = fastest_rows(reports)
    out_path.write_text(json.dumps(fresh, indent=2) + "\n")
    for graph in fresh.get("graphs", []):
        speedup = graph.get("exact_speedup_vs_reference", 0.0)
        print(f"{graph['name']}: exact stamped speedup {speedup:.2f}x "
              f"vs reference")
        stream = graph.get("streaming")
        if stream:
            print(f"{graph['name']}: streaming {stream['arrivals_per_s']:.0f} "
                  f"arrivals/s ({stream['mean_arrival_us']:.1f}us/arrival), "
                  f"per-arrival speedup vs recount "
                  f"{stream['per_arrival_speedup_vs_recount']:.0f}x")
            if stream.get("removals"):
                print(f"{graph['name']}: decremental "
                      f"{stream['removals_per_s']:.0f} removals/s "
                      f"({stream['mean_removal_us']:.1f}us/removal, drained "
                      f"{stream['removals']} edges back to zero counts)")
        windowed = graph.get("windowed")
        if windowed:
            print(f"{graph['name']}: sliding replay "
                  f"{windowed['windows_per_s']:.0f} windows/s over "
                  f"{windowed['windows']} windows, "
                  f"{windowed['evictions']} evictions")
        ingest = graph.get("ingest")
        if ingest:
            print(f"{graph['name']}: sharded ingest "
                  f"{ingest['edges_per_s']:.0f} edges/s with "
                  f"{ingest['producers']} concurrent producers")
        memory = graph.get("memory")
        if memory:
            mib = 1024 * 1024
            print(f"{graph['name']}: lazy a+ peak "
                  f"{memory['lazy_peak_bytes'] / mib:.2f}MiB vs materialized "
                  f"{memory['materialized_bytes'] / mib:.2f}MiB "
                  f"(budget {memory['budget_bytes'] / mib:.2f}MiB), "
                  f"hit rate {memory['lazy_hit_rate'] * 100:.0f}%, "
                  f"wall {memory['lazy_vs_materialized_wall']:.2f}x "
                  f"of materialized")
        ooc = graph.get("out_of_core")
        if ooc:
            kib = 1024
            print(f"{graph['name']}: out-of-core a+ from a "
                  f"{ooc['file_bytes'] / kib:.0f}KiB .mhg at budget "
                  f"{ooc['budget_bytes'] / kib:.0f}KiB: {ooc['spills']} "
                  f"spills, disk hit rate {ooc['disk_hit_rate'] * 100:.0f}% "
                  f"({ooc['readmits']} readmits, {ooc['fallbacks']} "
                  f"fallbacks), wall "
                  f"{ooc['spill_vs_materialized_wall']:.2f}x of "
                  f"materialized, peak RSS {ooc['peak_rss_kb'] / kib:.1f}MiB")
        serving = graph.get("serving")
        if serving:
            print(f"{graph['name']}: serving {serving['queries_per_s']:.0f} "
                  f"queries/s over {serving['queries']} mixed queries, "
                  f"cache hit rate {serving['hit_rate'] * 100:.0f}%, "
                  f"latency p50 {serving['p50_us']:.0f}us / "
                  f"p99 {serving['p99_us']:.0f}us")
        faults = graph.get("serving_faults")
        if faults:
            print(f"{graph['name']}: socket serving with "
                  f"{faults['fault_rate'] * 100:.0f}% injected frame faults: "
                  f"{faults['clean_qps']:.0f} -> {faults['faulty_qps']:.0f} "
                  f"queries/s, p99 {faults['clean_p99_us']:.0f}us -> "
                  f"{faults['faulty_p99_us']:.0f}us "
                  f"({faults['faults_fired']} faults fired, "
                  f"{faults['connections_dropped']} connections dropped, "
                  f"answers bit-identical)")

    if args.baseline:
        baseline = json.loads(pathlib.Path(args.baseline).read_text())
        print(f"comparing against {args.baseline} "
              f"(threshold +{args.max_regression * 100:.0f}%)")
        failures = check_regressions(fresh, baseline, args.max_regression)
        if failures and args.check:
            print(f"error: {failures} kernel(s) regressed "
                  f"past {args.max_regression * 100:.0f}%")
            return 1
        if not failures:
            print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
