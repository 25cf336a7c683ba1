"""Benchmark regression gate for CI.

Compares freshly produced ``benchmarks/results/BENCH_*.json`` speedups
against the committed quick-mode baselines in ``benchmarks/baselines/``
and exits non-zero when any tracked speedup fell below ``TOLERANCE``
times its baseline (i.e. more than a 30% relative slowdown).  Speedup
ratios — incremental vs rebuild, pooled vs serial, warm vs cold — are
used instead of absolute wall times so the gate is portable across
runner hardware.  Absolute end-to-end times live in ``perfbench/``.

Usage::

    python check_regression.py            # checks every tracked benchmark
    python check_regression.py NAME...    # checks a subset (file stems)
"""

from __future__ import annotations

import json
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"
BASELINES_DIR = BENCH_DIR / "baselines"

#: fail when a fresh speedup drops below 70% of its committed baseline
TOLERANCE = 0.7

#: benchmark file stem -> (top-level key holding named entries, metric)
TRACKED = {
    "BENCH_campaign_throughput": ("grids", "speedup"),
    "BENCH_distance_engine": ("families", "speedup"),
    # serve warm-engine cache vs cold rebuilds on a replayed request
    # trace (speedup = cold/warm seconds at the ServeApp.handle layer)
    "BENCH_serve_qps": ("workloads", "speedup"),
    # telemetry cost: speedup = trace-disabled/trace-enabled seconds per
    # best-response sweep round (~1.0 by design; the 0.7 floor fails a
    # change that makes enabled tracing eat >40% of a round)
    "BENCH_obs_overhead": ("workloads", "speedup"),
}


def check(name: str) -> list[str]:
    group_key, metric = TRACKED[name]
    fresh_path = RESULTS_DIR / f"{name}.json"
    baseline_path = BASELINES_DIR / f"{name}.json"
    if not fresh_path.exists():
        return [f"{name}: missing fresh results at {fresh_path}"]
    if not baseline_path.exists():
        return [f"{name}: missing committed baseline at {baseline_path}"]
    fresh = json.loads(fresh_path.read_text())[group_key]
    baseline = json.loads(baseline_path.read_text())[group_key]
    failures = []
    for entry, stats in baseline.items():
        reference = stats[metric]
        if entry not in fresh:
            failures.append(f"{name}/{entry}: entry missing from fresh run")
            continue
        measured = fresh[entry][metric]
        floor = reference * TOLERANCE
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(
            f"{name}/{entry}: {metric} {measured:.2f} "
            f"(baseline {reference:.2f}, floor {floor:.2f}) {verdict}"
        )
        if measured < floor:
            failures.append(
                f"{name}/{entry}: {metric} {measured:.2f} < "
                f"{floor:.2f} (= {TOLERANCE} * baseline {reference:.2f})"
            )
    return failures


def main(argv: list[str]) -> int:
    names = argv or sorted(TRACKED)
    unknown = [name for name in names if name not in TRACKED]
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    failures = []
    for name in names:
        failures.extend(check(name))
    if failures:
        print("\nperformance regression detected:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nall tracked benchmark speedups within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
