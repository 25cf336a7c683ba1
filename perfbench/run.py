"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload dyn-bge-n120 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` runs an untraced and a traced phase (half the
budget each) and reports the per-layer metrics, with the self-time table.
Every metric is printed by name with its unit; the last line of standard
output is the JSON result.  Workloads and metrics are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import layers  # noqa: E402

WORKLOADS = {
    "dyn-bge-n120": "dynamics",
    "dyn-modeled-n120": "dynamics",
    "exact-poa-n8": "exact_poa",
    "serve-mix": "serve_mix",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_table(table: dict, basis_s: float) -> None:
    print(f"self time per timed unit (shares of {basis_s:.4f} s):")
    print(f"  {'span':48s} {'self_s':>10s} {'share':>7s} {'total_s':>10s} {'calls':>9s}")
    rows = sorted(table.items(), key=lambda item: -item[1]["self_s"])
    for name, row in rows:
        share = row["self_s"] / basis_s if basis_s else 0.0
        print(
            f"  {name:48s} {row['self_s']:10.4f} {share:7.1%} "
            f"{row['total_s']:10.4f} {row['calls']:9.0f}"
        )


def main(argv=None) -> int:
    args = _parse(argv)
    common.require_source()
    common.WORK.mkdir(exist_ok=True)
    meta = common.machine_meta(common.calibration_s())
    module = importlib.import_module(WORKLOADS[args.workload])
    outcome = module.run(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print("notes " + json.dumps(outcome.notes, sort_keys=True))
    if args.trace:
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        _print_table(outcome.table, outcome.basis_s)
    else:
        units = END_TO_END
    for name, unit in units.items():
        print(f"  {name:52s} {outcome.metrics[name]:14.6f} {unit}")
    print(
        f"  {'failed_frac':52s} {outcome.failed / max(outcome.attempted, 1):14.6f} "
        f"ratio ({outcome.failed} of {outcome.attempted} operations)"
    )
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        for leftover in common.WORK.glob("run-*"):
            shutil.rmtree(leftover, ignore_errors=True)
