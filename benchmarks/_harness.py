"""Shared benchmark plumbing.

Every benchmark regenerates one table row or figure of the paper, prints
the reproduced rows, *asserts* the paper's finite-size claims, and stores
the rendered table under ``benchmarks/results/`` so the artefacts survive
pytest's output capture.

``write_bench_json`` is the one way BENCH_*.json files get written: it
stamps every payload with a ``meta`` block (platform, python, numpy,
the BFS backend name) so perf trajectories compared across machines are
interpretable.  ``check_regression.py`` indexes only its tracked group
key, so the block never participates in the gate.
"""

from __future__ import annotations

import json
import pathlib
import platform
from typing import Any, Mapping

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a result table and persist it to benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def bench_meta() -> dict[str, str]:
    """Machine/toolchain provenance stamped into every BENCH_*.json."""
    import numpy

    from repro._backend import active_name

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": active_name(),
    }


def write_bench_json(name: str, payload: Mapping[str, Any]) -> None:
    """Persist one benchmark's JSON results, stamped with ``meta``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps({"meta": bench_meta(), **payload}, indent=2) + "\n"
    )
