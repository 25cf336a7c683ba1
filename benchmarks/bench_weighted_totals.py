"""Perf: demand-weighted pricing overhead vs the uniform game.

Under a demand-weighted valuation every row value is
``sum_v W[u, v] * d(u, v)`` instead of a plain row sum.  This benchmark
times both regimes on one workload:

* ``kernel_sweep`` — best-response rounds on the same graph, uniform vs
  weighted state: scan the priced BGE move pool
  (:func:`~repro.dynamics.movegen.move_pool`, every candidate priced
  under the state's valuation) and reduce it
  (:meth:`~repro.core.speculative.SpeculativeEvaluator.best`).

The tracked metric is ``speedup = uniform_seconds / weighted_seconds``
(< 1 means weighted costs more); the design target is at most **1.3x**
per-round overhead, i.e. speedup >= 0.77.  Committed quick-mode
baselines in ``benchmarks/baselines/BENCH_weighted_totals.json`` are
gated by ``benchmarks/check_regression.py``.

Set ``REPRO_BENCH_QUICK=1`` for the scaled-down CI sizes.
"""

import os
import random
import time

from repro.analysis.tables import render_table
from repro.core.concepts import Concept
from repro.core.speculative import SpeculativeEvaluator
from repro.core.state import GameState
from repro.core.traffic import TrafficMatrix
from repro.dynamics.movegen import move_pool
from repro.graphs.generation import random_connected_gnp

from _harness import RESULTS_DIR, emit, once, write_bench_json

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _time_sweeps(state, sweeps):
    """Best-response rounds: scan the priced BGE pool, reduce it."""
    start = time.perf_counter()
    for _ in range(sweeps):
        spec = SpeculativeEvaluator(state)
        spec.best(move_pool(state, Concept.BGE))
    return time.perf_counter() - start


def study():
    n = 40 if QUICK else 90
    sweeps = 6 if QUICK else 20

    rng = random.Random(21)
    graph = random_connected_gnp(n, 0.12, rng)

    uniform_state = GameState(graph, 6)
    weighted_state = GameState(
        graph, 6, traffic=TrafficMatrix.random_demands(n, seed=5, high=4)
    )
    sweep_uniform_s = _time_sweeps(uniform_state, sweeps)
    sweep_weighted_s = _time_sweeps(weighted_state, sweeps)

    payload = {
        "kernel_sweep": {
            "n": n,
            "edges": graph.number_of_edges(),
            "sweeps": sweeps,
            "uniform_seconds": sweep_uniform_s,
            "weighted_seconds": sweep_weighted_s,
            "overhead": sweep_weighted_s / sweep_uniform_s,
            "speedup": sweep_uniform_s / sweep_weighted_s,
        },
    }
    rows = [
        [
            name,
            stats["n"],
            f"{stats['uniform_seconds'] * 1e3:.1f}",
            f"{stats['weighted_seconds'] * 1e3:.1f}",
            f"{stats['overhead']:.2f}x",
        ]
        for name, stats in payload.items()
    ]
    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_json("BENCH_weighted_totals", {"quick": QUICK, "workloads": payload})
    return rows, payload


def test_weighted_totals(benchmark):
    rows, payload = once(benchmark, study)
    emit(
        "weighted_totals",
        render_table(
            ["workload", "n", "uniform ms", "weighted ms", "overhead"],
            rows,
            title="Demand-weighted pricing vs the uniform game "
            "(target <= 1.3x per round)",
        ),
    )
    for name, stats in payload.items():
        # the design target is 1.3x; the hard in-test ceiling leaves
        # headroom for noisy runners, the committed baseline (gated by
        # check_regression.py) tracks the real number
        assert stats["overhead"] < 2.0, (name, stats)
