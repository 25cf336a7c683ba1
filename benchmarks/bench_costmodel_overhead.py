"""Perf: pluggable cost-model overhead vs the seed linear path.

Every cost runs through the state's valuation — ``LinearCost`` binds
the paper's plain row sums, non-linear models value rows as
``sum_v W[u, v] * f(d(u, v))`` through the ``f``-lookup table.  This
benchmark times the regimes on identical workloads:

* ``linear_dispatch_sweep`` — best-response rounds (scan the priced BGE
  move pool, :func:`~repro.dynamics.movegen.move_pool`, and reduce it,
  :meth:`~repro.core.speculative.SpeculativeEvaluator.best`) on a
  ``LinearCost`` state vs the unmodeled state: the two bind the same
  valuation and run the very same arithmetic;
* ``ftable_sweep`` — the same rounds on a ``ConvexCost(2)`` state: the
  per-round price of the ``f``-table lookups.

The tracked metric is ``speedup = base_seconds / modeled_seconds``
(< 1 means the model costs more); the design target is at most
**1.15x** per best-response round.  Committed quick-mode baselines in
``benchmarks/baselines/BENCH_costmodel_overhead.json`` are gated by
``benchmarks/check_regression.py``.

Set ``REPRO_BENCH_QUICK=1`` for the scaled-down CI sizes.
"""

import os
import random
import time

from repro.analysis.tables import render_table
from repro.core.concepts import Concept
from repro.core.costmodel import ConvexCost, LinearCost
from repro.core.speculative import SpeculativeEvaluator
from repro.core.state import GameState
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

    plain_state = GameState(graph, 6)
    linear_state = GameState(graph, 6, cost_model=LinearCost())
    convex_state = GameState(graph, 6, cost_model=ConvexCost(2))
    sweep_plain_s = _time_sweeps(plain_state, sweeps)
    sweep_linear_s = _time_sweeps(linear_state, sweeps)
    sweep_convex_s = _time_sweeps(convex_state, sweeps)

    payload = {
        "linear_dispatch_sweep": {
            "n": n,
            "edges": graph.number_of_edges(),
            "sweeps": sweeps,
            "base_seconds": sweep_plain_s,
            "modeled_seconds": sweep_linear_s,
            "overhead": sweep_linear_s / sweep_plain_s,
            "speedup": sweep_plain_s / sweep_linear_s,
        },
        "ftable_sweep": {
            "n": n,
            "edges": graph.number_of_edges(),
            "sweeps": sweeps,
            "base_seconds": sweep_plain_s,
            "modeled_seconds": sweep_convex_s,
            "overhead": sweep_convex_s / sweep_plain_s,
            "speedup": sweep_plain_s / sweep_convex_s,
        },
    }
    rows = [
        [
            name,
            stats["n"],
            f"{stats['base_seconds'] * 1e3:.1f}",
            f"{stats['modeled_seconds'] * 1e3:.1f}",
            f"{stats['overhead']:.2f}x",
        ]
        for name, stats in payload.items()
    ]
    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_json("BENCH_costmodel_overhead", {"quick": QUICK, "workloads": payload})
    return rows, payload


def test_costmodel_overhead(benchmark):
    rows, payload = once(benchmark, study)
    emit(
        "costmodel_overhead",
        render_table(
            ["workload", "n", "base ms", "modeled ms", "overhead"],
            rows,
            title="Cost-model dispatch and f-table overhead vs the seed "
            "linear path (target <= 1.15x per round)",
        ),
    )
    for name, stats in payload.items():
        # the design target is 1.15x; the hard in-test ceiling leaves
        # headroom for noisy runners — the committed baseline (gated by
        # check_regression.py) tracks the real numbers
        assert stats["overhead"] < 2.5, (name, stats)
