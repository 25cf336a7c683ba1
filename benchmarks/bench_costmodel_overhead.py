"""Perf: pluggable cost-model overhead vs the seed linear path.

Every cost runs through the state's valuation — ``LinearCost`` binds
the paper's plain row sums, non-linear models make the engine's one
maintained per-row vector ``totals()[u] = sum_v W[u, v] * f(d(u, v))``
(or the max aggregate) through every ``apply_*`` / ``undo`` and evaluate
kernel candidates through the ``f``-lookup table.  This benchmark times
the regimes on identical workloads:

* ``linear_dispatch_sweep`` — rows-only best-of-pool sweeps
  (:meth:`~repro.core.speculative.SpeculativeEvaluator.best`) on a
  ``LinearCost`` state vs the unmodeled state: the two bind the same
  valuation and run the very same arithmetic;
* ``ftable_sweep`` — the same sweeps on a ``ConvexCost(2)`` state: the
  per-round price of the ``f``-table lookups;
* ``ftable_trajectory`` — replay one random add/remove trajectory
  maintaining incremental totals under a convex valuation vs the
  uniform plain row sums;
* ``max_trajectory`` — the same trajectory under the max aggregate's
  max-with-counts maintenance.

The tracked metric is ``speedup = base_seconds / modeled_seconds``
(< 1 means the model costs more); the design target is at most
**1.15x** per best-response round for the linear dispatch and the
f-table sweep.  Committed quick-mode baselines in
``benchmarks/baselines/BENCH_costmodel_overhead.json`` are gated by
``benchmarks/check_regression.py``.

Set ``REPRO_BENCH_QUICK=1`` for the scaled-down CI sizes.
"""

import json
import os
import random
import time
from fractions import Fraction

from repro.analysis.tables import render_table
from repro.core.costmodel import ConvexCost, LinearCost, MaxCost, Valuation
from repro.core.moves import AddEdge, RemoveEdge, Swap
from repro.core.speculative import SpeculativeEvaluator
from repro.core.state import GameState
from repro.graphs.distances import DistanceMatrix
from repro.graphs.generation import random_connected_gnp

from _harness import RESULTS_DIR, emit, once, write_bench_json

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
UNREACHABLE = 10**7


def _trajectory(graph, count, rng):
    ops = []
    work = graph.copy()
    n = work.number_of_nodes()
    while len(ops) < count:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if work.has_edge(u, v):
            if work.degree(u) <= 1 or work.degree(v) <= 1:
                continue
            work.remove_edge(u, v)
            ops.append(("remove", u, v))
        else:
            work.add_edge(u, v)
            ops.append(("add", u, v))
    return ops


def _valuation(model, n):
    return Valuation(
        table=model.table(n),
        sentinel=model.unreachable_cost(n, Fraction(6), n - 1),
        aggregate=model.aggregate,
    )


def _time_trajectory(graph, ops, model, repeats):
    n = graph.number_of_nodes()
    best = float("inf")
    for _ in range(repeats):
        working = graph.copy()
        start = time.perf_counter()
        dm = DistanceMatrix(working, UNREACHABLE)
        if model is not None:
            dm.bind_valuation(_valuation(model, n))
        dm.totals()  # materialise the maintained vector being timed
        for op, u, v in ops:
            if op == "add":
                dm.apply_add(u, v)
            else:
                dm.apply_remove(u, v)
        checksum = int(dm.totals().sum())
        best = min(best, time.perf_counter() - start)
    return best, checksum


def _move_pool(state, rng, cap):
    pool = []
    for u, v in state.graph.edges:
        pool.append(RemoveEdge(u, v))
    for u, v in state.non_edges():
        pool.append(AddEdge(u, v))
    for actor, old in list(state.graph.edges):
        for new in range(state.n):
            if new not in (actor, old) and not state.graph.has_edge(
                actor, new
            ):
                pool.append(Swap(actor=actor, old=old, new=new))
    rng.shuffle(pool)
    return pool[:cap]


def _time_sweeps(state, pool, sweeps):
    start = time.perf_counter()
    for _ in range(sweeps):
        spec = SpeculativeEvaluator(state)
        spec.best(iter(pool))
    return time.perf_counter() - start


def study():
    n = 40 if QUICK else 90
    moves = 40 if QUICK else 80
    sweeps = 6 if QUICK else 20
    pool_cap = 150 if QUICK else 400
    repeats = 3

    rng = random.Random(21)
    graph = random_connected_gnp(n, 0.12, rng)

    ops = _trajectory(graph, moves, random.Random(23))
    uniform_s, _ = _time_trajectory(graph, ops, None, repeats)
    convex_s, _ = _time_trajectory(graph, ops, ConvexCost(2), repeats)
    max_s, _ = _time_trajectory(graph, ops, MaxCost(), repeats)

    plain_state = GameState(graph, 6)
    linear_state = GameState(graph, 6, cost_model=LinearCost())
    convex_state = GameState(graph, 6, cost_model=ConvexCost(2))
    pool = _move_pool(plain_state, random.Random(29), pool_cap)
    sweep_plain_s = _time_sweeps(plain_state, pool, sweeps)
    sweep_linear_s = _time_sweeps(linear_state, pool, sweeps)
    sweep_convex_s = _time_sweeps(convex_state, pool, sweeps)

    payload = {
        "linear_dispatch_sweep": {
            "n": n,
            "pool": len(pool),
            "sweeps": sweeps,
            "base_seconds": sweep_plain_s,
            "modeled_seconds": sweep_linear_s,
            "overhead": sweep_linear_s / sweep_plain_s,
            "speedup": sweep_plain_s / sweep_linear_s,
        },
        "ftable_sweep": {
            "n": n,
            "pool": len(pool),
            "sweeps": sweeps,
            "base_seconds": sweep_plain_s,
            "modeled_seconds": sweep_convex_s,
            "overhead": sweep_convex_s / sweep_plain_s,
            "speedup": sweep_plain_s / sweep_convex_s,
        },
        "ftable_trajectory": {
            "n": n,
            "moves": moves,
            "base_seconds": uniform_s,
            "modeled_seconds": convex_s,
            "overhead": convex_s / uniform_s,
            "speedup": uniform_s / convex_s,
        },
        "max_trajectory": {
            "n": n,
            "moves": moves,
            "base_seconds": uniform_s,
            "modeled_seconds": max_s,
            "overhead": max_s / uniform_s,
            "speedup": uniform_s / max_s,
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
        # the design target is 1.15x for the sweeps; the hard in-test
        # ceiling leaves headroom for noisy runners and the heavier
        # max-with-counts maintenance — the committed baseline (gated by
        # check_regression.py) tracks the real numbers
        assert stats["overhead"] < 2.5, (name, stats)
