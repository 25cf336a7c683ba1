"""``dyn-bge-n120`` and ``dyn-modeled-n120``: best-improvement BGE dynamics.

Inputs from the seed: one connected ``G(120, 0.05)`` sample, redrawn until
its edge count is within ``EDGE_SLACK`` of ``EDGES`` so that seeds differ in
structure but not much in size (and, for the modeled arm, per-node gravity
weights in 1..4 under the max aggregate).  One timed unit is ``ROUNDS``
round(s) of ``run_dynamics`` from that graph; units repeat, each from a
fresh state, while the budget lasts, and every unit must replay the same
trajectory.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time

import layers
import tracing
from common import (
    WORK, Calibrator, Outcome, peak_rss_mb, percentile, repeat_within,
)

N = 120
P = 0.05
ALPHA = 3
EDGES, EDGE_SLACK = 470, 5
ROUNDS = 1
SETUP_SAMPLES = 5


def make_inputs(seed: int, modeled: bool):
    from repro.core.costmodel import MaxCost
    from repro.core.traffic import TrafficMatrix
    from repro.graphs.generation import random_connected_gnp

    rng = random.Random(seed)
    graph = random_connected_gnp(N, P, rng)
    while abs(graph.number_of_edges() - EDGES) > EDGE_SLACK:
        graph = random_connected_gnp(N, P, rng)
    regime = {}
    if modeled:
        weights = [rng.randint(1, 4) for _ in range(N)]
        regime = {
            "traffic": TrafficMatrix.gravity(weights),
            "cost_model": MaxCost(),
        }
    return graph, regime


def _setup(graph, regime) -> float:
    """State build plus the first APSP (what a trajectory pays up front)."""
    from repro.core.state import GameState

    start = time.perf_counter()
    GameState(graph, ALPHA, **regime).social_cost()
    return time.perf_counter() - start


def _check(graph, regime, result) -> int:
    """Failures in one trajectory: moves that do not strictly improve every
    beneficiary, and a final social cost that differs from a fresh state's."""
    from repro.core.state import GameState

    failed = 0
    current = GameState(graph, ALPHA, **regime)
    for move in result.moves:
        successor = GameState(move.apply(current.graph), ALPHA, **regime)
        if not all(
            successor.cost(agent) < current.cost(agent)
            for agent in move.beneficiaries()
        ):
            failed += 1
        current = successor
    if current.social_cost() != result.social_costs[-1]:
        failed += 1
    return failed


def _digest(result) -> str:
    text = repr((result.moves, result.social_costs))
    return hashlib.sha256(text.encode()).hexdigest()


def _unit(graph, regime) -> dict:
    from repro.core.concepts import Concept
    from repro.dynamics.engine import run_dynamics
    from repro.dynamics.schedulers import best_improvement_scheduler

    starts: list[float] = []

    def scheduler(state, moves, rng):
        starts.append(time.perf_counter())
        return best_improvement_scheduler(state, moves, rng)

    setup_s = _setup(graph, regime)
    window_start = time.monotonic_ns()
    begun = time.perf_counter()
    result = run_dynamics(
        graph, ALPHA, Concept.BGE, scheduler=scheduler,
        max_rounds=ROUNDS, rng=random.Random(0), **regime,
    )
    ended = time.perf_counter()
    window = (window_start, time.monotonic_ns())
    bounds = starts + [ended]
    return {
        "setup_s": setup_s,
        "wall_s": ended - begun,
        "rounds": [b - a for a, b in zip(bounds, bounds[1:])],
        "window": window,
        "digest": _digest(result),
        "failed": _check(graph, regime, result),
        "attempted": len(result.moves) + 1,
    }


def run_phase(graph, regime, budget_s: float, calibrator) -> list[dict]:
    """Units for ``budget_s``, their times scaled to the reference machine."""
    units = []
    for unit, scale in repeat_within(
        budget_s, lambda: _unit(graph, regime), calibrator
    ):
        unit["setup_s"] *= scale
        unit["wall_s"] *= scale
        unit["rounds"] = [value * scale for value in unit["rounds"]]
        unit["scale"] = scale
        units.append(unit)
    return units


def _failures(units: list[dict], digest: str) -> int:
    failed = sum(unit["failed"] for unit in units)
    return failed + sum(1 for unit in units if unit["digest"] != digest)


def run(workload, seed, seconds, trace) -> Outcome:
    graph, regime = make_inputs(seed, modeled=workload == "dyn-modeled-n120")
    calibrator = Calibrator()
    notes = {"edges": graph.number_of_edges(), "rounds_per_unit": ROUNDS}
    if not trace:
        units = run_phase(graph, regime, seconds, calibrator)
        extra, scale = calibrator.run(
            lambda: [_setup(graph, regime) for _ in range(SETUP_SAMPLES)]
        )
        setups = [value * scale for value in extra]
        setups += [unit["setup_s"] for unit in units]
        rounds = [value for unit in units for value in unit["rounds"]]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(unit["wall_s"] for unit in units),
            "req_per_s": statistics.median(
                len(unit["rounds"]) / unit["wall_s"] for unit in units
            ),
            "p50_ms": 1000 * statistics.median(rounds),
            "p99_ms": 1000 * percentile(rounds, 99),
            "peak_rss_mb": peak_rss_mb(),
        }
        notes.update(
            units=len(units), round_samples=len(rounds),
            scale=statistics.median(unit["scale"] for unit in units),
        )
        return Outcome(
            metrics, sum(unit["attempted"] for unit in units),
            _failures(units, units[0]["digest"]), notes,
        )

    from repro.obs.metrics import REGISTRY

    plain = run_phase(graph, regime, seconds / 2, calibrator)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    before = REGISTRY.snapshot()
    traced = run_phase(graph, regime, seconds / 2, calibrator)
    deltas = layers.counter_delta(before, REGISTRY.snapshot())
    spans = tracing.in_windows(tracer.spans, [unit["window"] for unit in traced])
    tracer.write(WORK / f"trace-{workload}.txt")
    table = tracing.self_times(spans)
    scale = statistics.median(unit["scale"] for unit in traced)
    raw_wall = sum(unit["wall_s"] / unit["scale"] for unit in traced)
    metrics = layers.layer_metrics(
        table, tracing.mark_counts(spans, tracer.marks), deltas, len(traced),
        wall_s=raw_wall,
        root_s=tracing.root_time_s(spans),
        overhead_s=statistics.median(unit["wall_s"] for unit in traced)
        - statistics.median(unit["wall_s"] for unit in plain),
        scale=scale,
    )
    notes.update(untraced_units=len(plain), traced_units=len(traced))
    units = plain + traced
    # traced outputs must equal the untraced ones exactly
    return Outcome(
        metrics, sum(unit["attempted"] for unit in units),
        _failures(units, plain[0]["digest"]), notes,
        table=layers.per_unit_table(table, len(traced), scale),
        basis_s=raw_wall * scale / len(traced),
    )
