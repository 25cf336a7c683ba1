"""Perf: what the telemetry layer costs per best-response round.

Every module-global spy lives in the ``repro.obs`` registry (locked
increments) and trace spans are wired into the sweep path, so the hot
loop pays: one ``span("engine.sweep")`` per ``best()`` call, one
dispatch-arm counter per priced run, and one ``note_evaluations``
counter per run.  This benchmark measures that cost where it matters —
the per-round wall time of a best-response round (scanning the priced
BGE move pool and reducing it) — under both trace arms:

``disabled``
    ``REPRO_TRACE`` off: ``span()`` is one module-flag check returning a
    shared no-op.  The design budget is <= 1% of a round.
``enabled``
    Tracing on, spans written to a throwaway sink — one JSON line per
    round.  The design budget is <= 3% of a round.

Both arms run the *identical* deterministic sweep (telemetry never
alters results — ``tests/test_obs.py`` asserts byte-identity), so the
ratio isolates pure telemetry cost.  A micro-timing of the disabled-path
null span is reported alongside (the per-span cost that the <= 1%
budget divides by the round time).

``speedup`` (disabled/enabled seconds) is tracked by
``check_regression.py`` against ``baselines/BENCH_obs_overhead.json``:
a telemetry change that makes enabled tracing expensive fails the gate.

Set ``REPRO_BENCH_QUICK=1`` for the scaled-down CI sizes.
"""

import os
import random
import statistics
import time

from repro.analysis.tables import render_table
from repro.core.concepts import Concept
from repro.core.speculative import SpeculativeEvaluator
from repro.core.state import GameState
from repro.dynamics.movegen import move_pool
from repro.graphs.generation import random_connected_gnp
from repro.obs import trace as trace_mod

from _harness import RESULTS_DIR, emit, once, write_bench_json

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

N = 30 if QUICK else 48
ROUNDS = 30 if QUICK else 60
REPEATS = 3 if QUICK else 5
NULL_SPAN_ITERS = 20_000 if QUICK else 100_000


def _workload():
    graph = random_connected_gnp(N, 0.1, random.Random(23))
    state = GameState(graph, 3)
    state.dist  # one APSP build up front, outside the timed region
    pool = move_pool(state, Concept.BGE)
    return state, pool


def _time_pass(spec, pool) -> float:
    """Seconds per sweep round, one timing pass."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        spec.best(pool)
    return (time.perf_counter() - start) / ROUNDS


def _time_arms(state, pool, sink) -> tuple[float, float]:
    """Interleaved disabled/enabled per-round times (min over passes).

    Alternating the arms inside every repeat keeps slow drift on a
    shared runner (thermal, noisy neighbours) from landing entirely on
    one arm and manufacturing a phantom overhead — or a phantom speedup.
    """
    spec = SpeculativeEvaluator(state)
    spec.best(pool)  # warm the kernels/allocator outside the timing
    disabled, enabled = [], []
    for _ in range(REPEATS):
        trace_mod.disable_trace()
        disabled.append(_time_pass(spec, pool))
        trace_mod.enable_trace(sink)
        try:
            enabled.append(_time_pass(spec, pool))
        finally:
            trace_mod.disable_trace()
    return min(disabled), min(enabled)


def _null_span_ns() -> float:
    """Median nanoseconds of one disabled-path span round trip."""
    assert not trace_mod.trace_enabled()
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        for _ in range(NULL_SPAN_ITERS):
            with trace_mod.span("bench.null"):
                pass
        samples.append((time.perf_counter_ns() - start) / NULL_SPAN_ITERS)
    return statistics.median(samples)


def study():
    state, pool = _workload()

    sink = RESULTS_DIR / "obs_overhead_trace.jsonl"
    RESULTS_DIR.mkdir(exist_ok=True)
    sink.unlink(missing_ok=True)
    trace_mod.disable_trace()
    try:
        disabled_s, enabled_s = _time_arms(state, pool, sink)
        null_ns = _null_span_ns()
    finally:
        trace_mod.disable_trace()
        sink.unlink(missing_ok=True)

    overhead_pct = (enabled_s / disabled_s - 1.0) * 100.0
    # the disabled arm's span cost, as a share of one measured round
    disabled_pct = null_ns / (disabled_s * 1e9) * 100.0
    payload = {
        "best_response_round": {
            "n": N,
            "pool": sum(1 for _ in pool),
            "disabled_ms": disabled_s * 1e3,
            "enabled_ms": enabled_s * 1e3,
            "enabled_overhead_pct": overhead_pct,
            "speedup": disabled_s / enabled_s,
        },
    }
    micro = {
        "null_span_ns": null_ns,
        "disabled_span_share_pct": disabled_pct,
    }
    write_bench_json(
        "BENCH_obs_overhead",
        {"quick": QUICK, "workloads": payload, "micro": micro},
    )
    return payload, micro


def test_obs_overhead(benchmark):
    payload, micro = once(benchmark, study)
    round_stats = payload["best_response_round"]
    emit(
        "obs_overhead",
        render_table(
            ["arm", "ms/round", "overhead %"],
            [
                ["trace disabled", f"{round_stats['disabled_ms']:.3f}",
                 f"{micro['disabled_span_share_pct']:.4f} (null span)"],
                ["trace enabled", f"{round_stats['enabled_ms']:.3f}",
                 f"{round_stats['enabled_overhead_pct']:.2f}"],
            ],
            title=(
                f"telemetry overhead per best-response round "
                f"(n={round_stats['n']}, pool={round_stats['pool']}, "
                f"null span {micro['null_span_ns']:.0f}ns)"
            ),
        ),
    )
    # design budgets are 3% enabled / 1% disabled; the asserted bounds
    # are looser so a noisy shared CI runner cannot flake the suite —
    # the committed baseline's speedup gate tracks the precise ratio
    assert round_stats["enabled_overhead_pct"] < 10.0
    assert micro["disabled_span_share_pct"] < 1.0
    assert micro["null_span_ns"] < 10_000
