"""Perf: reducing a priced move pool vs per-candidate speculation per round.

Replays best-response dynamics round by round: each round scans the
concept's priced move pool once (``repro.dynamics.movegen.move_pool``),
then times two ways of picking the best move from it —

(a) one speculation per candidate (``SpeculativeEvaluator.evaluate`` —
    apply the move to the cached engine, measure, undo), and
(b) the batched regime behind ``best_improvement_scheduler``:
    ``SpeculativeEvaluator.best`` reducing the deltas the scan already
    priced (the first argmin of each run, the strict-less winner across
    runs, one ``MoveEvaluation`` for the winner).

The scan itself runs before either clock starts, so both arms time only
the choice.  Both paths are asserted to pick the same move with
identical exact cost deltas before it is applied and the next round
begins, so the timed trajectories are move-for-move the same.  The
``weighted`` family runs the same rounds under a random demand matrix,
exercising the general valuation end-to-end.  Results land in
``benchmarks/results/BENCH_dynamics_rounds.json`` (tracked by
``check_regression.py``; ``speedup`` is per-candidate vs batched — the
acceptance target is >= 10x on the quick sizes).

Set ``REPRO_BENCH_QUICK=1`` for the scaled-down CI sizes.
"""

import json
import os
import random
import time

import networkx as nx

from repro.analysis.tables import render_table
from repro.core.batch import MovePool
from repro.core.concepts import Concept
from repro.core.speculative import SpeculativeEvaluator
from repro.core.traffic import TrafficMatrix
from repro.dynamics.movegen import move_pool
from repro.graphs.generation import random_connected_gnp, random_tree

from _harness import RESULTS_DIR, emit, once, write_bench_json

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _lollipop(core: int, tail: int) -> nx.Graph:
    """A clique with a pendant path: cyclic, with real bridges."""
    graph = nx.complete_graph(core)
    for extra in range(core, core + tail):
        graph.add_edge(extra - 1, extra)
    return graph


def _families():
    n = 30 if QUICK else 56
    core = 12 if QUICK else 16
    rounds = 6 if QUICK else 8
    return [
        (
            "gnp_bge",
            random_connected_gnp(n, 0.1, random.Random(23)),
            3,
            Concept.BGE,
            rounds,
            None,
        ),
        (
            # kept deliberately smaller than the other families: the
            # clique core's swap pool grows ~ core^2 * n per round
            "lollipop_bge",
            _lollipop(core, core),
            2,
            Concept.BGE,
            rounds,
            None,
        ),
        (
            "tree_ps",
            random_tree(n, random.Random(29)),
            2,
            Concept.PS,
            rounds,
            None,
        ),
        (
            # the batched-pool scenario under heterogeneous demands: the
            # demand-weighted valuation prices every run
            "gnp_bge_weighted",
            random_connected_gnp(n, 0.1, random.Random(23)),
            3,
            Concept.BGE,
            rounds,
            TrafficMatrix.random_demands(n, seed=23, high=5),
        ),
    ]


def _best_per_candidate(spec, pool):
    """One apply/undo speculation per candidate."""
    best = None
    for move in pool:
        evaluation = spec.evaluate(move)
        if best is None or evaluation.total_delta < best[1].total_delta:
            best = (move, evaluation)
    return best


def _replay(graph, alpha, concept, rounds, traffic):
    from repro.core.state import GameState

    state = GameState(graph, alpha, traffic=traffic)
    state.dist  # one APSP build up front, shared by the whole replay
    batched_s = 0.0
    speculated_s = 0.0
    candidates = 0
    played = 0
    rng = random.Random(31)
    for _ in range(rounds):
        # scan once, outside both clocks: the runs keep their prices
        runs = list(move_pool(state, concept, rng).runs())
        priced = MovePool(state, lambda: runs)
        pool = [move for run in runs for move in run]
        if not pool:
            break
        candidates += len(pool)

        start = time.perf_counter()
        spec = SpeculativeEvaluator(state)
        chosen = spec.best(priced)
        batched_s += time.perf_counter() - start

        start = time.perf_counter()
        spec = SpeculativeEvaluator(state)
        reference = _best_per_candidate(spec, pool)
        speculated_s += time.perf_counter() - start

        assert chosen is not None and reference is not None
        assert chosen[0] == reference[0], "paths disagree on the best move"
        assert chosen[1].cost_deltas == reference[1].cost_deltas
        state = state.apply(chosen[0])
        played += 1
    return batched_s, speculated_s, candidates, played


def study():
    rows = []
    payload = {}
    for name, graph, alpha, concept, rounds, traffic in _families():
        batched_s, speculated_s, candidates, played = _replay(
            graph, alpha, concept, rounds, traffic
        )
        speedup = speculated_s / batched_s if batched_s > 0 else float("inf")
        rows.append(
            [
                name,
                graph.number_of_nodes(),
                played,
                candidates,
                f"{batched_s * 1e3:.1f}",
                f"{speculated_s * 1e3:.1f}",
                f"{speedup:.1f}x",
            ]
        )
        payload[name] = {
            "n": graph.number_of_nodes(),
            "alpha": alpha,
            "concept": concept.name,
            "weighted": traffic is not None,
            "rounds_played": played,
            "candidates": candidates,
            "batched_seconds": batched_s,
            "per_candidate_seconds": speculated_s,
            "speedup": speedup,
        }
    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_json("BENCH_dynamics_rounds", {"quick": QUICK, "rounds": payload})
    return rows, payload


def test_dynamics_rounds(benchmark):
    rows, payload = once(benchmark, study)
    emit(
        "dynamics_rounds",
        render_table(
            ["family", "n", "rounds", "candidates", "batched ms",
             "per-candidate ms", "speedup"],
            rows,
            title="Best-response rounds: priced pool reduction vs "
            "per-candidate speculation",
        ),
    )
    for name, stats in payload.items():
        assert stats["rounds_played"] > 0, (name, "pool was empty from round 0")
        # hard sanity floor; the >= 10x acceptance target lives in the
        # committed baseline and is enforced by check_regression.py
        assert stats["speedup"] >= 5, (name, stats)
