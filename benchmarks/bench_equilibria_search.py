"""Perf: speculative-kernel BNE / 3-BSE searches vs pre-refactor baselines.

The baselines are verbatim ports of the searchers as they stood before the
speculative-kernel refactor: the BNE search copied the graph and ran one
fresh BFS per beneficiary per candidate; the coalition search rebuilt a
list-of-sets adjacency and ran a pure-Python BFS per member per candidate.
The refactored searchers evaluate every candidate on the cached distance
engine through LIFO undo tokens (one apply + one undo per candidate via
DFS prefix sharing, plus a sound member-dominance prune).

Both implementations share the same prefilters and budget accounting, and
their stability verdicts are asserted identical on every workload.  The
table and ``benchmarks/results/BENCH_equilibria_search.json`` record the
speedups; the headline assertion is the >= 3x target on the BNE and 3-BSE
search workloads.

Set ``REPRO_BENCH_QUICK=1`` for the scaled-down CI sizes.
"""

import itertools
import json
import os
import random
import time

import networkx as nx

from repro.analysis.tables import render_table
from repro.core.costs import all_strictly_improve
from repro.core.moves import CoalitionMove, NeighborhoodMove
from repro.core.state import GameState
from repro.equilibria.neighborhood import (
    find_improving_neighborhood_move,
    willing_partners,
)
from repro.equilibria.strong import (
    _coalition_edge_space,
    find_improving_coalition_move,
)
from repro.graphs.generation import random_tree

from _harness import RESULTS_DIR, emit, once, write_bench_json

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


# -- pre-refactor baselines --------------------------------------------------


def baseline_neighborhood_search(state, max_add, max_remove):
    """The old BNE search: graph copy + fresh BFS per candidate."""
    alpha = state.alpha
    for center in range(state.n):
        neighbors = sorted(state.graph.neighbors(center))
        willing = willing_partners(state, center)
        center_dist = state.dist_cost(center)
        slack = center_dist - (state.n - 1)
        remove_cap = min(len(neighbors), max_remove)
        add_cap = min(len(willing), max_add)
        for removed_size in range(remove_cap + 1):
            for removed in itertools.combinations(neighbors, removed_size):
                for added_size in range(add_cap + 1):
                    if removed_size == 0 and added_size == 0:
                        continue
                    if alpha * (added_size - removed_size) >= slack:
                        break
                    for added in itertools.combinations(willing, added_size):
                        move = NeighborhoodMove(
                            center=center, removed=removed, added=added
                        )
                        graph_after = move.apply(state.graph)
                        if all_strictly_improve(
                            state, graph_after, move.beneficiaries()
                        ):
                            return move
    return None


def _baseline_dist_total(adjacency, source, unreachable):
    n = len(adjacency)
    dist = [-1] * n
    dist[source] = 0
    queue = [source]
    head = 0
    total = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        for neighbor in adjacency[node]:
            if dist[neighbor] < 0:
                dist[neighbor] = dist[node] + 1
                total += dist[neighbor]
                queue.append(neighbor)
    return total + (n - len(queue)) * unreachable


def _baseline_powerset(items):
    return itertools.chain.from_iterable(
        itertools.combinations(items, size) for size in range(len(items) + 1)
    )


def baseline_coalition_search(state, coalitions):
    """The old k-BSE search: adjacency rebuild + Python BFS per member."""
    base_dist = {u: state.dist_cost(u) for u in range(state.n)}
    base_adjacency = [set() for _ in range(state.n)]
    for u, v in state.graph.edges:
        base_adjacency[u].add(v)
        base_adjacency[v].add(u)
    for coalition in coalitions:
        removable, addable = _coalition_edge_space(state, coalition)
        members = list(coalition)
        for removed in _baseline_powerset(removable):
            for added in _baseline_powerset(addable):
                if not removed and not added:
                    continue
                adjacency = [set(neighbors) for neighbors in base_adjacency]
                for u, v in removed:
                    adjacency[u].discard(v)
                    adjacency[v].discard(u)
                for u, v in added:
                    adjacency[u].add(v)
                    adjacency[v].add(u)
                improving = True
                for member in members:
                    new_dist = _baseline_dist_total(
                        adjacency, member, state.m_constant
                    )
                    delta_buy = len(adjacency[member]) - state.graph.degree(
                        member
                    )
                    if not state.alpha * delta_buy < (
                        base_dist[member] - new_dist
                    ):
                        improving = False
                        break
                if improving:
                    return CoalitionMove(
                        coalition=tuple(coalition),
                        removed_edges=tuple(removed),
                        added_edges=tuple(added),
                    )
    return None


# -- workloads ---------------------------------------------------------------


def _bne_workload():
    """Stable trees whose willing-partner lists stay populated.

    On a tree every removal disconnects (never improving) and ``alpha``
    sits above the best achievable addition gain, so both searchers walk
    the full bounded candidate space; the willing-partner *bound* is loose
    enough to keep the space non-trivial.
    """
    n = 24 if QUICK else 44
    alpha = 260 if QUICK else 640
    instances = [
        ("path", nx.path_graph(n), alpha),
        ("tree", random_tree(n, random.Random(5)), alpha),
    ]
    caps = {"max_add": 2, "max_remove": 2}
    return instances, caps


def _bse_workload():
    """Stable trees plus a seeded 3-coalition sample at larger n."""
    n = 52 if QUICK else 88
    alpha = 3000 if QUICK else 8200
    count = 100 if QUICK else 200
    rng = random.Random(9)
    graph = random_tree(n, rng)
    coalitions = [
        tuple(sorted(rng.sample(range(n), 3))) for _ in range(count)
    ]
    return graph, alpha, coalitions


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def study():
    rows = []
    payload = {}

    instances, caps = _bne_workload()
    baseline_s = kernel_s = 0.0
    for name, graph, alpha in instances:
        state = GameState(graph, alpha)
        state.dist  # both regimes start from a materialised engine
        spent, theirs = _timed(
            lambda: baseline_neighborhood_search(state, **caps)
        )
        baseline_s += spent
        spent, ours = _timed(
            lambda: find_improving_neighborhood_move(
                state, max_evaluations=50_000_000, **caps
            )
        )
        kernel_s += spent
        assert (ours is None) == (theirs is None), (name, ours, theirs)
    speedup = baseline_s / kernel_s if kernel_s > 0 else float("inf")
    rows.append(
        [
            "BNE search",
            f"{baseline_s * 1e3:.0f}",
            f"{kernel_s * 1e3:.0f}",
            f"{speedup:.1f}x",
        ]
    )
    payload["bne"] = {
        "baseline_seconds": baseline_s,
        "kernel_seconds": kernel_s,
        "speedup": speedup,
    }

    graph, alpha, coalitions = _bse_workload()
    state = GameState(graph, alpha)
    state.dist
    baseline_s, theirs = _timed(
        lambda: baseline_coalition_search(state, coalitions)
    )
    kernel_s, ours = _timed(
        lambda: find_improving_coalition_move(
            state, 3, coalitions=coalitions, max_evaluations=500_000_000
        )
    )
    assert (ours is None) == (theirs is None), (ours, theirs)
    speedup = baseline_s / kernel_s if kernel_s > 0 else float("inf")
    rows.append(
        [
            "3-BSE search",
            f"{baseline_s * 1e3:.0f}",
            f"{kernel_s * 1e3:.0f}",
            f"{speedup:.1f}x",
        ]
    )
    payload["bse3"] = {
        "baseline_seconds": baseline_s,
        "kernel_seconds": kernel_s,
        "speedup": speedup,
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_json("BENCH_equilibria_search", {"quick": QUICK, "workloads": payload})
    return rows, payload


def test_equilibria_search(benchmark):
    rows, payload = once(benchmark, study)
    emit(
        "equilibria_search",
        render_table(
            ["workload", "baseline ms", "kernel ms", "speedup"],
            rows,
            title="Speculative kernel vs per-candidate BFS search",
        ),
    )
    # the tentpole target: >= 3x on the full-size workloads (the committed
    # results record that run).  Quick mode runs sizes too small for the
    # asymptotic margin, so it only sanity-checks that the kernel wins;
    # drift is caught by check_regression.py against the quick baseline.
    floor = 1.5 if QUICK else 3
    for name, stats in payload.items():
        assert stats["speedup"] >= floor, (name, stats)
