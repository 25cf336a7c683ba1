"""Naive reference implementations used to validate the fast checkers.

Everything here recomputes distances from scratch with networkx BFS and
compares exact Fraction costs — slow but obviously correct.  The unit tests
cross-check every optimised checker against these on enumerated small
graphs, so any vectorisation bug surfaces as a disagreement.

The per-candidate sequential sweep (:func:`best_sequential`) is the oracle
of ``SpeculativeEvaluator.best``'s pool reduction, and :func:`dynamics_trace`
records whole seeded trajectories for bit-identity checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import networkx as nx
import numpy as np

from repro.core.state import GameState


def naive_cost(graph: nx.Graph, alpha: Fraction, u: int, m_constant: int) -> Fraction:
    lengths = nx.single_source_shortest_path_length(graph, u)
    total = 0
    for v in graph.nodes:
        if v == u:
            continue
        total += lengths.get(v, m_constant)
    return alpha * graph.degree(u) + total


def _improves(
    state: GameState, graph_after: nx.Graph, agent: int
) -> bool:
    before = naive_cost(state.graph, state.alpha, agent, state.m_constant)
    after = naive_cost(graph_after, state.alpha, agent, state.m_constant)
    return after < before


def naive_is_remove_equilibrium(state: GameState) -> bool:
    for u, v in state.graph.edges:
        for actor in (u, v):
            mutated = state.graph.copy()
            mutated.remove_edge(u, v)
            if _improves(state, mutated, actor):
                return False
    return True


def naive_is_bilateral_add_equilibrium(state: GameState) -> bool:
    nodes = list(state.graph.nodes)
    for u, v in itertools.combinations(nodes, 2):
        if state.graph.has_edge(u, v):
            continue
        mutated = state.graph.copy()
        mutated.add_edge(u, v)
        if _improves(state, mutated, u) and _improves(state, mutated, v):
            return False
    return True


def _naive_dist_total(graph: nx.Graph, u: int, m_constant: int) -> int:
    lengths = nx.single_source_shortest_path_length(graph, u)
    return sum(
        lengths.get(v, m_constant) for v in graph.nodes if v != u
    )


def naive_is_unilateral_add_equilibrium(state: GameState) -> bool:
    """Only the buyer pays, so she improves iff her distance gain > alpha."""
    nodes = list(state.graph.nodes)
    for u, v in itertools.permutations(nodes, 2):
        if state.graph.has_edge(u, v):
            continue
        mutated = state.graph.copy()
        mutated.add_edge(u, v)
        gain = _naive_dist_total(
            state.graph, u, state.m_constant
        ) - _naive_dist_total(mutated, u, state.m_constant)
        if gain > state.alpha:
            return False
    return True


def naive_is_bilateral_swap_equilibrium(state: GameState) -> bool:
    nodes = list(state.graph.nodes)
    for u in nodes:
        for v in list(state.graph.neighbors(u)):
            for w in nodes:
                if w in (u, v) or state.graph.has_edge(u, w):
                    continue
                mutated = state.graph.copy()
                mutated.remove_edge(u, v)
                mutated.add_edge(u, w)
                # u's buying cost unchanged, w's increases by alpha:
                # both conditions are captured by the cost comparison.
                if _improves(state, mutated, u) and _improves(state, mutated, w):
                    return False
    return True


def naive_is_pairwise_stable(state: GameState) -> bool:
    return naive_is_remove_equilibrium(
        state
    ) and naive_is_bilateral_add_equilibrium(state)


def naive_is_bge(state: GameState) -> bool:
    return naive_is_pairwise_stable(
        state
    ) and naive_is_bilateral_swap_equilibrium(state)


# -- pre-refactor searcher references ----------------------------------------
#
# Verbatim ports of the BNE / k-BSE searchers as they stood before the
# speculative-kernel refactor: per-candidate graph copies plus fresh BFS
# (neighborhood) and adjacency-set rebuilds plus pure-Python BFS
# (coalitions).  The budget-accounting formulas are the ones the library
# still uses, so SearchBudgetExceeded behaviour must match exactly.


def reference_find_improving_neighborhood_move(
    state: GameState,
    centers=None,
    max_evaluations: int = 2_000_000,
    max_add=None,
    max_remove=None,
):
    from repro.core.costs import all_strictly_improve
    from repro.core.moves import NeighborhoodMove
    from repro.equilibria.neighborhood import (
        SearchBudgetExceeded,
        _center_space_size,
        willing_partners,
    )

    if centers is None:
        centers = range(state.n)
    alpha = state.alpha
    for center in centers:
        neighbors = sorted(state.graph.neighbors(center))
        willing = willing_partners(state, center)
        degree = len(neighbors)
        if max_remove is not None:
            degree = min(degree, max_remove)
        if _center_space_size(degree, len(willing), max_add) > max_evaluations:
            raise SearchBudgetExceeded(
                f"center {center}: deg={len(neighbors)}, "
                f"willing={len(willing)} exceeds budget {max_evaluations}"
            )
        center_dist = state.dist_cost(center)
        slack = center_dist - (state.n - 1)
        remove_cap = len(neighbors) if max_remove is None else max_remove
        add_cap = len(willing) if max_add is None else min(max_add, len(willing))
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


def _reference_powerset(items):
    return itertools.chain.from_iterable(
        itertools.combinations(items, size) for size in range(len(items) + 1)
    )


def _reference_dist_total(adjacency, source: int, unreachable: int) -> int:
    from collections import deque

    n = len(adjacency)
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    total = 0
    seen = 1
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if dist[neighbor] < 0:
                dist[neighbor] = dist[node] + 1
                total += dist[neighbor]
                seen += 1
                queue.append(neighbor)
    return total + (n - seen) * unreachable


def reference_find_improving_coalition_move(
    state: GameState,
    max_coalition_size: int,
    coalitions=None,
    max_evaluations: int = 5_000_000,
):
    from repro.core.moves import CoalitionMove
    from repro.equilibria.neighborhood import SearchBudgetExceeded
    from repro.equilibria.strong import _coalition_edge_space

    if coalitions is None:
        nodes = range(state.n)
        coalitions = itertools.chain.from_iterable(
            itertools.combinations(nodes, size)
            for size in range(1, min(max_coalition_size, state.n) + 1)
        )
    base_dist = {u: state.dist_cost(u) for u in range(state.n)}
    base_adjacency = [set() for _ in range(state.n)]
    for u, v in state.graph.edges:
        base_adjacency[u].add(v)
        base_adjacency[v].add(u)
    budget = max_evaluations
    for coalition in coalitions:
        removable, addable = _coalition_edge_space(state, coalition)
        space = 2 ** (len(removable) + len(addable))
        budget -= space
        if budget < 0:
            raise SearchBudgetExceeded(
                f"coalition {coalition}: 2^{len(removable) + len(addable)} "
                f"move candidates exceed the evaluation budget"
            )
        members = list(coalition)
        for removed in _reference_powerset(removable):
            for added in _reference_powerset(addable):
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
                    new_dist = _reference_dist_total(
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


# -- seeded dynamics trajectories --------------------------------------------

#: cost-model spec per trajectory regime (every regime but ``uniform``
#: and the ``disconnected-*`` ones also carries seeded random demands;
#: ``sparse`` zeroes half the pairs)
_TRACE_MODELS = {
    "modeled": {"model": "convex", "exponent": 2},
    "max": {"model": "max"},
    "concave": {"model": "concave", "exponent": "1/2", "scale": 3},
    "disconnected-max": {"model": "max"},
    "disconnected-gravity-max": {"model": "max"},
}


def trace_start(seed: int, regime: str):
    """The seeded start of one :func:`dynamics_trace` trajectory:
    ``(graph, alpha, concept, traffic, cost_model)``.

    ``regime`` is ``uniform`` (the paper's game), ``weighted`` (random
    demands in ``0..5``), ``sparse`` (the same with about half the pairs
    at zero demand), ``modeled`` / ``max`` / ``concave`` (random
    demands under the convex, max and concave cost models), or
    ``disconnected-max`` / ``disconnected-gravity-max`` (the max model
    without demands and with gravity demands ``1..n``, so every demand
    is positive, started with agent 0 cut off).
    """
    import random

    from repro.core.concepts import Concept
    from repro.core.costmodel import costmodel_from_spec
    from repro.core.traffic import TrafficMatrix
    from repro.graphs.generation import random_connected_gnp

    rng = random.Random(970_000 + seed)
    n = rng.randint(6, 11)
    graph = random_connected_gnp(n, 0.25 + rng.random() * 0.3, rng)
    alpha = Fraction(rng.randint(1, 8), rng.choice((1, 2)))
    concept = Concept.BGE if seed % 2 else Concept.PS
    traffic = cost_model = None
    if regime.startswith("disconnected-"):
        # a max aggregate already at the sentinel may ignore a bridge drop
        graph.remove_edges_from(list(graph.edges(0)))
        if regime == "disconnected-gravity-max":
            traffic = TrafficMatrix.gravity(range(1, n + 1))
    elif regime != "uniform":
        density = 0.5 if regime == "sparse" else 1.0
        traffic = TrafficMatrix.random_demands(
            n, seed=seed, high=5, density=density
        )
    if regime in _TRACE_MODELS:
        cost_model = costmodel_from_spec(_TRACE_MODELS[regime], n)
    return graph, alpha, concept, traffic, cost_model


def dynamics_trace(seed: int, regime: str):
    """One seeded best-response trajectory from :func:`trace_start`;
    returns its full bit record."""
    import random

    from repro.dynamics.engine import run_dynamics
    from repro.dynamics.schedulers import best_improvement_scheduler

    graph, alpha, concept, traffic, cost_model = trace_start(seed, regime)
    result = run_dynamics(
        graph,
        alpha,
        concept,
        scheduler=best_improvement_scheduler,
        max_rounds=40,
        rng=random.Random(seed),
        traffic=traffic,
        cost_model=cost_model,
    )
    return (
        tuple(repr(move) for move in result.moves),
        tuple(sorted(tuple(sorted(e)) for e in result.final.graph.edges)),
        tuple(result.social_costs),
        result.converged,
        result.cycled,
        result.rounds,
    )


# -- the per-candidate sequential sweep ---------------------------------------


def add_gain_pair(spec, u: int, v: int) -> tuple[int, int]:
    """Row-value gains of both endpoints when edge ``uv`` is added, one
    candidate at a time (the one-edge-add identity on the live matrix)."""
    matrix = spec.engine.matrix
    value = spec.valuation.row_value
    return (
        value(u, matrix[u]) - value(u, np.minimum(matrix[u], 1 + matrix[v])),
        value(v, matrix[v]) - value(v, np.minimum(matrix[v], 1 + matrix[u])),
    )


def evaluate_rows_only(spec, move):
    """Exact evaluation of a one-edge move without touching the engine —
    the per-candidate reference for the priced runs of
    :mod:`repro.core.batch`.

    Additions read the one-edge-add identity, removals the engine's
    removal query for the actor's row, and swaps compose a removal with
    the add identity (a ``Fold`` split + extend over ``{actor, old,
    new}`` when the dropped edge is a bridge — found by a chain
    decomposition of the actor's component — the engine's rows of the
    actor and partner otherwise).  Returns ``None`` for compound moves
    and inside an active speculation scope (deltas compare against the
    base snapshot).
    """
    from repro.core.moves import AddEdge, RemoveEdge, Swap, normalize_edge
    from repro.core.speculative import MoveEvaluation
    from repro.graphs.bridges import component_bridges

    if spec.depth:
        return None
    value = spec.valuation.row_value
    if isinstance(move, AddEdge):
        u, v = move.u, move.v
        if spec.graph.has_edge(u, v):
            raise ValueError(f"edge {u}-{v} already exists")
        spec.note_evaluation()
        gain_u, gain_v = add_gain_pair(spec, u, v)
        deltas = ((u, spec.alpha - gain_u), (v, spec.alpha - gain_v))
    elif isinstance(move, RemoveEdge):
        actor, other = move.actor, move.other
        spec.note_evaluation()
        row = spec.engine.rows_after_remove_from(actor, other, (actor,))
        dist_after = value(actor, row[0])
        deltas = ((actor, dist_after - spec.base_dist(actor) - spec.alpha),)
    elif isinstance(move, Swap):
        actor, old, new = move.actor, move.old, move.new
        if spec.graph.has_edge(actor, new):
            raise ValueError(f"edge {actor}-{new} already exists")
        if normalize_edge(actor, old) in component_bridges(
            spec.graph._adj, (actor,)
        ):
            fold = spec.fold((actor, old, new)).split(actor, old)
            fold = fold.extend(actor, new)
            dist_actor = fold.dist_total(actor)
            dist_new = fold.dist_total(new)
        else:
            rows = spec.engine.rows_after_remove_from(actor, old, (actor, new))
            dist_actor = value(actor, np.minimum(rows[0], 1 + rows[1]))
            dist_new = value(new, np.minimum(rows[1], 1 + rows[0]))
        spec.note_evaluation()
        deltas = (
            (actor, Fraction(dist_actor - spec.base_dist(actor))),
            (new, dist_new - spec.base_dist(new) + spec.alpha),
        )
    else:
        return None
    return MoveEvaluation(
        move=move,
        cost_deltas=deltas,
        improving=all(delta < 0 for _, delta in deltas),
    )


def best_sequential(spec, moves):
    """The per-candidate reference sweep for ``SpeculativeEvaluator.best``:
    rows-only where :func:`evaluate_rows_only` applies, one speculation
    otherwise; the first strictly best total delta wins."""
    best_move = best_eval = None
    for move in moves:
        evaluation = evaluate_rows_only(spec, move)
        if evaluation is None:
            evaluation = spec.evaluate(move)
        if best_eval is None or evaluation.total_delta < best_eval.total_delta:
            best_move = move
            best_eval = evaluation
    if best_move is None:
        return None
    return best_move, best_eval
