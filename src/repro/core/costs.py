"""Exact cost comparisons for move evaluation.

An agent's cost is ``alpha * k + d`` with ``k`` the number of bought edges
and ``d`` an integer distance total.  Comparing two such costs reduces to
comparing an integer against ``alpha * (k2 - k1)``, which Python evaluates
exactly on ``Fraction``s — no floating point is involved anywhere in an
equilibrium decision.

Under any other cost regime the distance total is the state's row value
``agg_v W[u, v] * f(dist(u, v))`` (:class:`~repro.core.costmodel.Valuation`)
— still an exact integer, so the same comparison applies.  Every helper
here values fresh distance rows through ``state.valuation``, so no caller
(certificate verifiers, tests) can mix a weighted or non-linear state
with plain row sums.  The only linear-by-definition quantities left in
the repo — ``GameState.rho()``, ``DynamicsResult.rho_trace``, the
Prop. 3.1 RE bound — raise outside the uniform linear game instead of
silently comparing against the linear optimum.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.state import GameState
from repro.graphs.distances import single_source_distances

__all__ = [
    "agent_cost",
    "agent_cost_after",
    "cost_strictly_less",
    "social_cost",
]


def cost_strictly_less(
    buy_count_new: int,
    dist_new: int,
    buy_count_old: int,
    dist_old: int,
    alpha: Fraction,
) -> bool:
    """Whether ``alpha*buy_new + dist_new < alpha*buy_old + dist_old``.

    Exact for any ``Fraction`` alpha and Python-int distances; the
    distance totals may be uniform or demand-weighted — both are exact
    integers.
    """
    return alpha * (buy_count_new - buy_count_old) < dist_old - dist_new


def agent_cost(state: GameState, u: int) -> Fraction:
    """``cost(u)`` in the given state."""
    return state.cost(u)


def agent_cost_after(state: GameState, graph_after, u: int) -> Fraction:
    """``cost(u)`` in a mutated graph, using the state's ``alpha``, ``M``
    and valuation.

    ``graph_after`` must keep the node set ``0..n-1``.  One BFS; intended
    for checking candidate moves without building a full new state.
    """
    dist = single_source_distances(graph_after, u, state.m_constant)
    return state.alpha * graph_after.degree(u) + state.valuation.row_value(
        u, dist
    )


def social_cost(state: GameState) -> Fraction:
    """Total cost over all agents (also available as a method on the state)."""
    return state.social_cost()


def strictly_improves(
    state: GameState, graph_after, u: int
) -> bool:
    """Whether agent ``u``'s total cost strictly drops in ``graph_after``."""
    new_dist = state.valuation.row_value(
        u, single_source_distances(graph_after, u, state.m_constant)
    )
    return cost_strictly_less(
        graph_after.degree(u),
        new_dist,
        state.graph.degree(u),
        state.dist_cost(u),
        state.alpha,
    )


def all_strictly_improve(
    state: GameState, graph_after, agents
) -> bool:
    """Whether every agent in ``agents`` strictly improves in ``graph_after``."""
    return all(strictly_improves(state, graph_after, u) for u in agents)


def max_agent_cost(state: GameState) -> Fraction:
    """``max_u cost(u)`` — the quantity of Lemma 3.17.

    Reads :meth:`GameState.totals`, so every regime maximises its own
    valued costs.
    """
    return max(
        state.alpha * int(degree) + int(value)
        for degree, value in zip(state.degrees(), state.totals())
    )
