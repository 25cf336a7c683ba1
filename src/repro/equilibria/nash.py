"""Unilateral NCG: edge ownership, best responses, and Pure Nash Equilibria.

In the unilateral game every edge is bought by exactly one endpoint (the
simplifying assumption of Section 2).  A state is a graph plus an
:class:`EdgeAssignment` mapping each edge to its owner; agent ``u``'s
strategy is the set of targets she owns.  A deviation replaces her whole
strategy: edges owned by *others* persist no matter what ``u`` plays.

Computing a best response in the NCG is NP-hard in general, so the exact
checker enumerates all ``2^(n-1)`` strategies per agent and is guarded to
small ``n`` — exactly what the Figure 2 / Proposition 2.3 experiments need.
Each deviation is costed on the speculative kernel (its one-edge deltas
applied to the cached distance engine and undone via LIFO tokens) instead
of rebuilding a graph and running a fresh BFS per strategy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx

from repro.core.moves import normalize_edge
from repro.core.speculative import SpeculativeEvaluator
from repro.core.state import GameState

__all__ = [
    "EdgeAssignment",
    "best_response",
    "is_nash_equilibrium",
    "is_unilateral_remove_equilibrium",
    "strategy_cost",
]

_MAX_EXACT_N = 16


@dataclass(frozen=True)
class EdgeAssignment:
    """Owner of every edge; owners must be incident to their edge."""

    owner: dict[tuple[int, int], int]

    @staticmethod
    def from_pairs(pairs) -> "EdgeAssignment":
        """Build from ``(owner, target)`` pairs."""
        owner = {}
        for buyer, target in pairs:
            owner[normalize_edge(buyer, target)] = buyer
        return EdgeAssignment(owner=owner)

    def validate(self, graph: nx.Graph) -> None:
        edges = {normalize_edge(u, v) for u, v in graph.edges}
        if set(self.owner) != edges:
            raise ValueError("assignment must cover exactly the graph's edges")
        for (u, v), who in self.owner.items():
            if who not in (u, v):
                raise ValueError(f"owner {who} not incident to edge {u}-{v}")

    def strategy(self, agent: int) -> frozenset[int]:
        """Targets bought by ``agent``."""
        return frozenset(
            (v if u == agent else u)
            for (u, v), who in self.owner.items()
            if who == agent
        )


def _kept_neighbors(assignment: EdgeAssignment, agent: int) -> frozenset[int]:
    """Neighbors of ``agent`` whose edge persists under any deviation
    (bought by the other endpoint)."""
    return frozenset(
        v if u == agent else u
        for (u, v), who in assignment.owner.items()
        if who != agent and agent in (u, v)
    )


def _deviation_deltas(
    state: GameState,
    kept: frozenset[int],
    agent: int,
    strategy: frozenset[int],
) -> list[tuple[str, int, int]]:
    """Ordered one-edge deltas turning the current graph into the graph
    induced by ``agent`` unilaterally playing ``strategy``.

    Only edges incident to ``agent`` can change: edges owned by others
    persist, so the realised neighborhood is ``kept | strategy``.
    """
    current = set(state.graph.neighbors(agent))
    realised = set(kept) | set(strategy)
    return [
        ("remove", agent, other) for other in sorted(current - realised)
    ] + [("add", agent, other) for other in sorted(realised - current)]


def _strategy_cost_speculative(
    spec: SpeculativeEvaluator,
    kept: frozenset[int],
    agent: int,
    strategy: frozenset[int],
) -> Fraction:
    """``agent``'s cost under ``strategy``, read off the kernel.

    Double-bought edges still cost her ``alpha`` each (she pays per
    target, not per realised edge), so the buying term uses
    ``len(strategy)`` rather than the realised degree.
    """
    state = spec.state
    deltas = _deviation_deltas(state, kept, agent, strategy)
    with spec.applied(deltas):
        # the agent's row value under the state's valuation
        dist_after = spec.current_dist(agent)
    return state.alpha * len(strategy) + dist_after


def strategy_cost(
    state: GameState,
    assignment: EdgeAssignment,
    agent: int,
    strategy: frozenset[int],
) -> Fraction:
    """Cost of ``agent`` if she unilaterally plays ``strategy``.

    The induced graph keeps all edges owned by other agents and adds
    ``agent``'s bought edges; double-bought edges still cost her ``alpha``
    each (she pays per target, not per realised edge).  Evaluated on the
    speculative kernel: the deviation's one-edge deltas are applied to the
    state's cached distance engine and rolled back via undo tokens.
    """
    spec = SpeculativeEvaluator(state)
    kept = _kept_neighbors(assignment, agent)
    return _strategy_cost_speculative(spec, kept, agent, strategy)


def best_response(
    state: GameState,
    assignment: EdgeAssignment,
    agent: int,
) -> tuple[Fraction, frozenset[int]]:
    """Exact best response of ``agent`` (exhaustive over all strategies).

    Guarded to ``n <= 16``: the search space is ``2^(n-1)`` strategies,
    all evaluated against one shared speculative evaluator.
    """
    if state.n > _MAX_EXACT_N:
        raise ValueError(
            f"exact best response supported only for n <= {_MAX_EXACT_N}"
        )
    spec = SpeculativeEvaluator(state)
    kept = _kept_neighbors(assignment, agent)
    others = [v for v in range(state.n) if v != agent]
    best_cost: Fraction | None = None
    best_strategy: frozenset[int] = frozenset()
    for size in range(len(others) + 1):
        for combo in itertools.combinations(others, size):
            strategy = frozenset(combo)
            cost = _strategy_cost_speculative(spec, kept, agent, strategy)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_strategy = strategy
    assert best_cost is not None
    return best_cost, best_strategy


def is_nash_equilibrium(state: GameState, assignment: EdgeAssignment) -> bool:
    """Exact unilateral Pure Nash check for ``(G, f)`` (small ``n`` only)."""
    assignment.validate(state.graph)
    for agent in range(state.n):
        current = strategy_cost(
            state, assignment, agent, assignment.strategy(agent)
        )
        optimal, _ = best_response(state, assignment, agent)
        if optimal < current:
            return False
    return True


def is_unilateral_remove_equilibrium(
    state: GameState, assignment: EdgeAssignment
) -> bool:
    """No owner gains by dropping one of *her own* edges (Prop. 2.2 uses
    the quantification over all assignments; this checks a fixed one).

    Removal losses come from :func:`repro.equilibria.remove.removal_loss`
    — the traffic-aware definition shared with the bilateral RE checker,
    so a weighted state's zero-demand bridge drops are found here too.
    """
    from repro.equilibria.remove import removal_loss

    assignment.validate(state.graph)
    for (u, v), owner in assignment.owner.items():
        other = v if owner == u else u
        if removal_loss(state, owner, other) < state.alpha:
            return False
    return True
