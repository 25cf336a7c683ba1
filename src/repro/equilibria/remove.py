"""Remove Equilibrium (RE): no agent gains by dropping one incident edge.

Dropping edge ``uv`` saves ``alpha`` and raises ``u``'s distance cost by

    loss(u, uv) = dist_{G - uv}(u) - dist_G(u),

so ``u`` improves iff ``loss < alpha`` (exact integer vs Fraction).  By
Proposition A.2 the RE coincides with the Pure Nash Equilibrium of the
BNCG, so this checker doubles as the bilateral NE test.

:func:`improving_removals` is the one removal scan behind the RE checker
and the removal move generator, for every cost regime: both endpoints'
post-removal rows come from the engine's mutation-free removal query
(the bridge split, or one BFS per endpoint with the edge masked out) and
their losses are row-value diffs under the state's
:class:`~repro.core.costmodel.Valuation`.

Bridges are skipped exactly when every off-diagonal demand is positive
(``Valuation.full_support``, always so in the paper's game) and the
aggregate is a sum or the graph is connected: dropping a bridge then
disconnects the actor from someone it values, which adds at least one
sentinel (``M`` or the model's ``F``) to a sum, or lifts a finite max to
one — more than any saving — so trees are RE for every ``alpha`` there.
With *zero* demand toward a bridge's far side the disconnection is free,
and on a disconnected graph a max aggregate already sits at the sentinel
and can be entirely indifferent to a removal, so such states charge
every edge.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.moves import RemoveEdge
from repro.core.state import GameState

__all__ = [
    "find_improving_removal",
    "improving_removals",
    "is_remove_equilibrium",
    "removal_loss",
]


def removal_loss(state: GameState, actor: int, other: int) -> int:
    """Distance-cost (row value) increase for ``actor`` when edge
    ``actor-other`` goes."""
    value = state.valuation.row_value
    after = state.dist.row_after_remove(actor, other)
    return value(actor, after) - value(actor, state.dist.row(actor))


def improving_removals(state: GameState) -> Iterator[RemoveEdge]:
    """All improving removals, edge by edge in graph order; of an edge's
    two directions only the first improving one is yielded (an edge can
    be removed once).  Nothing in the scan mutates the engine."""
    valuation = state.valuation
    if valuation.full_support and state.is_tree():
        return  # every edge is a bridge of a connected graph
    dm = state.dist
    # connected iff row 0 holds no sentinel (real distances are < n)
    skip_bridges = valuation.full_support and (
        valuation.aggregate == "sum" or int(dm.matrix[0].max()) < state.n
    )
    base = dm.totals().tolist()
    # a snapshot of the edges: consumers may speculate on the graph
    # between yields (the comprehension skips EdgeView's O(n) len())
    for u, v in [edge for edge in state.graph.edges]:
        if skip_bridges and dm.is_bridge(u, v):
            continue
        rows = dm.rows_after_remove_from(u, v, (u, v))
        after_u, after_v = valuation.rows_value(rows, [u, v]).tolist()
        if after_u - base[u] < state.alpha:
            yield RemoveEdge(actor=u, other=v)
        elif after_v - base[v] < state.alpha:
            yield RemoveEdge(actor=v, other=u)


def find_improving_removal(state: GameState) -> RemoveEdge | None:
    """First improving single-edge removal of :func:`improving_removals`,
    or ``None`` (exact)."""
    return next(improving_removals(state), None)


def is_remove_equilibrium(state: GameState) -> bool:
    """Exact RE check (equivalently: bilateral Pure Nash, Prop. A.2)."""
    return find_improving_removal(state) is None
