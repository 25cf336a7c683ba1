"""Remove Equilibrium (RE): no agent gains by dropping one incident edge.

Dropping edge ``uv`` saves ``alpha`` and raises ``u``'s distance cost by

    loss(u, uv) = dist_{G - uv}(u) - dist_G(u),

so ``u`` improves iff ``loss < alpha`` (exact integer vs Fraction).  By
Proposition A.2 the RE coincides with the Pure Nash Equilibrium of the
BNCG, so this checker doubles as the bilateral NE test.

:func:`removal_runs` is the one removal scan behind the RE checker and
the removal move pools, for every cost regime: both endpoints'
post-removal rows come from the engine's mutation-free removal query
(one BFS per endpoint with the edge masked out) and
:class:`RemovalPricer` keeps each improving removal's loss, a row-value
diff under the state's :class:`~repro.core.costmodel.Valuation`.  Every
edge is priced, bridges included: dropping a bridge that cuts the actor
off from someone it values puts the sentinel (``M`` or the model's
``F``) into its loss, so only a free disconnection (zero demand, or a
max already at the sentinel) can price as an improving removal.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.core import batch
from repro.core.batch import Removal
from repro.core.moves import RemoveEdge
from repro.core.state import GameState

__all__ = [
    "RemovalPricer",
    "find_improving_removal",
    "is_remove_equilibrium",
    "removal_loss",
    "removal_runs",
]


def removal_loss(state: GameState, actor: int, other: int) -> int:
    """Distance-cost (row value) increase for ``actor`` when edge
    ``actor-other`` goes."""
    value = state.valuation.row_value
    after = state.dist.rows_after_remove_from(actor, other, (actor,))[0]
    return value(actor, after) - value(actor, state.dist.row(actor))


class RemovalPricer:
    """Prices an edge's removals from its endpoints' rows in ``G - uv``;
    only the first improving direction counts (an edge goes once)."""

    def __init__(self, state: GameState):
        self.valuation = state.valuation
        self.base = state.totals().tolist()
        # an integer loss is below alpha iff it is below ceil(alpha)
        self.bound = math.ceil(state.alpha)

    def price(self, u: int, v: int, rows) -> Removal | None:
        """The improving removal of ``uv`` given its endpoints' ``rows``."""
        loss_u, loss_v = batch.batch_remove_losses(
            self.valuation, rows, (u, v), self.base
        )
        if loss_u < self.bound:
            return Removal(u, v, loss_u)
        if loss_v < self.bound:
            return Removal(v, u, loss_v)
        return None


def removal_runs(state: GameState) -> Iterator[Removal]:
    """All improving removals, priced, edge by edge in graph order.
    Nothing in the scan mutates the engine."""
    if state.valuation.full_support and state.is_tree():
        # every edge is a bridge of a connected graph: dropping one
        # disconnects the actor from someone it values, which adds a
        # sentinel (``M`` or the model's ``F``) to a sum or lifts a finite
        # max to one — more than any saving — so no removal improves
        return
    dm = state.dist
    pricer = RemovalPricer(state)
    # a snapshot of the edges: consumers may speculate on the graph
    # between yields (the comprehension skips EdgeView's O(n) len())
    for u, v in [edge for edge in state.graph.edges]:
        run = pricer.price(u, v, dm.rows_after_remove_from(u, v, (u, v)))
        if run is not None:
            yield run


def find_improving_removal(state: GameState) -> RemoveEdge | None:
    """First improving single-edge removal of :func:`removal_runs`, or
    ``None`` (exact)."""
    run = next(removal_runs(state), None)
    return None if run is None else run.move(0)


def is_remove_equilibrium(state: GameState) -> bool:
    """Exact RE check (equivalently: bilateral Pure Nash, Prop. A.2)."""
    return find_improving_removal(state) is None
