"""(Bilateral) Add Equilibria: stability against creating one new edge.

Adding edge ``uv`` changes ``u``'s distances by the exact one-edge identity
``d'(u, w) = min(d(u, w), 1 + d(v, w))``, so the distance gain of each
endpoint is ``u``'s row value minus the value of that hypothetical row
(:class:`~repro.core.costmodel.Valuation`; a plain row-sum difference in
the paper's game).  The whole check is a vectorised ``O(n^3)`` integer
computation — exact at any size we run.

* **BAE** (bilateral): edge ``uv`` is an improving move iff *both* endpoints
  gain strictly more than ``alpha``.
* **unilateral AE** (Section 2 reference): agent ``u`` alone pays, so a
  single gain above ``alpha`` already breaks stability.
"""

from __future__ import annotations

import numpy as np

from repro._alpha import strict_gt_threshold
from repro.core.moves import AddEdge
from repro.core.state import GameState

__all__ = [
    "add_gain",
    "find_improving_bilateral_add",
    "find_improving_unilateral_add",
    "is_bilateral_add_equilibrium",
    "is_unilateral_add_equilibrium",
    "pairwise_add_gains",
]


def add_gain(state: GameState, u: int, v: int) -> int:
    """Distance-cost (row value) gain of agent ``u`` when edge ``uv`` is
    created."""
    dist = state.dist_matrix
    value = state.valuation.row_value
    return value(u, dist[u]) - value(u, np.minimum(dist[u], 1 + dist[v]))


def pairwise_add_gains(state: GameState) -> np.ndarray:
    """Matrix ``G`` with ``G[u, v]`` = distance gain of ``u`` from edge ``uv``.

    ``G`` is not symmetric.  Entries on the diagonal and for existing edges
    are meaningless and set to zero.  Row ``u`` values every hypothetical
    row ``min(d(u, .), 1 + d(v, .))`` at once under the state's valuation
    and subtracts it from ``u``'s current value — non-negative in every
    regime, since the new row is entry-wise no larger and ``f`` is
    monotone.
    """
    dist = state.dist_matrix
    n = state.n
    valuation = state.valuation
    base = valuation.rows_value(dist)
    step = dist + 1  # row v: distances through partner v
    gains = np.empty((n, n), dtype=np.int64)
    for u in range(n):
        gains[u] = base[u] - valuation.rows_value(np.minimum(dist[u], step), u)
    gains[np.arange(n), np.arange(n)] = 0
    for u, v in state.graph.edges:
        gains[u, v] = 0
        gains[v, u] = 0
    return gains


def _candidate_pairs(state: GameState, threshold: int):
    """Non-edges whose *both-way* gains reach ``threshold``, ascending."""
    gains = pairwise_add_gains(state)
    both = (gains >= threshold) & (gains.T >= threshold)
    candidates = np.argwhere(np.triu(both, k=1))
    return gains, [tuple(map(int, pair)) for pair in candidates]


def find_improving_bilateral_add(state: GameState) -> AddEdge | None:
    """First mutually improving edge addition, or ``None`` (exact).

    The vectorised gain matrix (an engine-row query) prunes to the exact
    candidate set; the returned certificate is confirmed through the
    speculative kernel so every concept shares one evaluation path.
    """
    from repro.core.speculative import SpeculativeEvaluator

    threshold = strict_gt_threshold(state.alpha)
    _, candidates = _candidate_pairs(state, threshold)
    if not candidates:
        return None
    spec = SpeculativeEvaluator(state)
    for u, v in candidates:
        move = AddEdge(u, v)
        if spec.move_improves(move):
            return move
    return None


def is_bilateral_add_equilibrium(state: GameState) -> bool:
    """Exact BAE check."""
    return find_improving_bilateral_add(state) is None


def find_improving_unilateral_add(state: GameState) -> AddEdge | None:
    """First unilaterally improving addition (only the buyer pays).

    A buyer ``u`` improves iff her distance gain strictly exceeds
    ``alpha`` — exactly the kernel's single-agent verdict (her degree
    grows by one, the partner is not asked), used here to confirm the
    vectorised candidates.
    """
    from repro.core.speculative import SpeculativeEvaluator

    threshold = strict_gt_threshold(state.alpha)
    gains = pairwise_add_gains(state)
    either = (gains >= threshold) | (gains.T >= threshold)
    candidates = np.argwhere(np.triu(either, k=1))
    if not candidates.size:
        return None
    spec = SpeculativeEvaluator(state)
    for u, v in candidates:
        u, v = int(u), int(v)
        move = AddEdge(u, v)
        if spec.move_improves(move, agents=(u,)) or spec.move_improves(
            move, agents=(v,)
        ):
            return move
    return None


def is_unilateral_add_equilibrium(state: GameState) -> bool:
    """Exact unilateral Add Equilibrium check (assignment-independent)."""
    return find_improving_unilateral_add(state) is None
