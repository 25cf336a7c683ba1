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

The gain matrix ``G`` of :func:`pairwise_add_gains` also bounds every
swap's gains (:mod:`repro.equilibria.swap`), so a scan or a checker that
prices both builds it once and hands it to :func:`addition_runs` (or the
finders below) and the swap scan.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro._alpha import strict_gt_threshold
from repro.core import batch
from repro.core.batch import Additions
from repro.core.moves import AddEdge
from repro.core.state import GameState

__all__ = [
    "add_gain",
    "addition_runs",
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
    (:func:`repro.core.batch.batch_add_gains`) and subtracts it from
    ``u``'s current value — non-negative in every regime, since the new
    row is entry-wise no larger and ``f`` is monotone.
    """
    gains = batch.batch_add_gains(state.valuation, state.dist_matrix)
    np.fill_diagonal(gains, 0)
    for u, v in state.graph.edges:
        gains[u, v] = gains[v, u] = 0
    return gains


def addition_runs(
    state: GameState, gains: np.ndarray | None = None
) -> Iterator[Additions]:
    """The mutually improving additions, ascending, priced by the gain
    matrix ``gains`` of :func:`pairwise_add_gains` (built here when not
    given): at most one run.  Existing edges carry zero gain, below any
    threshold."""
    threshold = strict_gt_threshold(state.alpha)
    if gains is None:
        gains = pairwise_add_gains(state)
    mutual = (gains >= threshold) & (gains.T >= threshold)
    us, vs = np.nonzero(np.triu(mutual, k=1))
    if us.size:
        yield Additions(us, vs, gains[us, vs], gains[vs, us])


def find_improving_bilateral_add(
    state: GameState, gains: np.ndarray | None = None
) -> AddEdge | None:
    """First mutually improving edge addition, or ``None`` (exact).

    The gain matrix (``gains``, built here when not given) prices every
    pair exactly, so its first mutual pair is the certificate.
    """
    for run in addition_runs(state, gains):
        return next(iter(run))
    return None


def is_bilateral_add_equilibrium(state: GameState) -> bool:
    """Exact BAE check."""
    return find_improving_bilateral_add(state) is None


def find_improving_unilateral_add(
    state: GameState, gains: np.ndarray | None = None
) -> AddEdge | None:
    """First unilaterally improving addition (only the buyer pays).

    A buyer ``u`` improves iff her distance gain strictly exceeds
    ``alpha``, so the first pair of the gain matrix ``gains`` (built
    here when not given) with either gain past the threshold is the
    certificate.
    """
    threshold = strict_gt_threshold(state.alpha)
    if gains is None:
        gains = pairwise_add_gains(state)
    either = (gains >= threshold) | (gains.T >= threshold)
    candidates = np.argwhere(np.triu(either, k=1))
    if not candidates.size:
        return None
    u, v = candidates[0]
    return AddEdge(int(u), int(v))


def is_unilateral_add_equilibrium(state: GameState) -> bool:
    """Exact unilateral Add Equilibrium check (assignment-independent)."""
    return find_improving_unilateral_add(state) is None
