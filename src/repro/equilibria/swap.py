"""Bilateral Swap Equilibrium (BSwE): stability against cooperative swaps.

A swap takes ``uv in E`` and ``uw not in E``: agent ``u`` replaces her edge
to ``v`` by an edge to ``w``; ``w`` consents and starts paying.  The move is
improving iff ``u``'s distance cost strictly drops (her buying cost is
unchanged) and ``w``'s distance gain strictly exceeds ``alpha``.

:func:`swap_runs` is the one scan behind the BSwE checker and the BSwE /
BGE move pools.  It keeps every improving swap's gains, one priced
:class:`~repro.core.batch.Swaps` run per dropped edge and direction, with
two exact strategies:

* **trees of the paper's game** — removing ``uv`` splits the node set; all
  post-swap distances are closed-form in the original APSP matrix and the
  split masks, giving an ``O(n^2)`` vectorised evaluation per edge
  (``O(n^3)`` total, no BFS);
* **general graphs** — each edge's post-removal matrix comes from the
  cached :class:`~repro.graphs.distances.DistanceMatrix` as a fresh array
  (:meth:`~repro.graphs.distances.DistanceMatrix.matrix_after_remove`:
  the bridge split, or the changed block repaired by a min-plus product
  of cached entries), then :class:`SwapPricer` prices the admitted
  candidates ``w`` by the one-edge-add identity under the state's
  valuation — no search, no engine mutation and no bridge sweep anywhere
  in the scan.

**The add-gain bound.**  Let ``G[x, y]`` be ``x``'s gain from adding
``xy`` to the current graph (:func:`~repro.equilibria.add.pairwise_add_gains`).
A swap of actor ``a`` from ``b`` to ``w`` gains at most ``G[a, w]`` for
``a`` and at most ``G[w, a]`` for ``w``:

* in ``G - ab`` every distance is at least its value in ``G``, the
  sentinel ``M`` of an unreachable pair included;
* every valuation is monotone in distance: ``f`` is non-decreasing, the
  value sentinel ``F`` lies above every table value, every demand ``W``
  is non-negative, and the aggregate is a sum or a max;
* so ``a``'s post-swap row ``min(rm[a], 1 + rm[w])`` on the post-removal
  matrix ``rm`` is entry-wise at least its row ``min(d[a], 1 + d[w])``
  after adding ``aw`` to ``G``, and is worth at least as much; against
  the same base value that gives ``gain_actor <= G[a, w]``, and the same
  argument on ``w``'s row gives ``gain_w <= G[w, a]``;
* every quantity is an exact integer, so the bound needs no tolerance.

A swap improves only with ``gain_actor >= 1`` and ``gain_w >=
strict_gt_threshold(alpha)``, so the pricer admits as partners of ``a``
only the free nodes ``w`` (not ``a``, not adjacent to ``a``) with
``G[a, w] >= 1`` and ``G[w, a]`` at or above that threshold, and skips
an edge whose two ends admit none.  One ``G`` serves the whole scan: the
BGE pool shares it with its addition run, and the BGE checker and
:func:`~repro.equilibria.diagnose.diagnose` hand the ``G`` of their
addition checks to :func:`find_improving_swap`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro._alpha import strict_gt_threshold
from repro.core import batch
from repro.core.batch import Swaps
from repro.core.moves import Swap
from repro.core.state import GameState
from repro.equilibria.add import pairwise_add_gains
from repro.graphs.trees import tree_split_masks

__all__ = [
    "SwapPricer",
    "find_improving_swap",
    "is_bilateral_swap_equilibrium",
    "swap_gains",
    "swap_runs",
]


class SwapPricer:
    """Prices the admitted swap partners of one dropped edge, both
    directions, on the edge's post-removal matrix.

    ``add_gains`` is the state's add-gain matrix ``G`` of
    :func:`~repro.equilibria.add.pairwise_add_gains`, built here when not
    given; each actor's candidates are the partners the add-gain bound
    admits (module docstring).  ``G`` is zero on the diagonal and on
    existing edges, below both thresholds, so only free partners pass."""

    def __init__(self, state: GameState, add_gains: np.ndarray | None = None):
        self.state = state
        self.totals = state.totals()
        self.threshold = strict_gt_threshold(state.alpha)
        if add_gains is None:
            add_gains = pairwise_add_gains(state)
        self.add_gains = add_gains
        admitted = (add_gains >= 1) & (add_gains.T >= self.threshold)
        self.candidates = [np.flatnonzero(row) for row in admitted]

    def wanted(self, a: int, b: int) -> bool:
        """Whether a swap dropping ``ab`` can improve at all."""
        return bool(self.candidates[a].size or self.candidates[b].size)

    def runs(self, a: int, b: int, removed: np.ndarray) -> list[Swaps]:
        """The improving swaps dropping ``ab``, given ``G - ab``'s APSP."""
        if not self.wanted(a, b):
            return []
        priced = batch.batch_swap_deltas(
            self.state.valuation, removed, self.totals, (a, b),
            (self.candidates[a], self.candidates[b]),
        )
        runs = []
        for (actor, old), (ws, gain_actor, gain_w) in zip(
            ((a, b), (b, a)), priced
        ):
            viable = gain_w >= self.threshold
            if viable.any():
                runs.append(Swaps(
                    actor, old, ws[viable], gain_actor[viable], gain_w[viable]
                ))
        return runs


def _swaps(actor, old, gain_actor, gain_w, viable) -> list[Swaps]:
    """The run of the ``viable`` partners, if any."""
    partners = np.flatnonzero(viable)
    if not partners.size:
        return []
    return [Swaps(actor, old, partners, gain_actor[partners], gain_w[partners])]


def swap_gains(state: GameState, actor: int, old: int, new: int) -> tuple[int, int]:
    """Exact distance gains ``(gain_actor, gain_new)`` of one specific swap.

    Evaluated on the speculative kernel (apply the swap to the cached
    engine, read both agents' total deltas, undo).  Tests re-derive these
    gains with fresh BFS runs on a mutated copy.
    """
    from repro.core.speculative import SpeculativeEvaluator

    spec = SpeculativeEvaluator(state)
    with spec.speculate(Swap(actor=actor, old=old, new=new)):
        return (-spec.dist_delta(actor), -spec.dist_delta(new))


def _tree_runs(state: GameState) -> Iterator[Swaps]:
    dist = state.dist_matrix
    totals = dist.sum(axis=1)
    threshold = strict_gt_threshold(state.alpha)
    n = state.n
    for a, b in list(state.graph.edges):
        mask_a, mask_b = tree_split_masks(state.graph, a, b, n)
        # column sums of the APSP matrix restricted to each side, per node
        sums_b = dist @ mask_b.astype(np.int64)
        sums_a = totals - sums_b
        size_a = int(mask_a.sum())
        size_b = n - size_a
        for actor, old, far_mask, far_sums, far_size, near_sums, near_size in (
            (a, b, mask_b, sums_b, size_b, sums_a, size_a),
            (b, a, mask_a, sums_a, size_a, sums_b, size_b),
        ):
            # actor keeps its side, reattaches to w on the far side:
            #   gain_actor(w) = sum_{x far} d(actor,x) - (|far| + sum_{x far} d(w,x))
            #   gain_w(w)     = sum_{x near} d(w,x) - (|near| + sum_{x near} d(actor,x))
            gain_actor = int(far_sums[actor]) - far_size - far_sums
            gain_w = near_sums - near_size - int(near_sums[actor])
            viable = (gain_actor >= 1) & (gain_w >= threshold) & far_mask
            viable[old] = False
            yield from _swaps(actor, old, gain_actor, gain_w, viable)


def swap_runs(
    state: GameState, add_gains: np.ndarray | None = None
) -> Iterator[Swaps]:
    """Every mutually improving swap (exact), priced, edge by edge in
    graph order, both directions of an edge, partners ascending.

    Nothing in the scan mutates the state, so the generator may be
    abandoned at any point.  Trees of the paper's game take the
    closed-form evaluation; every other state takes the general
    engine-backed path (on trees every edge is a bridge, so it needs no
    search there either), priced under the add-gain bound of
    ``add_gains`` (:class:`SwapPricer` builds it when not given).
    """
    if state.valuation.uniform_linear and state.is_tree():
        # the closed form vectorises over uniform linear side sums
        yield from _tree_runs(state)
        return
    dm = state.dist
    pricer = SwapPricer(state, add_gains)
    for a, b in list(state.graph.edges):
        if pricer.wanted(a, b):
            yield from pricer.runs(a, b, dm.matrix_after_remove(a, b))


def find_improving_swap(
    state: GameState, add_gains: np.ndarray | None = None
) -> Swap | None:
    """First mutually improving swap of :func:`swap_runs` (under the
    add-gain matrix ``add_gains``, built when needed and not given), or
    ``None`` (exact)."""
    run = next(swap_runs(state, add_gains), None)
    return None if run is None else run.move(0)


def is_bilateral_swap_equilibrium(state: GameState) -> bool:
    """Exact BSwE check."""
    return find_improving_swap(state) is None
