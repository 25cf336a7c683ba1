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
  of cached entries), then :class:`SwapPricer` prices every candidate
  ``w`` by the one-edge-add identity under the state's valuation — no
  search, no engine mutation and no bridge sweep anywhere in the scan.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro._alpha import strict_gt_threshold
from repro.core import batch
from repro.core.batch import Swaps
from repro.core.moves import Swap
from repro.core.state import GameState
from repro.graphs.distances import adjacency_bool
from repro.graphs.trees import tree_split_masks

__all__ = [
    "SwapPricer",
    "find_improving_swap",
    "is_bilateral_swap_equilibrium",
    "swap_gains",
    "swap_runs",
]


class SwapPricer:
    """Prices every swap partner of one dropped edge, both directions,
    on the edge's post-removal matrix."""

    def __init__(self, state: GameState):
        self.state = state
        self.totals = state.totals()
        self.threshold = strict_gt_threshold(state.alpha)
        self.adjacency = adjacency_bool(state.graph)

    def runs(self, a: int, b: int, removed: np.ndarray) -> list[Swaps]:
        """The improving swaps dropping ``ab``, given ``G - ab``'s APSP."""
        gains = batch.batch_swap_deltas(
            self.state.valuation, removed, self.totals, (a, b)
        )
        runs = []
        for (actor, old), (gain_actor, gain_w) in zip(((a, b), (b, a)), gains):
            viable = (gain_actor >= 1) & (gain_w >= self.threshold)
            viable[actor] = False
            viable &= ~self.adjacency[actor]  # old is still adjacent
            runs.extend(_swaps(actor, old, gain_actor, gain_w, viable))
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


def swap_runs(state: GameState) -> Iterator[Swaps]:
    """Every mutually improving swap (exact), priced, edge by edge in
    graph order, both directions of an edge, partners ascending.

    Nothing in the scan mutates the state, so the generator may be
    abandoned at any point.  Trees of the paper's game take the
    closed-form evaluation; every other state takes the general
    engine-backed path (on trees every edge is a bridge, so it needs no
    search there either).
    """
    if state.valuation.uniform_linear and state.is_tree():
        # the closed form vectorises over uniform linear side sums
        yield from _tree_runs(state)
        return
    dm = state.dist
    pricer = SwapPricer(state)
    for a, b in list(state.graph.edges):
        yield from pricer.runs(a, b, dm.matrix_after_remove(a, b))


def find_improving_swap(state: GameState) -> Swap | None:
    """First mutually improving swap of :func:`swap_runs`, or ``None``
    (exact)."""
    run = next(swap_runs(state), None)
    return None if run is None else run.move(0)


def is_bilateral_swap_equilibrium(state: GameState) -> bool:
    """Exact BSwE check."""
    return find_improving_swap(state) is None
