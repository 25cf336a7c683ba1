"""Bilateral Swap Equilibrium (BSwE): stability against cooperative swaps.

A swap takes ``uv in E`` and ``uw not in E``: agent ``u`` replaces her edge
to ``v`` by an edge to ``w``; ``w`` consents and starts paying.  The move is
improving iff ``u``'s distance cost strictly drops (her buying cost is
unchanged) and ``w``'s distance gain strictly exceeds ``alpha``.

:func:`improving_swaps` is the one scan behind the BSwE checker and the
BSwE / BGE move generator, with two exact strategies:

* **trees of the paper's game** — removing ``uv`` splits the node set; all
  post-swap distances are closed-form in the original APSP matrix and the
  split masks, giving an ``O(n^2)`` vectorised evaluation per edge
  (``O(n^3)`` total, no BFS);
* **general graphs** — each edge's post-removal matrix comes from the
  cached :class:`~repro.graphs.distances.DistanceMatrix` as a fresh array
  (:meth:`~repro.graphs.distances.DistanceMatrix.matrix_after_remove`:
  the bridge split, or the changed block repaired by a min-plus product
  of cached entries), then the one-edge-add identity evaluates every
  candidate ``w`` under the state's valuation — no search, no engine
  mutation, no bridge sweep and no totals shift anywhere in the scan.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro._alpha import strict_gt_threshold
from repro.core.moves import Swap
from repro.core.state import GameState
from repro.graphs.distances import adjacency_bool
from repro.graphs.trees import tree_split_masks

__all__ = [
    "find_improving_swap",
    "improving_swaps",
    "is_bilateral_swap_equilibrium",
    "swap_gains",
    "viable_swap_partners",
]


def viable_swap_partners(
    removed: np.ndarray,
    totals: np.ndarray,
    adjacency: np.ndarray,
    threshold: int,
    actor: int,
    old: int,
    valuation,
) -> np.ndarray:
    """Partners ``w`` for which swap ``(actor, old -> w)`` is improving.

    ``removed`` is the exact APSP matrix of ``G - {actor, old}`` and
    ``totals`` the base row values under ``valuation`` (the state's
    :class:`~repro.core.costmodel.Valuation`); gains come from the
    one-edge-add identity, valued row by row — the candidate rows
    themselves stay raw distances.  Ascending node order.
    """
    # actor's new distances with partner w:  min(rm[actor], 1 + rm[w])
    actor_rows = np.minimum(removed[actor][None, :], 1 + removed)
    # partner w's new distances:             min(rm[w], 1 + rm[actor])
    partner_rows = np.minimum(removed, (1 + removed[actor])[None, :])
    gain_actor = int(totals[actor]) - valuation.rows_value(actor_rows, actor)
    gain_w = totals - valuation.rows_value(partner_rows)
    viable = (gain_actor >= 1) & (gain_w >= threshold)
    viable[actor] = False
    viable[old] = False
    viable &= ~adjacency[actor]
    return np.flatnonzero(viable)


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


def _tree_swaps(state: GameState) -> Iterator[Swap]:
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
            for new in np.flatnonzero(viable):
                yield Swap(actor=actor, old=old, new=int(new))


def _general_swaps(state: GameState) -> Iterator[Swap]:
    dm = state.dist
    totals = dm.totals()
    threshold = strict_gt_threshold(state.alpha)
    adjacency = adjacency_bool(state.graph)
    for a, b in list(state.graph.edges):
        removed = dm.matrix_after_remove(a, b)
        for actor, old in ((a, b), (b, a)):
            for new in viable_swap_partners(
                removed, totals, adjacency, threshold, actor, old,
                state.valuation,
            ):
                yield Swap(actor=actor, old=old, new=int(new))


def improving_swaps(state: GameState) -> Iterator[Swap]:
    """Every mutually improving swap (exact), edge by edge in graph order,
    both directions of an edge, partners ascending.

    Nothing in the scan mutates the state, so the generator may be
    abandoned at any point.  Trees of the paper's game take the
    closed-form evaluation, which vectorises over *uniform linear* side
    sums; every other state takes the general engine-backed path (on
    trees every edge is a bridge, so it needs no search there either).
    """
    if state.valuation.uniform_linear and state.is_tree():
        return _tree_swaps(state)
    return _general_swaps(state)


def find_improving_swap(state: GameState) -> Swap | None:
    """First mutually improving swap of :func:`improving_swaps`, or
    ``None`` (exact)."""
    return next(improving_swaps(state), None)


def is_bilateral_swap_equilibrium(state: GameState) -> bool:
    """Exact BSwE check."""
    return find_improving_swap(state) is None
