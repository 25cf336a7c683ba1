"""Bilateral Neighborhood Equilibrium (BNE) — the bilateral analogue of NE.

A *neighborhood move* around a center ``u`` removes any subset ``R`` of
``u``'s edges and adds edges to any set ``A`` of new partners; it is
improving iff ``u`` **and every member of** ``A`` strictly benefit (removed
partners are not asked).

Checking BNE is exponential in ``deg(u)`` and in the number of plausible
partners.  The exact checker keeps the search finite with two *sound*
reductions and an explicit budget:

* **willing-partner pruning** (the paper's own argument, cf. Prop. A.5):
  every distance improvement for a new partner ``a`` routes through ``u``,
  so ``a``'s total gain is at most
  ``sum_x max(0, d(a,x) - 2) + max(0, d(a,u) - 1)``; partners whose bound
  does not exceed ``alpha`` can never strictly benefit and are discarded;
* **size pruning**: the center's distance gain is at most
  ``dist(u) - (n-1)``, so improving moves satisfy
  ``alpha * (|A| - |R|) < dist(u) - (n - 1)``.

Candidate evaluation runs on the
:class:`~repro.core.speculative.SpeculativeEvaluator` kernel: each removal
subset is applied to the cached distance engine **once** and amortised
(via nested LIFO undo scopes) across every addition subset tried on top of
it, and each candidate's verdict is read from the live degrees and row
values against the evaluator's base snapshot — no per-candidate graph
copies and no per-candidate BFS.  The search performs zero full APSP
builds beyond the one that materialised the state's matrix.

If the remaining space exceeds ``max_evaluations`` the checker raises
:class:`SearchBudgetExceeded` rather than silently answering — callers fall
back to the paper's sufficient conditions plus :func:`probe_neighborhood_moves`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro._alpha import strict_gt_threshold
from repro._rng import RngLike, coerce_rng
from repro.core.moves import NeighborhoodMove
from repro.core.speculative import SpeculativeEvaluator
from repro.core.state import GameState

__all__ = [
    "SearchBudgetExceeded",
    "find_improving_neighborhood_move",
    "is_neighborhood_equilibrium",
    "partner_gain_upper_bound",
    "probe_neighborhood_moves",
    "willing_partners",
]


class SearchBudgetExceeded(RuntimeError):
    """The exact exhaustive search would exceed its evaluation budget."""


def partner_gain_upper_bound(state: GameState, partner: int, center: int) -> int:
    """Sound upper bound on ``partner``'s distance gain in any move around
    ``center`` that links the two.

    Every strictly shorter path for ``partner`` passes through ``center``
    (all changed edges are incident to ``center``), hence ends at distance at
    least 2 — except the distance to ``center`` itself, which can drop to 1.
    The argument is purely metric, so it pushes through any valuation:
    each destination's value can drop at most to ``f(2)`` (``f(1)`` for
    the center, ``f`` monotone), weighted by ``partner``'s (non-negative)
    demand toward it, for sum aggregates; a max aggregate can never drop
    below the agent's floor.
    """
    valuation = state.valuation
    row = state.dist.row(partner)
    if valuation.aggregate == "max":
        # coarse but sound: the max value can never drop below the
        # agent's floor (max-weight * f(1))
        return valuation.row_value(partner, row) - int(
            valuation.floors(state.n)[partner]
        )
    # every destination's value can drop at most to f(2), the center's
    # to f(1): sum the slack above those floors, weighted by demand
    f1, f2 = (
        (1, 2) if valuation.table is None
        else (int(valuation.table[min(d, state.n - 1)]) for d in (1, 2))
    )
    values = valuation.values(row)
    slack = np.maximum(values - f2, 0)
    f_center = int(values[center])
    w_center = 1
    if valuation.weights is not None:
        weights = valuation.weights[partner]
        slack = weights * slack
        w_center = int(weights[center])
    bound = int(slack.sum())
    bound -= w_center * max(0, f_center - f2)
    bound += w_center * max(0, f_center - f1)
    return bound


def willing_partners(state: GameState, center: int) -> list[int]:
    """Non-neighbors of ``center`` that could conceivably gain more than
    ``alpha`` from joining a neighborhood move (sound over-approximation)."""
    threshold = strict_gt_threshold(state.alpha)
    neighbors = set(state.graph.neighbors(center))
    result = []
    for node in range(state.n):
        if node == center or node in neighbors:
            continue
        if partner_gain_upper_bound(state, node, center) >= threshold:
            result.append(node)
    return result


def _center_space_size(degree: int, willing: int, max_add: int | None) -> int:
    add_cap = willing if max_add is None else min(willing, max_add)
    subsets = sum(math.comb(willing, size) for size in range(add_cap + 1))
    return (2**degree) * subsets


def find_improving_neighborhood_move(
    state: GameState,
    centers: Iterable[int] | None = None,
    max_evaluations: int = 2_000_000,
    max_add: int | None = None,
    max_remove: int | None = None,
) -> NeighborhoodMove | None:
    """Exhaustive search for an improving neighborhood move.

    Exact (within ``max_add`` / ``max_remove`` if given); raises
    :class:`SearchBudgetExceeded` if the pruned space is still larger than
    ``max_evaluations``.  Candidates are evaluated on the speculative
    kernel: each removal subset is applied once and shared across its
    addition subsets, then rolled back through LIFO undo tokens.
    """
    if centers is None:
        centers = range(state.n)
    alpha = state.alpha
    spec = SpeculativeEvaluator(state)
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
        # alpha * (|A| - |R|) < dist(center) - floor(center) is necessary
        # for the center to strictly benefit (the best imaginable distance
        # total is the valuation's floor: n - 1 in the paper's game).
        slack = spec.base_dist(center) - spec.dist_floor(center)
        remove_cap = len(neighbors) if max_remove is None else max_remove
        add_cap = len(willing) if max_add is None else min(max_add, len(willing))
        move = _dfs_center_space(
            spec, center, neighbors, willing, remove_cap, add_cap, slack
        )
        if move is not None:
            return move
    return None


def _dfs_center_space(
    spec: SpeculativeEvaluator,
    center: int,
    neighbors: Sequence[int],
    willing: Sequence[int],
    remove_cap: int,
    add_cap: int,
    slack,
) -> NeighborhoodMove | None:
    """DFS over the (removed, added) subsets around one center.

    Removal subsets walk the engine with push/pop tokens (siblings share
    their common prefix: one apply + one undo per removal node); each
    removal prefix then evaluates its whole addition powerset through a
    rows-only :class:`~repro.core.speculative.Fold` over the center
    and the willing partners — no matrix mutation per addition candidate.

    The size-pruning invariant matches the combination enumeration it
    replaces: a candidate is evaluated iff ``alpha * (|A| - |R|) <
    slack`` (necessary for the center to benefit), and since folding one
    more partner only raises ``|A|``, a failing count prunes the whole
    sibling suffix.
    """
    threshold = strict_gt_threshold(spec.alpha)
    tracked = (center, *willing)
    removed: list[int] = []
    added: list[int] = []

    def fold_improves(fold) -> bool:
        # the center pays |A| - |R| extra edges; each added partner pays 1
        gain_center = spec.base_dist(center) - fold.dist_total(center)
        if not spec.alpha_lt(len(added) - len(removed), gain_center):
            return False
        for partner in added:
            if spec.base_dist(partner) - fold.dist_total(partner) < threshold:
                return False
        return True

    def descend_adds(fold, start: int) -> NeighborhoodMove | None:
        if len(added) >= add_cap:
            return None
        if not spec.alpha_lt(len(added) + 1 - len(removed), slack):
            return None  # a larger A only makes it worse
        for index in range(start, len(willing)):
            partner = willing[index]
            child = fold.extend(center, partner)
            added.append(partner)
            try:
                spec.note_evaluation()
                if fold_improves(child):
                    return NeighborhoodMove(
                        center=center,
                        removed=tuple(removed),
                        added=tuple(added),
                    )
                found = descend_adds(child, index + 1)
                if found is not None:
                    return found
            finally:
                added.pop()
        return None

    def descend_removes(start: int) -> NeighborhoodMove | None:
        if willing:
            found = descend_adds(spec.fold(tracked), 0)
            if found is not None:
                return found
        if len(removed) >= remove_cap:
            return None
        for index in range(start, len(neighbors)):
            partner = neighbors[index]
            spec.push("remove", center, partner)
            removed.append(partner)
            try:
                if spec.alpha_lt(-len(removed), slack):
                    spec.note_evaluation()
                    if spec.improves(center):
                        return NeighborhoodMove(
                            center=center,
                            removed=tuple(removed),
                            added=(),
                        )
                found = descend_removes(index + 1)
                if found is not None:
                    return found
            finally:
                removed.pop()
                spec.pop()
        return None

    return descend_removes(0)


def is_neighborhood_equilibrium(
    state: GameState,
    centers: Iterable[int] | None = None,
    max_evaluations: int = 2_000_000,
) -> bool:
    """Exact BNE check (may raise :class:`SearchBudgetExceeded`)."""
    return (
        find_improving_neighborhood_move(
            state, centers=centers, max_evaluations=max_evaluations
        )
        is None
    )


def probe_neighborhood_moves(
    state: GameState,
    rng: RngLike = None,
    samples: int = 1000,
    max_add: int = 3,
    max_remove: int = 3,
    centers: Sequence[int] | None = None,
) -> NeighborhoodMove | None:
    """Randomized refuter: samples bounded neighborhood moves.

    A returned move is a *certified* violation; ``None`` proves nothing.
    Used on instances whose exact search is out of budget.  ``rng`` may be
    a ``random.Random``, an integer seed, or ``None`` (seed 0), so probe
    verdicts are reproducible end-to-end.  Sampled candidates are
    evaluated on the speculative kernel.
    """
    rng = coerce_rng(rng)
    nodes = list(range(state.n)) if centers is None else list(centers)
    spec = SpeculativeEvaluator(state)
    for _ in range(samples):
        center = rng.choice(nodes)
        neighbors = sorted(state.graph.neighbors(center))
        willing = willing_partners(state, center)
        if not neighbors and not willing:
            continue
        removed_size = rng.randint(0, min(max_remove, len(neighbors)))
        added_size = rng.randint(0, min(max_add, len(willing)))
        if removed_size == 0 and added_size == 0:
            continue
        removed = tuple(rng.sample(neighbors, removed_size))
        added = tuple(rng.sample(willing, added_size))
        move = NeighborhoodMove(center=center, removed=removed, added=added)
        if spec.move_improves(move):
            return move
    return None
