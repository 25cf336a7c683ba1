"""Composite concepts: Pairwise Stability and Bilateral Greedy Equilibrium.

* **PS** = RE ∩ BAE (Jackson–Wolinsky stability, the concept Corbo and
  Parkes analysed);
* **BGE** = PS ∩ BSwE (the bilateral version of Lenzner's Greedy
  Equilibrium).

Both are intersections of exact polynomial checkers, hence exact.  The
component finders are the priced scans behind the move pools (engine
queries, no mutation), so a composite verdict here and a single-concept
verdict or pool elsewhere can never disagree.  The BGE check builds the
add-gain matrix once, for its addition check and its swap scan alike.
"""

from __future__ import annotations

from repro.core.moves import Move
from repro.core.state import GameState
from repro.equilibria.add import (
    find_improving_bilateral_add,
    pairwise_add_gains,
)
from repro.equilibria.remove import find_improving_removal
from repro.equilibria.swap import find_improving_swap

__all__ = [
    "find_pairwise_violation",
    "find_greedy_violation",
    "is_bilateral_greedy_equilibrium",
    "is_pairwise_stable",
]


def find_pairwise_violation(state: GameState) -> Move | None:
    """An improving removal or mutual addition, or ``None`` (exact PS)."""
    removal = find_improving_removal(state)
    if removal is not None:
        return removal
    return find_improving_bilateral_add(state)


def is_pairwise_stable(state: GameState) -> bool:
    """Exact Pairwise Stability check."""
    return find_pairwise_violation(state) is None


def find_greedy_violation(state: GameState) -> Move | None:
    """An improving removal, addition or swap, or ``None`` (exact BGE)."""
    removal = find_improving_removal(state)
    if removal is not None:
        return removal
    gains = pairwise_add_gains(state)
    addition = find_improving_bilateral_add(state, gains)
    if addition is not None:
        return addition
    return find_improving_swap(state, gains)


def is_bilateral_greedy_equilibrium(state: GameState) -> bool:
    """Exact BGE check."""
    return find_greedy_violation(state) is None
