"""Schedulers: which improving move fires when several are available.

A scheduler maps a non-empty iterator of improving moves to the move to
apply.  Determinism: ``first`` is fully deterministic; ``random`` is
deterministic given its ``random.Random``; ``best`` breaks ties by move
order.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Optional

from repro.core.moves import Move
from repro.core.speculative import SpeculativeEvaluator
from repro.core.state import GameState

__all__ = [
    "Scheduler",
    "best_improvement_scheduler",
    "first_improvement_scheduler",
    "random_improvement_scheduler",
]

Scheduler = Callable[[GameState, Iterator[Move], random.Random], Optional[Move]]


def first_improvement_scheduler(
    state: GameState, moves: Iterator[Move], rng: random.Random
) -> Move | None:
    """The first improving move in enumeration order."""
    return next(iter(moves), None)


def random_improvement_scheduler(
    state: GameState, moves: Iterator[Move], rng: random.Random
) -> Move | None:
    """A uniformly random improving move (reservoir sampling, O(1) memory).

    The generator is still drained — uniformity requires seeing every
    candidate — but the pool is never materialised: the k-th candidate
    replaces the current choice with probability ``1/k``, which makes
    every candidate equally likely no matter how long the stream is.
    Deterministic given its ``random.Random``; the selection frequencies
    match the old list-then-index implementation (seeded-equivalence
    tested), though individual seeds map to different candidates because
    the two consume the rng differently.
    """
    chosen = None
    for count, move in enumerate(moves, start=1):
        if rng.randrange(count) == 0:
            chosen = move
    return chosen


def best_improvement_scheduler(
    state: GameState, moves: Iterator[Move], rng: random.Random
) -> Move | None:
    """The move with the largest total cost drop over its beneficiaries.

    The round's whole move pool is swept rows-only on the speculative
    kernel (:meth:`~repro.core.speculative.SpeculativeEvaluator.best`):
    additions via the one-edge-add identity, bridge removals via the
    two-component split, other removals via probe BFS, swaps via the
    engine's post-removal rows and the add identity — no per-candidate
    apply/undo on the cached engine,
    and bit-identical verdicts to the speculating path.
    """
    spec = SpeculativeEvaluator(state)
    chosen = spec.best(moves)
    if chosen is None:
        return None
    return chosen[0]
