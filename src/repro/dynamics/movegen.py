"""Enumerate improving moves for each solution concept.

Each generator yields *certified* improving moves of the concept's move
type(s) in the given state.  The dynamics engine consumes these lazily, so
schedulers can stop at the first move or drain the generator to choose the
best one.

The move spaces mirror the concept definitions:

* ``RE``   — single removals;
* ``BAE``  — single mutual additions;
* ``PS``   — removals + additions;
* ``BSWE`` — swaps only;
* ``BGE``  — removals + additions + swaps;
* ``BNE``  — bounded neighborhood moves (exhaustive within small budgets,
  degrading to seeded probing when the pruned space is still too large);
* ``BSE``  — bounded coalition moves (via :func:`probe_coalition_moves`
  sampling, since exhaustive generation is exponential).

All candidate evaluation — here and in the searchers this module calls —
runs on the speculative kernel
(:class:`~repro.core.speculative.SpeculativeEvaluator`), so a trajectory
never pays a full APSP rebuild per candidate.  The one-edge pools are the
checkers' own scans, so a generator and its checker can never disagree:
removals come from the RE checker's
(:func:`repro.equilibria.remove.improving_removals`, which skips bridges
without a BFS whenever every demand is positive and a disconnection
always costs a sentinel), swaps from the BSwE
checker's (:func:`repro.equilibria.swap.improving_swaps`, which prices
each dropped edge on a post-removal matrix derived from the cached one
without mutating the engine); schedulers then batch-evaluate the
round's whole pool rows-only
(:meth:`~repro.core.speculative.SpeculativeEvaluator.best`) instead of
per-candidate apply/undo.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

import numpy as np

from repro._alpha import strict_gt_threshold
from repro._rng import coerce_rng
from repro.core.concepts import Concept
from repro.core.moves import AddEdge, Move
from repro.core.state import GameState
from repro.equilibria.add import pairwise_add_gains
from repro.equilibria.neighborhood import (
    SearchBudgetExceeded,
    find_improving_neighborhood_move,
    probe_neighborhood_moves,
)
from repro.equilibria.remove import improving_removals
from repro.equilibria.strong import probe_coalition_moves
from repro.equilibria.swap import improving_swaps

__all__ = ["improving_moves", "move_generator_for"]


def _improving_additions(state: GameState) -> Iterator[AddEdge]:
    threshold = strict_gt_threshold(state.alpha)
    gains = pairwise_add_gains(state)
    mutual = (gains >= threshold) & (gains.T >= threshold)
    for u, v in np.argwhere(np.triu(mutual, k=1)):
        u, v = int(u), int(v)
        if not state.graph.has_edge(u, v):
            yield AddEdge(u, v)


def _improving_neighborhood(state: GameState, rng: random.Random | None):
    try:
        move = find_improving_neighborhood_move(state, max_evaluations=200_000)
    except SearchBudgetExceeded:
        # out-of-budget instances degrade to seeded probing (certified
        # moves only; a None simply yields nothing this round)
        move = probe_neighborhood_moves(state, coerce_rng(rng), samples=500)
    if move is not None:
        yield move


def _improving_coalitions(state: GameState, rng: random.Random | None):
    move = probe_coalition_moves(
        state, coerce_rng(rng), max_coalition_size=min(state.n, 4), samples=500
    )
    if move is not None:
        yield move


def improving_moves(
    state: GameState,
    concept: Concept,
    rng: random.Random | None = None,
) -> Iterator[Move]:
    """All improving moves of ``concept``'s move space in ``state``.

    BNE and BSE generation is budgeted/sampled (see module docstring); the
    polynomial concepts enumerate exhaustively.
    """
    if concept == Concept.RE:
        yield from improving_removals(state)
    elif concept == Concept.BAE:
        yield from _improving_additions(state)
    elif concept == Concept.PS:
        yield from improving_removals(state)
        yield from _improving_additions(state)
    elif concept == Concept.BSWE:
        yield from improving_swaps(state)
    elif concept == Concept.BGE:
        yield from improving_removals(state)
        yield from _improving_additions(state)
        yield from improving_swaps(state)
    elif concept == Concept.BNE:
        yield from _improving_neighborhood(state, rng)
    elif concept == Concept.BSE:
        yield from _improving_coalitions(state, rng)
    else:
        raise ValueError(f"no move generator for {concept}")


def move_generator_for(
    concept: Concept,
) -> Callable[[GameState, random.Random | None], Iterator[Move]]:
    """Curried form of :func:`improving_moves` for one concept."""

    def generate(state: GameState, rng: random.Random | None = None):
        return improving_moves(state, concept, rng)

    return generate
