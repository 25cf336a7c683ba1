"""Enumerate improving moves for each solution concept.

Each pool yields *certified* improving moves of the concept's move
type(s) in the given state.  The dynamics engine hands the pool to its
scheduler, which can stop at the first move, drain the pool, or reduce
its prices to the best move.

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

The one-edge spaces are **priced pools** (:func:`move_pool`): the
checkers' own scans — :func:`~repro.equilibria.remove.removal_runs`,
:func:`~repro.equilibria.add.addition_runs` and
:func:`~repro.equilibria.swap.swap_runs` — emit every improving move with
the exact deltas they computed to find it, so a pool and its checker can
never disagree and nothing prices a move twice.  The BGE pool prices each
edge's removals and swaps off one post-removal matrix, and builds one
add-gain matrix ``G`` per scan
(:func:`~repro.equilibria.add.pairwise_add_gains`): the swap pricer reads
it as the bound that admits swap partners, and the addition run prices
off the same array.  Compound moves (BNE, BSE) come from the searchers
on the speculative kernel.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Callable, Iterator

from repro._rng import coerce_rng
from repro.core.batch import MovePool
from repro.core.concepts import Concept
from repro.core.moves import Move
from repro.core.state import GameState
from repro.equilibria.add import addition_runs, pairwise_add_gains
from repro.equilibria.neighborhood import (
    SearchBudgetExceeded,
    find_improving_neighborhood_move,
    probe_neighborhood_moves,
)
from repro.equilibria.remove import RemovalPricer, removal_runs
from repro.equilibria.strong import probe_coalition_moves
from repro.equilibria.swap import SwapPricer, swap_runs

__all__ = ["improving_moves", "move_generator_for", "move_pool"]


def _folded_runs(state: GameState):
    """The BGE space: removals, then additions, then swaps, priced.

    Each edge's post-removal matrix prices its removals and its swap
    partners alike; the swap runs wait until the additions are out.  The
    add-gain matrix is built at the first swap pricing, so a consumer
    that stops at the first edge's removal never pays for it, and the
    addition run reuses it.  On a tree with every demand positive no
    removal improves, so the swap scan runs on its own (in closed form
    in the paper's game).
    """
    if state.valuation.full_support and state.is_tree():
        gains = pairwise_add_gains(state)
        yield from addition_runs(state, gains)
        yield from swap_runs(state, gains)
        return
    dm = state.dist
    removals = RemovalPricer(state)
    pricer = None
    swaps = []
    # a snapshot of the edges: consumers may speculate between yields
    for a, b in list(state.graph.edges):
        removed = dm.matrix_after_remove(a, b)
        if removals.wanted(a, b):
            run = removals.price(a, b, removed[[a, b]])
            if run is not None:
                yield run
        if pricer is None:
            pricer = SwapPricer(state)
        swaps.extend(pricer.runs(a, b, removed))
    gains = None if pricer is None else pricer.add_gains
    yield from addition_runs(state, gains)
    yield from swaps


def _improving_neighborhood(state: GameState, rng: random.Random | None):
    try:
        move = find_improving_neighborhood_move(state, max_evaluations=200_000)
    except SearchBudgetExceeded:
        # out-of-budget instances degrade to seeded probing (certified
        # moves only; a None simply yields nothing this round)
        move = probe_neighborhood_moves(state, coerce_rng(rng), samples=500)
    if move is not None:
        yield (move,)


def _improving_coalitions(state: GameState, rng: random.Random | None):
    move = probe_coalition_moves(
        state, coerce_rng(rng), max_coalition_size=min(state.n, 4), samples=500
    )
    if move is not None:
        yield (move,)


#: each concept's runs in pool order (compound moves as one-move runs)
_SCANS = {
    Concept.RE: lambda state, rng: removal_runs(state),
    Concept.BAE: lambda state, rng: addition_runs(state),
    Concept.PS: lambda state, rng: itertools.chain(
        removal_runs(state), addition_runs(state)
    ),
    Concept.BSWE: lambda state, rng: swap_runs(state),
    Concept.BGE: lambda state, rng: _folded_runs(state),
    Concept.BNE: _improving_neighborhood,
    Concept.BSE: _improving_coalitions,
}


def move_pool(
    state: GameState,
    concept: Concept,
    rng: random.Random | None = None,
) -> MovePool:
    """The improving moves of ``concept``'s move space in ``state``, as a
    priced pool (see the module docstring)."""
    scan = _SCANS.get(concept)
    if scan is None:
        raise ValueError(f"no move generator for {concept}")
    return MovePool(state, functools.partial(scan, state, rng))


def improving_moves(
    state: GameState,
    concept: Concept,
    rng: random.Random | None = None,
) -> Iterator[Move]:
    """All improving moves of ``concept``'s move space in ``state``: the
    moves of :func:`move_pool`, lazily.

    BNE and BSE generation is budgeted/sampled (see module docstring); the
    polynomial concepts enumerate exhaustively.
    """
    yield from move_pool(state, concept, rng)


def move_generator_for(
    concept: Concept,
) -> Callable[[GameState, random.Random | None], Iterator[Move]]:
    """Curried form of :func:`improving_moves` for one concept."""

    def generate(state: GameState, rng: random.Random | None = None):
        return improving_moves(state, concept, rng)

    return generate
