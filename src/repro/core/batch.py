"""Priced move pools: the scan that finds a one-edge move also prices it.

The one-edge scans compute each candidate's exact row-value deltas to
decide that it improves, and keep them: they emit struct-of-arrays
*runs* of same-type improving moves — :class:`Removal`
``(actor, other, loss)``, :class:`Additions`
``(us, vs, gains_u, gains_v)`` and, per dropped edge and direction,
:class:`Swaps` ``(actor, old, partners, gains_actor, gains_partner)`` —
priced by the kernels below (:func:`batch_add_gains`,
:func:`batch_remove_losses`, :func:`batch_swap_deltas`), which value rows
through the state's :class:`~repro.core.costmodel.Valuation` in every
cost regime.

The swap kernel prices only the partners it is handed: the swap scan
(:mod:`repro.equilibria.swap`) admits a partner ``w`` of an actor only
where the add-gain matrix of :func:`batch_add_gains` bounds both gains
past their thresholds.  For each candidate the kernel values the actor's
post-swap row, and the partner's row only where the actor gains at least
1, so it returns ``(ws, gains_actor, gains_partner)`` over those
candidates alone; the partner threshold stays with the scan.

A :class:`MovePool` holds one state's runs for one move space; iterating
it yields their moves in scan order, lazily.  :func:`sweep_best` reduces
the prices instead: the first argmin within each run (the alpha buy term
is constant across a run), then the strict-less winner across runs in
pool order, comparing exact ``Fraction`` totals — the per-candidate
loop's first strictly best move.  Only the winner becomes a
:class:`~repro.core.speculative.MoveEvaluation`, with the ``Fraction``
deltas an apply/undo evaluation gives.  Any other iterable, and compound
moves, are priced one apply/undo evaluation per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core.moves import AddEdge, RemoveEdge, Swap
from repro.obs import metrics as _obs

__all__ = [
    "Additions",
    "MovePool",
    "PricedRun",
    "Removal",
    "Swaps",
    "batch_add_gains",
    "batch_remove_losses",
    "batch_swap_deltas",
    "sweep_best",
]


# -- pricing kernels ----------------------------------------------------------


def batch_add_gains(valuation, dist: np.ndarray) -> np.ndarray:
    """``G[u, v]``: the row-value gain of ``u`` when edge ``uv`` is added.

    Row ``u`` values every hypothetical row ``min(d(u, .), 1 + d(v, .))``
    at once.  Entries on the diagonal and for existing edges are
    meaningless.
    """
    n = len(dist)
    base = valuation.rows_value(dist)
    step = dist + 1  # row v: distances through partner v
    gains = np.empty((n, n), dtype=np.int64)
    for u in range(n):
        gains[u] = base[u] - valuation.rows_value(np.minimum(dist[u], step), u)
    return gains


def batch_remove_losses(
    valuation, rows: np.ndarray, ends: tuple[int, int], base
) -> tuple[int, int]:
    """Row-value losses of both endpoints ``(u, v)`` of a removed edge.

    ``rows`` holds the rows of ``u`` and ``v`` in ``G - uv``; ``base``
    every node's value in ``G``.
    """
    u, v = ends
    after_u, after_v = valuation.rows_value(rows, [u, v]).tolist()
    return after_u - base[u], after_v - base[v]


def batch_swap_deltas(
    valuation, removed: np.ndarray, totals: np.ndarray, ends, partners
):
    """Distance gains of the candidate swap partners of a dropped edge.

    ``removed`` is the exact APSP matrix of ``G - uv`` for ``ends =
    (u, v)``, ``totals`` the base row values and ``partners`` one
    ascending array of candidate partners per end.  For each end
    ``actor`` (in the order of ``ends``) returns ``(ws, gains_actor,
    gains_partner)``: the candidates ``ws`` whose actor gain is at least
    1, with the gains of ``actor`` and ``w`` when ``actor`` reattaches to
    ``w``, by the one-edge-add identity on ``removed``.  Only the actor's
    rows of every candidate and the partner rows of the kept ones are
    valued.
    """
    priced = []
    for actor, ws in zip(ends, partners):
        if not ws.size:  # no candidate: nothing to value
            priced.append((ws, ws, ws))
            continue
        # row w: actor's new distances min(rm[actor], 1 + rm[w]),
        # as 1 + min(rm[actor] - 1, rm[w]) so no shifted copy is made
        rows = removed[ws]
        np.minimum(rows, removed[actor] - 1, out=rows)
        rows += 1
        gains_actor = int(totals[actor]) - valuation.rows_value(rows, actor)
        keep = gains_actor >= 1
        ws, gains_actor = ws[keep], gains_actor[keep]
        # row w: w's new distances min(rm[w], 1 + rm[actor])
        rows = removed[ws]
        np.minimum(rows, removed[actor] + 1, out=rows)
        priced.append(
            (ws, gains_actor, totals[ws] - valuation.rows_value(rows, ws))
        )
    return priced


# -- priced runs --------------------------------------------------------------


class PricedRun:
    """Same-type one-edge moves with their beneficiaries' row-value gains.

    A run lists, per beneficiary slot, the agents (:meth:`agents`) and
    their gains (:meth:`gains`), one array entry per move, and the edges
    each slot buys (``BUYS``): a beneficiary's exact cost delta is
    ``buys * alpha - gain``.  The agents of the ``INITIATORS`` slots
    initiate the moves.  Iterating a run yields its moves in scan order.
    """

    __slots__ = ()
    BUYS: tuple[int, ...] = ()
    INITIATORS: tuple[int, ...] = (0,)

    def __len__(self) -> int:
        return len(self.gains()[0])

    def best(self, alpha: Fraction) -> tuple[int, Fraction]:
        """``(index, total cost delta)`` of the run's first best move."""
        pooled = sum(self.gains())
        index = int(np.argmax(pooled))
        return index, sum(self.BUYS) * alpha - int(pooled[index])

    def evaluation(self, index: int, alpha: Fraction):
        """Move ``index``'s exact
        :class:`~repro.core.speculative.MoveEvaluation`."""
        from repro.core.speculative import MoveEvaluation

        deltas = tuple(
            (int(agents[index]), buys * alpha - int(gains[index]))
            for agents, gains, buys in zip(
                self.agents(), self.gains(), self.BUYS
            )
        )
        return MoveEvaluation(
            move=self.move(index),
            cost_deltas=deltas,
            improving=all(delta < 0 for _, delta in deltas),
        )

    def for_actor(self, actor: int, alpha: Fraction):
        """``(count, index, delta)``: how many moves ``actor`` initiates,
        and the first one minimising its own cost delta (``None`` twice
        when there is none)."""
        agents, gains = self.agents(), self.gains()
        mine = np.zeros(len(self), dtype=bool)
        gain = gains[0]
        for slot in self.INITIATORS:
            here = agents[slot] == actor
            mine |= here
            gain = np.where(here, gains[slot], gain)
        own = np.flatnonzero(mine)
        if not own.size:
            return 0, None, None
        index = int(own[np.argmax(gain[own])])
        buys = self.BUYS[self.INITIATORS[0]]
        return own.size, index, buys * alpha - int(gain[index])


@dataclass(eq=False, slots=True)
class Removal(PricedRun):
    """``actor`` drops its edge to ``other``, losing ``loss``."""

    actor: int
    other: int
    loss: int
    BUYS = (-1,)

    def __iter__(self) -> Iterator[RemoveEdge]:
        yield self.move(0)

    def move(self, index: int) -> RemoveEdge:
        return RemoveEdge(actor=self.actor, other=self.other)

    def agents(self):
        return (np.array([self.actor]),)

    def gains(self):
        return (np.array([-self.loss]),)


@dataclass(eq=False, slots=True)
class Additions(PricedRun):
    """Mutual additions ``(us[i], vs[i])``, ascending."""

    us: np.ndarray
    vs: np.ndarray
    gains_u: np.ndarray
    gains_v: np.ndarray
    BUYS = (1, 1)
    INITIATORS = (0, 1)

    def __iter__(self) -> Iterator[AddEdge]:
        for u, v in zip(self.us.tolist(), self.vs.tolist()):
            yield AddEdge(u, v)

    def move(self, index: int) -> AddEdge:
        return AddEdge(int(self.us[index]), int(self.vs[index]))

    def agents(self):
        return self.us, self.vs

    def gains(self):
        return self.gains_u, self.gains_v


@dataclass(eq=False, slots=True)
class Swaps(PricedRun):
    """Swaps ``(actor, old -> partners[i])``, partners ascending: the
    actor trades an edge 1:1, the partner buys one."""

    actor: int
    old: int
    partners: np.ndarray
    gains_actor: np.ndarray
    gains_partner: np.ndarray
    BUYS = (0, 1)

    def __iter__(self) -> Iterator[Swap]:
        actor, old = self.actor, self.old
        for new in self.partners.tolist():
            yield Swap(actor=actor, old=old, new=new)

    def move(self, index: int) -> Swap:
        return Swap(
            actor=self.actor, old=self.old, new=int(self.partners[index])
        )

    def agents(self):
        return np.full(len(self.partners), self.actor), self.partners

    def gains(self):
        return self.gains_actor, self.gains_partner


class MovePool:
    """One state's improving moves of one move space, as priced runs.

    Each call of ``scan`` returns a fresh iterable of runs: a
    :class:`PricedRun`, or a tuple of compound moves.  Every pass over
    the pool scans ``state`` again, lazily.
    """

    __slots__ = ("state", "_scan")

    def __init__(self, state, scan: Callable[[], Iterable]):
        self.state = state
        self._scan = scan

    def runs(self) -> Iterator:
        """The pool's runs in scan order."""
        return iter(self._scan())

    def __iter__(self):
        for run in self._scan():
            yield from run


# -- the pool reduction -------------------------------------------------------

#: how many priced runs of each type the reductions read, and how many
#: candidates they priced by apply/undo instead
_DISPATCH = {
    kind: _obs.counter(
        "repro_batch_dispatch_total", "batched sweep runs by kernel arm",
        {"arm": arm},
    )
    for kind, arm in ((Additions, "add"), (Removal, "remove"), (Swaps, "swap"))
}
_DISPATCH_FALLBACK = _obs.counter(
    "repro_batch_dispatch_total", "batched sweep runs by kernel arm",
    {"arm": "fallback"},
)


def sweep_best(spec, moves: Iterable):
    """The move with the largest total cost drop, first best on ties.

    A :class:`MovePool` is reduced over its prices; any other iterable,
    and the compound moves of a pool, are priced one apply/undo
    evaluation per candidate.  Either way the evaluation spies advance by
    the number of candidates.  Returns ``(move, evaluation)`` or ``None``.
    """
    alpha = spec.alpha
    runs = moves.runs() if isinstance(moves, MovePool) else (tuple(moves),)
    best_total = winner = None
    for run in runs:
        if isinstance(run, PricedRun):
            _DISPATCH[type(run)].inc()
            spec.note_evaluations(len(run))
            index, total = run.best(alpha)
            if best_total is None or total < best_total:
                best_total, winner = total, (run, index)
            continue
        for move in run:
            _DISPATCH_FALLBACK.inc()
            evaluation = spec.evaluate(move)
            if best_total is None or evaluation.total_delta < best_total:
                best_total, winner = evaluation.total_delta, evaluation
    if isinstance(winner, tuple):
        run, index = winner
        winner = run.evaluation(index, alpha)
    return None if winner is None else (winner.move, winner)
