"""Pool-at-once move evaluation: one vectorised pass per candidate run.

:meth:`repro.core.speculative.SpeculativeEvaluator.best` used to price a
round's move pool one candidate at a time — per candidate one or two
O(n) numpy dispatches, each carrying microseconds of Python and
allocator overhead.  This module sweeps whole *runs* of same-type
one-edge moves through three matrix-level kernels instead:

* :func:`batch_add_gains` — the one-edge-add identity for all ``k``
  candidate pairs in one ``(k, n)`` outer-min pass, priced as
  ``base - value(min(d_u, 1 + d_v))``;
* :func:`batch_remove_losses` — bridge removals vectorised off the cut
  side masks (``d(x, other) < d(x, actor)`` rows to the sentinel, read
  straight off the cached matrix), non-bridge removals grouped by edge
  so both directions share one probe-BFS batch;
* :func:`batch_swap_deltas` — swaps grouped by their removed edge: one
  ``rows_after_remove_from`` batch per *distinct* edge (search-free: the
  bridge split, or the changed block repaired from the cached matrix)
  amortised across every partner, then the add identity
  ``min(row_a, 1 + row_n)`` and the value reduction vectorised across
  the group.

All three share one row-value reduction, the state's
:class:`~repro.core.costmodel.Valuation` (plain row sums in the paper's
game), so they price every cost regime alike.

**Bit-exactness contract.**  :func:`sweep_best` reproduces the
per-candidate sequential sweep (kept as the oracle in
``tests/reference.py``) exactly: the same candidates are evaluated (the
module/instance evaluation spies advance by the same counts), the chosen
move is the same — within a same-type run the alpha buy term is constant,
so the first argmin over the integer distance deltas *is* the sequential
first-strict-less winner, and across runs totals compare as exact
``Fraction`` values — and the winner's
:class:`~repro.core.speculative.MoveEvaluation` carries the very same
``Fraction`` deltas.  Compound moves (coalition / neighborhood) fall back
to one per-candidate speculation each, in pool order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.moves import AddEdge, Move, RemoveEdge, Swap
from repro.obs import metrics as _obs

__all__ = [
    "batch_add_gains",
    "batch_remove_losses",
    "batch_swap_deltas",
    "sweep_best",
]

def batch_add_gains(
    spec, us: np.ndarray, vs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distance gains of both endpoints for ``k`` candidate additions.

    One vectorised outer-min pass over the cached matrix per direction:
    entry ``i`` is ``base(u) - value(min(d(u, .), 1 + d(v, .)))`` with
    ``(u, v) = (us[i], vs[i])``.
    """
    matrix = spec.engine.matrix
    base = spec._base_totals_arr
    value = spec.valuation.rows_value

    def gains(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # min(d(a, .), 1 + d(b, .)) built in place: one (k, n) block live
        rows = matrix[b]
        rows += 1
        np.minimum(rows, matrix[a], out=rows)
        return base[a] - value(rows, a)

    return gains(us, vs), gains(vs, us)


def batch_remove_losses(
    spec, actors: np.ndarray, others: np.ndarray
) -> np.ndarray:
    """Actor-side distance deltas for ``k`` candidate removals.

    Entry ``i`` is ``dist_after(actor_i) - dist_base(actor_i)`` in
    ``G - (actor_i, other_i)``.  Bridge removals vectorise wholesale:
    the far side of each cut is the mask ``d(x, other) < d(x, actor)``
    read off the cached matrix (exactly the per-source branch of
    ``rows_after_remove_from``), sent to the sentinel in one ``(k, n)``
    ``where``.  Non-bridge removals group by edge so both directions
    share a single probe batch.
    """
    engine = spec.engine
    matrix = engine.matrix
    base = spec._base_totals_arr
    k = len(actors)
    deltas = np.empty(k, dtype=np.int64)
    bridge = np.fromiter(
        (engine.is_bridge(int(a), int(o)) for a, o in zip(actors, others)),
        dtype=bool,
        count=k,
    )
    hits = np.flatnonzero(bridge)
    if hits.size:
        a = actors[hits]
        rows_a = matrix[a]
        far = matrix[others[hits]] < rows_a
        rows = np.where(far, engine.unreachable, rows_a)
        deltas[hits] = spec.valuation.rows_value(rows, a) - base[a]
    rest = np.flatnonzero(~bridge)
    if rest.size:
        groups: dict[tuple[int, int], list[int]] = {}
        for i in rest:
            a, o = int(actors[i]), int(others[i])
            edge = (a, o) if a <= o else (o, a)
            groups.setdefault(edge, []).append(int(i))
        for (a, o), members in groups.items():
            group_actors = actors[members]
            rows = engine.rows_after_remove_from(a, o, group_actors)
            deltas[members] = (
                spec.valuation.rows_value(rows, group_actors)
                - base[group_actors]
            )
    return deltas


def batch_swap_deltas(
    spec, swaps: Sequence[Swap]
) -> tuple[np.ndarray, np.ndarray]:
    """(actor, new-partner) distance deltas for ``k`` candidate swaps.

    Swaps are grouped by their removed edge; each distinct edge pays one
    ``rows_after_remove_from`` batch over the group's actors and
    partners (search-free: the bridge split or the block repair), after
    which the add identity ``min(row_actor, 1 + row_new)`` and the value
    reduction vectorise across the whole group.  Exact values are
    unique, so the totals equal the per-candidate Fold/BFS path's
    bit-for-bit.
    """
    engine = spec.engine
    graph = spec.graph
    k = len(swaps)
    d_actor = np.empty(k, dtype=np.int64)
    d_new = np.empty(k, dtype=np.int64)
    base = spec._base_totals_arr
    groups: dict[tuple[int, int], list[int]] = {}
    for i, move in enumerate(swaps):
        if graph.has_edge(move.actor, move.new):
            raise ValueError(f"edge {move.actor}-{move.new} already exists")
        a, o = move.actor, move.old
        edge = (a, o) if a <= o else (o, a)
        groups.setdefault(edge, []).append(i)
    for (a, o), members in groups.items():
        position: dict[int, int] = {}
        sources: list[int] = []
        for i in members:
            move = swaps[i]
            for node in (move.actor, move.new):
                if node not in position:
                    position[node] = len(sources)
                    sources.append(node)
        rows = engine.rows_after_remove_from(a, o, sources)
        actors = np.fromiter(
            (swaps[i].actor for i in members), np.int64, len(members)
        )
        news = np.fromiter(
            (swaps[i].new for i in members), np.int64, len(members)
        )
        rows_a = rows[[position[int(x)] for x in actors]]
        rows_n = rows[[position[int(x)] for x in news]]
        value = spec.valuation.rows_value
        d_actor[members] = (
            value(np.minimum(rows_a, 1 + rows_n), actors) - base[actors]
        )
        d_new[members] = (
            value(np.minimum(rows_n, 1 + rows_a), news) - base[news]
        )
    return d_actor, d_new


# -- the pool sweep ----------------------------------------------------------


def _sweep_add_run(spec, run: Sequence[AddEdge]):
    graph = spec.graph
    for move in run:
        if graph.has_edge(move.u, move.v):
            raise ValueError(f"edge {move.u}-{move.v} already exists")
    us = np.fromiter((move.u for move in run), np.int64, len(run))
    vs = np.fromiter((move.v for move in run), np.int64, len(run))
    gains_u, gains_v = batch_add_gains(spec, us, vs)
    pooled = gains_u + gains_v
    # total_i = 2*alpha - pooled_i: the buy term is constant across the
    # run, so the first max pooled gain is the sequential first-best
    index = int(np.argmax(pooled))
    total = 2 * spec.alpha - int(pooled[index])

    def make_eval():
        move = run[index]
        deltas = (
            (move.u, spec.alpha - int(gains_u[index])),
            (move.v, spec.alpha - int(gains_v[index])),
        )
        return _evaluation(move, deltas)

    return index, total, make_eval


def _sweep_remove_run(spec, run: Sequence[RemoveEdge]):
    actors = np.fromiter((move.actor for move in run), np.int64, len(run))
    others = np.fromiter((move.other for move in run), np.int64, len(run))
    dist_deltas = batch_remove_losses(spec, actors, others)
    # total_i = dist_delta_i - alpha: constant buy term again
    index = int(np.argmin(dist_deltas))
    total = int(dist_deltas[index]) - spec.alpha

    def make_eval():
        move = run[index]
        deltas = ((move.actor, int(dist_deltas[index]) - spec.alpha),)
        return _evaluation(move, deltas)

    return index, total, make_eval


def _sweep_swap_run(spec, run: Sequence[Swap]):
    d_actor, d_new = batch_swap_deltas(spec, run)
    pooled = d_actor + d_new
    # total_i = alpha + pooled_i (the actor trades an edge 1:1, the new
    # partner buys one): constant buy term once more
    index = int(np.argmin(pooled))
    total = spec.alpha + int(pooled[index])

    def make_eval():
        from fractions import Fraction

        move = run[index]
        deltas = (
            (move.actor, Fraction(int(d_actor[index]))),
            (move.new, int(d_new[index]) + spec.alpha),
        )
        return _evaluation(move, deltas)

    return index, total, make_eval


def _evaluation(move, deltas):
    from repro.core.speculative import MoveEvaluation

    return MoveEvaluation(
        move=move,
        cost_deltas=deltas,
        improving=all(value < 0 for _, value in deltas),
    )


_RUN_SWEEPS = {
    AddEdge: _sweep_add_run,
    RemoveEdge: _sweep_remove_run,
    Swap: _sweep_swap_run,
}

#: Dispatch-arm meters: how many same-type runs each batch kernel priced
#: and how many compound candidates fell back to per-move speculation.
_DISPATCH = {
    AddEdge: _obs.counter(
        "repro_batch_dispatch_total", "batched sweep runs by kernel arm",
        {"arm": "add"},
    ),
    RemoveEdge: _obs.counter(
        "repro_batch_dispatch_total", "batched sweep runs by kernel arm",
        {"arm": "remove"},
    ),
    Swap: _obs.counter(
        "repro_batch_dispatch_total", "batched sweep runs by kernel arm",
        {"arm": "swap"},
    ),
}
_DISPATCH_FALLBACK = _obs.counter(
    "repro_batch_dispatch_total", "batched sweep runs by kernel arm",
    {"arm": "fallback"},
)


def sweep_best(spec, moves: Iterable[Move]):
    """Batched drop-in for the sequential ``SpeculativeEvaluator.best``.

    Partitions the pool into contiguous runs of same-type one-edge moves
    (enumeration order preserved), sweeps each run through its batch
    kernel, and keeps the strict-less winner across runs — bit-identical
    move, deltas and evaluation counts to the sequential loop.  Compound
    moves evaluate per-candidate in place.  Only the winning candidate's
    :class:`~repro.core.speculative.MoveEvaluation` is materialised.
    """
    pool = list(moves)
    best_move: Move | None = None
    best_total = None
    best_make = None
    i = 0
    size = len(pool)
    while i < size:
        kind = type(pool[i])
        sweep = _RUN_SWEEPS.get(kind)
        if sweep is None:
            move = pool[i]
            _DISPATCH_FALLBACK.inc()
            evaluation = spec.evaluate(move)
            if best_total is None or evaluation.total_delta < best_total:
                best_move = move
                best_total = evaluation.total_delta
                best_make = lambda result=evaluation: result  # noqa: E731
            i += 1
            continue
        j = i + 1
        while j < size and type(pool[j]) is kind:
            j += 1
        run = pool[i:j]
        _DISPATCH[kind].inc()
        index, total, make_eval = sweep(spec, run)
        spec.note_evaluations(len(run))
        if best_total is None or total < best_total:
            best_move = run[index]
            best_total = total
            best_make = make_eval
        i = j
    if best_move is None or best_make is None:
        return None
    return best_move, best_make()
