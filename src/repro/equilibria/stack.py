"""Stacked RE / BAE / PS verdicts: one numpy kernel for many graphs.

The exact-PoA scans (:mod:`repro.analysis.poa`) price every class of an
enumerated family under one game.  :func:`price_stack` prices a whole
``(g, n, n)`` adjacency stack at once, with no per-graph engine, bridge
set or checker:

* **distances** — all-pairs BFS of the stack in at most ``n - 1``
  batched frontier steps; unreachable pairs keep the game's sentinel
  ``M`` (:func:`~repro.core.costmodel.bind_valuation`);
* **values** — every row through the game's
  :class:`~repro.core.costmodel.Valuation`, so every regime the repo
  serves is priced by the same code;
* **RE** — for each edge ``uv``, the rows of ``u`` and ``v`` in
  ``G - uv`` come from a two-source frontier whose first step leaves out
  the dropped edge (later steps cannot use it: its ends are already
  reached).  The class is RE-stable iff no endpoint loses less than
  ``alpha``.  Bridges are priced like any edge: the sentinel makes a
  disconnection as costly as the removal checker assumes when it skips
  them (:mod:`repro.equilibria.remove`);
* **BAE** — ``u``'s gain from edge ``uv`` values the row
  ``min(d(u, .), 1 + d(v, .))`` (the identity of
  :mod:`repro.equilibria.add`), for every ordered pair at once.  An
  existing edge or the diagonal gains exactly 0, below any threshold, so
  the class is BAE-stable iff no pair has both gains at least
  ``strict_gt_threshold(alpha)``;
* **PS** is RE and BAE; the social cost is ``2 alpha m`` plus the
  returned value total.

The BAE block holds ``n**3`` cells per graph; :func:`stack_size` bounds
a stack so that no temporary exceeds :data:`STACK_CELLS` cells.  The
per-instance checkers stay the reference: the tests compare every class
with ``n <= 7`` against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro._alpha import strict_gt_threshold
from repro.core.costmodel import Valuation
from repro.obs import trace as _trace

__all__ = ["STACK_CELLS", "StackPrices", "price_stack", "stack_size"]

#: cell budget of one stack's largest temporary (the ``(g, n, n, n)``
#: BAE block): 64 graphs at n = 8
STACK_CELLS = 1 << 15


def stack_size(n: int) -> int:
    """How many ``n``-node graphs one stack may hold."""
    return max(1, STACK_CELLS // max(n, 1) ** 3)


@dataclass(frozen=True)
class StackPrices:
    """Per-graph verdicts and value totals of one adjacency stack."""

    remove: np.ndarray  # RE-stable
    add: np.ndarray  # BAE-stable
    totals: np.ndarray  # sum of every agent's value (int64)

    @property
    def pairwise(self) -> np.ndarray:
        """PS-stable: RE and BAE."""
        return self.remove & self.add


def _bfs(
    links: np.ndarray, reach: np.ndarray, frontier: np.ndarray, sentinel: int
) -> np.ndarray:
    """Distance rows from source rows ``reach`` (distance 0) whose first
    frontier is ``frontier`` (distance 1), over the float 0/1 adjacency
    ``links``; unreached entries hold ``sentinel``."""
    dist = np.where(reach, 0, sentinel)
    reach = reach | frontier
    step = 1
    while frontier.any():
        dist[frontier] = step
        step += 1
        # counts stay below n, exact in float32, and the stacked
        # matmul runs in BLAS
        frontier = np.matmul(frontier.astype(np.float32), links) > 0
        frontier &= ~reach
        reach |= frontier
    return dist


def price_stack(
    adjacency: np.ndarray,
    alpha: Fraction,
    m_constant: int,
    valuation: Valuation,
) -> StackPrices:
    """RE and BAE verdicts and value totals of every graph in a stack.

    ``adjacency`` is a ``(g, n, n)`` symmetric boolean stack whose graphs
    all have the same number of edges; ``m_constant`` and ``valuation``
    are the game's, from :func:`~repro.core.costmodel.bind_valuation`.
    """
    adjacency = np.asarray(adjacency, dtype=bool)
    g, n, _ = adjacency.shape
    with _trace.span("poa.stack", n=n, classes=g) as span:
        links = adjacency.astype(np.float32)
        eye = np.broadcast_to(np.eye(n, dtype=bool), adjacency.shape)
        dist = _bfs(links, eye, adjacency, m_constant)
        base = valuation.rows_value(dist)

        # RE: rows (u, v) of each edge uv in G - uv, edge by edge
        owner, us, vs = np.nonzero(np.triu(adjacency, 1))
        m, rest = divmod(us.size, g)
        if rest or (np.bincount(owner, minlength=g) != m).any():
            raise ValueError("a stack's graphs must have equal edge counts")
        ends = np.stack([us, vs], axis=1).reshape(g, 2 * m)
        others = np.stack([vs, us], axis=1).reshape(g, 2 * m)
        graph = np.arange(g)[:, None]
        row = np.arange(2 * m)[None, :]
        sources = np.zeros((g, 2 * m, n), dtype=bool)
        sources[graph, row, ends] = True
        first = adjacency[graph, ends]
        first[graph, row, others] = False
        after = _bfs(links, sources, first, m_constant)
        losses = valuation.rows_value(after, ends) - np.take_along_axis(
            base, ends, axis=1
        )
        # an integer loss is below alpha iff it is below ceil(alpha)
        remove = (losses >= math.ceil(alpha)).all(axis=1)

        # BAE: u's gain from uv over every ordered pair at once
        added = np.minimum(dist[:, :, None, :], dist[:, None, :, :] + 1)
        owners = np.arange(n)[:, None]
        gains = base[:, :, None] - valuation.rows_value(added, owners)
        wanted = gains >= strict_gt_threshold(alpha)
        add = ~(wanted & wanted.transpose(0, 2, 1)).any(axis=(1, 2))

        prices = StackPrices(remove, add, base.sum(axis=1))
        span.set(stable=int(prices.pairwise.sum()))
    return prices
