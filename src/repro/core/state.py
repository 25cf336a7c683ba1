"""Immutable game snapshots: a graph, an edge price, and cached distances.

In equilibrium, BNCG strategy vectors and created graphs are in bijection
(Section 1.1 of the paper), so a *state* is simply an undirected graph plus
``alpha``.  ``GameState`` freezes a copy of the graph, normalises ``alpha``
to an exact :class:`~fractions.Fraction`, fixes the big constant ``M``, and
lazily caches the all-pairs distance matrix every checker consumes.  The
cache is *transferred*, not recomputed, along :meth:`GameState.apply` chains:
the incremental engine updates it in place for the successor state, so whole
dynamics trajectories cost one APSP build total.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

import networkx as nx
import numpy as np

from repro._alpha import AlphaLike, as_alpha
from repro.core.costmodel import CostModel, bind_valuation
from repro.core.traffic import TrafficMatrix
from repro.graphs.distances import DistanceMatrix, canonical_labels
from repro.graphs.trees import is_tree

__all__ = ["GameState"]


class GameState:
    """One state of the Bilateral Network Creation Game.

    Parameters
    ----------
    graph:
        Undirected simple graph; nodes are relabelled to ``0..n-1`` if needed
        (a copy is always taken — mutating the input later is safe).
    alpha:
        Edge price; int, float, ``str`` or ``Fraction`` (kept exact).
    traffic:
        Optional :class:`~repro.core.traffic.TrafficMatrix` of per-pair
        demands.  ``None`` (and the bit-exactly equivalent
        ``TrafficMatrix.uniform(n)``) gives the paper's uniform cost
        model; a non-uniform matrix switches every cost to
        ``alpha * deg(u) + sum_v W[u, v] * d(u, v)`` with the big
        constant ``M`` re-sized so disconnecting any positive-demand
        pair still dominates every possible saving.
    cost_model:
        Optional :class:`~repro.core.costmodel.CostModel` replacing the
        linear distance term by ``sum_v W[u, v] * f(d(u, v))`` (or the
        max aggregate) for a monotone int-valued ``f``.  ``None`` and
        :class:`~repro.core.costmodel.LinearCost` give the paper's game
        byte-exactly; any other model maps distance rows through its
        table, with unreachable pairs carrying the model's own value
        sentinel ``F`` (the distance machinery and its ``M`` are
        untouched — values are mapped at the aggregation boundary).

    The pair is bound once, at construction, into :attr:`valuation`
    (:func:`~repro.core.costmodel.bind_valuation`, which also sizes
    ``M`` and owns every int64 headroom check); every layer reads
    distance rows through it.

    >>> state = GameState(nx.star_graph(3), 2)
    >>> state.cost(0)            # center: 3 edges bought, distance 3
    Fraction(9, 1)
    >>> state.social_cost() == state.optimum_cost()
    True
    """

    def __init__(
        self,
        graph: nx.Graph,
        alpha: AlphaLike,
        traffic: TrafficMatrix | None = None,
        cost_model: CostModel | None = None,
    ):
        if graph.number_of_nodes() == 0:
            raise ValueError("the game needs at least one agent")
        if any(u == v for u, v in graph.edges):
            raise ValueError("self-loops are not part of the game")
        self.graph = canonical_labels(graph)
        self.n = self.graph.number_of_nodes()
        self.alpha: Fraction = as_alpha(alpha)
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        self.traffic = traffic
        self.cost_model = cost_model
        self.m_constant, self.valuation = bind_valuation(
            self.n, self.alpha, traffic, cost_model
        )
        self._dist: DistanceMatrix | None = None

    # -- structure ---------------------------------------------------------

    @property
    def dist(self) -> DistanceMatrix:
        """Cached all-pairs distances (``M`` for disconnected pairs)."""
        if self._dist is None:
            self._dist = DistanceMatrix(self.graph, self.m_constant)
            self._dist.bind_valuation(self.valuation)
        return self._dist

    @property
    def dist_matrix(self) -> np.ndarray:
        """The live int64 APSP array of the cached engine.

        This is a *view*, not a snapshot: :meth:`apply` hands the engine to
        the successor state and updates the same array in place, so copy it
        (``state.dist_matrix.copy()``) before applying a move if you need
        the predecessor's distances afterwards.
        """
        return self.dist.matrix

    def degree(self, u: int) -> int:
        return self.graph.degree(u)

    def degrees(self) -> np.ndarray:
        return np.array([self.graph.degree(u) for u in range(self.n)])

    def is_connected(self) -> bool:
        return self.n == 1 or nx.is_connected(self.graph)

    def is_tree(self) -> bool:
        return is_tree(self.graph)

    def edges(self) -> Iterable[tuple[int, int]]:
        return self.graph.edges

    def non_edges(self) -> Iterable[tuple[int, int]]:
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not self.graph.has_edge(u, v):
                    yield u, v

    # -- costs --------------------------------------------------------------

    def buy_cost(self, u: int) -> Fraction:
        """``alpha * |S_u|``; in the graph abstraction ``|S_u| = deg(u)``."""
        return self.alpha * self.graph.degree(u)

    def dist_cost(self, u: int) -> int:
        """``dist(u) = sum_v W[u, v] * f(d(u, v))`` (``W = 1``: uniform,
        ``f = id``: linear; max aggregate under :class:`MaxCost`).

        Unreachable agents carry ``M`` per unit of demand (the model's
        ``F`` sentinel under a cost table).  Served by the engine's
        incrementally maintained totals of the bound :attr:`valuation`.
        """
        return self.dist.total(u)

    def cost(self, u: int) -> Fraction:
        """``cost(u) = buy(u) + dist(u)``."""
        return self.buy_cost(u) + self.dist_cost(u)

    def social_cost(self) -> Fraction:
        """``sum_u cost(u) = 2 * alpha * m + sum_u dist(u)``."""
        total_dist = int(self.dist.totals().sum())
        return 2 * self.alpha * self.graph.number_of_edges() + total_dist

    def optimum_cost(self) -> Fraction:
        from repro.core.optimum import optimum_cost

        return optimum_cost(self.n, self.alpha)

    def rho(self) -> Fraction:
        """Social cost ratio ``rho(G) = cost(G) / cost(OPT)``.

        Defined against the paper's closed-form optimum, so it is only
        meaningful for the uniform linear game
        (``valuation.uniform_linear``); other regimes compare social costs
        within an enumerated family instead
        (:func:`repro.analysis.poa.family_poa`).
        """
        if not self.valuation.uniform_linear:
            raise ValueError(
                "rho() compares against the uniform linear optimum; for "
                "weighted traffic or a non-linear cost model compare social "
                "costs within an enumerated family "
                "(repro.analysis.poa.family_poa)"
            )
        from repro.core.optimum import social_cost_ratio

        return social_cost_ratio(self)

    # -- derived states ------------------------------------------------------

    def with_graph(self, graph: nx.Graph) -> "GameState":
        """A new state with the same ``alpha``/traffic/model, a different
        graph."""
        return GameState(
            graph, self.alpha, traffic=self.traffic,
            cost_model=self.cost_model,
        )

    def apply(self, move) -> "GameState":
        """State after applying a :class:`repro.core.moves.Move`.

        If this state's distance matrix has already been materialised, it is
        *handed off* to the successor: the successor gets its own graph copy,
        the matrix is updated in place through the incremental engine
        (``apply_add`` / ``apply_remove``), and this state drops its cache —
        it rebuilds lazily if queried again.  A dynamics trajectory therefore
        performs exactly one full APSP build no matter how many moves it
        applies.  Consequence: arrays previously obtained from
        :attr:`dist_matrix` are updated in place to the successor's
        distances — copy them first if a pre-move snapshot is needed.
        Moves without :meth:`~repro.core.moves.Move.edge_deltas` fall back
        to a fresh state.
        """
        deltas = getattr(move, "edge_deltas", None)
        if self._dist is None or deltas is None:
            return self.with_graph(move.apply(self.graph))
        dist = self._dist
        self._dist = None  # hand off; rebuilt lazily if this state is reused
        graph = self.graph.copy()
        dist.rebind(graph)
        for op, u, v in deltas():
            if op == "add":
                dist.apply_add(u, v)
            elif op == "remove":
                dist.apply_remove(u, v)
            else:
                raise ValueError(f"unknown edge delta {op!r}")
        return self._successor(graph, dist)

    def _successor(self, graph: nx.Graph, dist: DistanceMatrix) -> "GameState":
        """Construct an apply-chained state around an already-updated engine.

        The one place besides ``__init__`` that builds a ``GameState`` —
        keep the two field lists in sync when adding cached attributes.
        """
        successor = GameState.__new__(GameState)
        successor.graph = graph
        successor.n = self.n
        successor.alpha = self.alpha
        successor.m_constant = self.m_constant
        successor.traffic = self.traffic
        successor.cost_model = self.cost_model
        successor.valuation = self.valuation
        successor._dist = dist
        return successor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GameState(n={self.n}, m={self.graph.number_of_edges()}, "
            f"alpha={self.alpha})"
        )
