"""All-pairs shortest paths and the incremental one/two-edge distance engine.

Graphs are ``networkx.Graph`` objects whose nodes are ``0 .. n-1``.  Distances
live in dense ``numpy`` ``int64`` matrices; pairs in different components hold
the game's big constant ``M`` (see :mod:`repro._alpha`), never ``inf``, so all
arithmetic stays integral and exact.  Float results coming back from scipy are
converted with an **exact integer fill**: finite hop counts (< ``2**53``) cast
losslessly and the ``inf`` mask is overwritten with the exact Python integer
sentinel afterwards, so even ``M > 2**53`` round-trips bit-exactly.

The identities behind the engine:

* adding edge ``uv``:  ``d'(x, y) = min(d(x, y), d(x, u) + 1 + d(v, y),
  d(x, v) + 1 + d(u, y))`` — a shortest path uses a fresh edge at most once,
  so the whole matrix updates with one vectorised outer minimum, no search;
* removing edge ``uv``: let ``A_u`` be the nodes ``y`` whose every
  shortest ``u``-``y`` path starts with ``uv`` — ``d(v, y) = d(u, y) - 1``
  and ``d(z, y) >= d(u, y)`` for every other neighbour ``z`` of ``u`` —
  and ``A_v`` the same with ``u`` and ``v`` exchanged.  Only the pairs of
  ``A_v x A_u`` change, and each new entry is a small min-plus product of
  old ones: ``d'(s, y) = min d(s, t) + d(t, y)`` over the nodes ``t``
  outside ``A_u | A_v`` adjacent to ``A_v``.  It is exact because

  - a changed pair ``(s, y)`` has every shortest path through ``uv``,
    say ``u`` first, so ``s`` is in ``A_v`` and ``y`` in ``A_u`` (a
    shortest ``u``-``y`` path avoiding ``uv`` behind the ``s``-``u``
    prefix would be a shortest ``s``-``y`` path avoiding it); every row
    of ``A_u | A_v`` does change (``d(s, v)`` grows for ``s`` in
    ``A_v``), so it is exactly the set of changed rows, the mask two
    probe BFS runs from ``u`` and ``v`` in ``G - uv`` would find;
  - an edge ``pq != uv`` with ``p`` in ``A_v`` and ``q`` in ``A_u`` would
    give a shortest ``u``-``q`` path through ``p`` that avoids ``v``, so
    no such edge exists;
  - a shortest ``s``-``y`` path in ``G - uv`` therefore first leaves
    ``A_v`` to some ``t`` outside both sides, and pairs with an endpoint
    outside ``A_u | A_v``, or with both endpoints on one side, keep their
    distance — so ``d'(s, t) = d(s, t)`` and ``d'(t, y) = d(t, y)``.

  The in-place repair (``apply_remove``), the full post-removal matrix
  (``matrix_after_remove``) and multi-source row queries
  (``rows_after_remove_from``) share this block repair: no search at all.
  When ``uv`` is a **bridge** — on *any* graph, forests being the special
  case where every edge qualifies — no such ``t`` exists: ``A_u`` and
  ``A_v`` are the two sides of the cut, read off the cached matrix
  (``d(x, u)`` vs ``d(x, v)``), and every cross pair jumps to the
  sentinel.  Queries for the rows of ``u`` and ``v`` alone instead run
  one or two BFS with the edge masked out, which is faster at the sizes
  the workloads use: in pure Python over the graph's adjacency dicts
  while the batch is small (a C-level call carries ~170us of fixed
  overhead, see :data:`_PY_BFS_CELLS`), as one C-level call beyond.  The
  same cell budget picks the arm of a full :func:`apsp_matrix` build, so
  the engines of small graphs never call scipy.

**The bridge contract.**  The engine owns an incrementally maintained
:class:`~repro.graphs.bridges.BridgeSet`: one chain-decomposition build
at materialisation (spy-counted by the
``repro_engine_bridge_rebuilds_total`` series), then O(affected) updates
ride along every ``apply_add`` / ``apply_remove`` / ``undo`` — a
vectorised side test kills the bridges a new cycle absorbs, a bridge
removal deletes only itself, and only a *non-bridge* removal pays a
component-local sweep.  That sweep is now the larger part of such a
removal: the matrix repair is a handful of vectorised passes.  Only
applied removals sweep; the speculative queries never touch the bridge
set.  Non-bridge repairs are spy-counted by
``repro_engine_remove_bfs_repairs_total`` and their rows by
``repro_engine_bfs_repair_rows_total`` (names kept
from the BFS repair they replaced).  ``is_forest`` is derived as
``|bridges| == |edges|``, so it also recovers when deletions make a
cyclic graph acyclic again.

:class:`DistanceMatrix` exposes these as in-place ``apply_add`` /
``apply_remove`` / ``apply_swap`` mutators.  Each returns an
:class:`UndoToken`; calling :meth:`DistanceMatrix.undo` restores the matrix,
the graph, and the cached CSR adjacency bit-exactly.  Tokens are strictly
LIFO (enforced by a version counter), which is exactly what schedulers need
to speculatively evaluate a move and roll it back.  ``M`` must satisfy
``fits_int64(M)`` so the add-update's ``M + 1 + M`` worst case cannot
overflow ``int64``.

Updates are **exact** in every case: additions by the outer-min identity,
bridge removals by the two-component split, other removals by the block
identity above.  A removal costs ``O(|A_v| * |boundary| * |A_u|)`` for
the block on top of ``O(|A_u | A_v| * n)`` for its rows — never wrong,
merely slower when both sides are large.

The engine is **distance-only**: agent values are read off the live
matrix through the game's :class:`repro.core.costmodel.Valuation`
(:meth:`repro.core.state.GameState.totals`), so a read inside a
speculation scope sees the speculated graph.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import networkx as nx
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (
    connected_components,
    shortest_path,
)

from repro._alpha import fits_int64
from repro._backend import bfs_rows as _bfs_rows
from repro._backend import exact_int_fill as _exact_int_fill
from repro.graphs.bridges import BridgeSet
from repro.obs import metrics as obs
from repro.obs import trace as _trace

__all__ = [
    "DistanceMatrix",
    "UndoToken",
    "adjacency_csr",
    "apsp_matrix",
    "component_labels",
    "single_source_distances",
]

#: Number of full APSP builds since import — a test/benchmark spy used to
#: assert that a dynamics trajectory pays for exactly one build.  Lives in
#: the :mod:`repro.obs` registry (thread-safe increments — engine builds
#: race across serve's connection threads), read by its series name, as
#: are the other spies.
_APSP_BUILDS = obs.counter(
    "repro_engine_apsp_builds_total", "full APSP matrix builds"
)

#: ``apply_remove`` calls on non-bridges (the block repair) — a spy used
#: to assert that bridge removals (forests included) take the split path
#: instead and that speculative scans never mutate the engine.  The name
#: predates the block repair; ``/metricsz``, perfbench and tests read it.
_REMOVE_BFS_REPAIRS = obs.counter(
    "repro_engine_remove_bfs_repairs_total",
    "apply_remove calls that repaired a non-bridge removal",
)

#: Matrix rows rewritten by those repairs (the rows that change) — the
#: volume companion of the call counter above.
_BFS_REPAIR_ROWS = obs.counter(
    "repro_engine_bfs_repair_rows_total",
    "distance-matrix rows rewritten by non-bridge removal repairs",
)


def _require_canonical(graph: nx.Graph) -> int:
    n = graph.number_of_nodes()
    if n == 0:
        raise ValueError("graphs must have at least one node")
    if set(graph.nodes) != set(range(n)):
        raise ValueError("graph nodes must be 0..n-1; use canonical_labels()")
    return n


def canonical_labels(graph: nx.Graph) -> nx.Graph:
    """Relabel an arbitrary graph to integer nodes ``0..n-1`` (sorted order).

    Node sorting falls back to string order for mixed-type labels so the
    mapping is deterministic.
    """
    try:
        ordered = sorted(graph.nodes)
    except TypeError:
        ordered = sorted(graph.nodes, key=str)
    mapping = {node: index for index, node in enumerate(ordered)}
    return nx.relabel_nodes(graph, mapping, copy=True)


def adjacency_csr(graph: nx.Graph) -> csr_matrix:
    """Symmetric 0/1 adjacency in CSR form for scipy's C-level BFS.

    The coordinate arrays are built in one shot from the edge array rather
    than edge-by-edge in Python.
    """
    n = _require_canonical(graph)
    m = graph.number_of_edges()
    if m == 0:
        return csr_matrix((n, n), dtype=np.int8)
    edges = np.asarray(graph.edges, dtype=np.int64)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    data = np.ones(2 * m, dtype=np.int8)
    return csr_matrix((data, (rows, cols)), shape=(n, n))


def apsp_matrix(graph: nx.Graph, unreachable: int) -> np.ndarray:
    """Dense all-pairs shortest path matrix with ``unreachable`` for no path.

    Runs one BFS per node, ``O(n * m)`` total: in pure Python over the
    adjacency dicts while the ``n * n`` matrix is within
    :data:`_PY_BFS_CELLS`, in C via scipy beyond.  Increments the
    ``repro_engine_apsp_builds_total`` spy counter.
    """
    _APSP_BUILDS.inc()
    n = _require_canonical(graph)
    with _trace.span("engine.apsp_build", n=n, m=graph.number_of_edges()):
        if graph.number_of_edges() == 0:
            dist = np.full((n, n), unreachable, dtype=np.int64)
            np.fill_diagonal(dist, 0)
            return dist
        if n * n <= _PY_BFS_CELLS:
            adj = graph._adj
            return np.stack(
                [
                    _bfs_row_py(adj, source, n, unreachable)
                    for source in range(n)
                ]
            )
        raw = shortest_path(
            adjacency_csr(graph), method="D", unweighted=True
        )
        return _exact_int_fill(raw, unreachable)


def _rows_from_csr(
    adjacency: csr_matrix, sources, unreachable: int
) -> np.ndarray:
    """BFS distance rows for several sources in one C-level scipy call
    (:func:`repro._backend.bfs_rows`)."""
    return _bfs_rows(adjacency, sources, unreachable)


#: A batch of BFS rows runs in pure Python while ``rows * n`` is at most
#: this many cells, and as one C-level call on a CSR beyond.  The C-level
#: call carries a fixed cost (masking the edge out of the CSR, scipy's
#: validation and dijkstra setup) of ~170us, about five Python rows at
#: n = 120.  Sweeping 640, 1200, 2400 cells and Python-only on the n = 120
#: BGE round (``perfbench`` ``dyn-bge-n120``, 2-core x86) put 1200 (ten
#: rows there) at the fastest, within noise of Python-only; every
#: workload at n <= 24 (exact PoA, serve) stays in Python for any batch.
#: The budget also covers full ``n x n`` builds in :func:`apsp_matrix`
#: (Python up to n = 34): on G(n, p) at average degree 3 to 12 (same
#: host) Python builds an n = 8 matrix in 40-65us against scipy's
#: 320-540us, neither arm wins at every density from n = 34 to n = 40,
#: and scipy does from n = 44.  Exactness is identical on both arms;
#: ``tests/test_cross_validation.py`` forces each one.
_PY_BFS_CELLS = 1200


def _bfs_row_py(
    adj,
    source: int,
    n: int,
    unreachable: int,
    skip_a: int = -1,
    skip_b: int = -1,
) -> np.ndarray:
    """One BFS distance row computed in pure Python.

    ``adj`` is the graph's plain adjacency dict-of-dicts
    (``graph._adj``): walking it directly avoids the view object that
    ``graph.adj`` builds for every visited node.  ``skip_a``/``skip_b``
    mask one edge out of the traversal, so pure removal *queries* can run
    on the live adjacency without ever mutating the graph.
    """
    dist = [-1] * n
    dist[source] = 0
    queue = [source]
    for node in queue:  # appending while iterating makes it a FIFO queue
        step = dist[node] + 1
        for neighbor in adj[node]:
            if dist[neighbor] < 0:
                if neighbor == skip_b and node == skip_a:
                    continue
                if neighbor == skip_a and node == skip_b:
                    continue
                dist[neighbor] = step
                queue.append(neighbor)
    row = np.array(dist, dtype=np.int64)
    if len(queue) < n:
        row[row < 0] = unreachable
    return row


def single_source_distances(
    graph: nx.Graph, source: int, unreachable: int
) -> np.ndarray:
    """BFS distances from ``source`` as an int64 vector (no Python loop)."""
    n = _require_canonical(graph)
    if graph.degree(source) == 0:
        dist = np.full(n, unreachable, dtype=np.int64)
        dist[source] = 0
        return dist
    return _rows_from_csr(adjacency_csr(graph), source, unreachable)


def component_labels(graph: nx.Graph) -> np.ndarray:
    """Connected component index per node."""
    _require_canonical(graph)
    if graph.number_of_edges() == 0:
        return np.arange(graph.number_of_nodes(), dtype=np.int64)
    _, labels = connected_components(adjacency_csr(graph), directed=False)
    return labels.astype(np.int64)


@dataclass(frozen=True)
class _RowPatch:
    """Old values of a set of matrix rows (columns follow by symmetry)."""

    rows: np.ndarray
    old: np.ndarray


@dataclass(frozen=True)
class UndoToken:
    """Everything needed to roll one ``apply_*`` mutation back.

    Tokens are LIFO: :meth:`DistanceMatrix.undo` checks the engine's version
    counter and refuses out-of-order undos.
    """

    patches: tuple[_RowPatch, ...]
    inverse_ops: tuple[tuple[str, int, int], ...]
    csr_before: csr_matrix | None
    version_before: int
    version_after: int
    bridge_deltas: tuple = ()


class DistanceMatrix:
    """Cached APSP for one graph, with exact in-place one-edge updates.

    This is the workhorse behind all polynomial equilibrium checkers and the
    dynamics engine.  The matrix is computed once; after that

    * :meth:`apply_add` updates the whole matrix with a vectorised outer
      minimum (exact, no search);
    * :meth:`apply_remove` takes the two-component split whenever the
      edge is a bridge of the current graph — forests being the special
      case where every edge qualifies — and otherwise rewrites only the
      changed rows from a min-plus block of cached entries (exact and
      search-free in both cases);
    * :meth:`apply_swap` composes the two;
    * :meth:`undo` rolls any of them back bit-exactly (LIFO order).

    Speculative *queries* that never touch the matrix are also provided:
    ``matrix_after_remove`` (from the matrix alone)
    and ``rows_after_remove_from`` (the same patch, or BFS with the edge
    masked out of the traversal for the rows of ``u`` and ``v`` alone).
    They answer distances only; what a move is worth to an agent is read
    through the game's valuation (:func:`repro.equilibria.add.add_gain`,
    :func:`repro.equilibria.remove.removal_loss`, :mod:`repro.core.batch`).

    ``unreachable`` must be at least ``n`` (so it exceeds every real
    distance) and satisfy ``fits_int64`` (headroom for ``2M + 1`` in the
    add update).
    """

    def __init__(self, graph: nx.Graph, unreachable: int):
        self.n = _require_canonical(graph)
        self.unreachable = int(unreachable)
        if self.unreachable < self.n:
            raise ValueError(
                "unreachable sentinel must be >= n to exceed real distances"
            )
        if not fits_int64(self.unreachable):
            raise ValueError(
                "unreachable sentinel too large for exact int64 arithmetic"
            )
        self._graph = graph
        self._csr: csr_matrix | None = None
        self._version = 0
        # the exact bridge set powers the search-free split removal path on
        # any graph; built once here (chain decomposition), then maintained
        # in O(affected) through apply_* / undo — see repro.graphs.bridges
        self._bridges = BridgeSet(graph._adj, range(self.n))
        self.matrix = apsp_matrix(graph, self.unreachable)

    # -- plain queries ------------------------------------------------------

    def dist(self, u: int, v: int) -> int:
        return int(self.matrix[u, v])

    def row(self, u: int) -> np.ndarray:
        return self.matrix[u]

    def eccentricity(self, u: int) -> int:
        return int(self.matrix[u].max())

    @property
    def is_forest(self) -> bool:
        """Whether the current graph is acyclic (derived from the bridges).

        A graph is a forest iff every edge is a bridge, and the bridge set
        is maintained exactly through every mutation — so unlike the old
        one-way acyclicity flag this also recovers when deletions make a
        cyclic graph acyclic again.  Powers the searchers' fully
        query-based fold evaluation on forest instances.
        """
        return len(self._bridges) == self._graph.number_of_edges()

    def is_bridge(self, u: int, v: int) -> bool:
        """Whether edge ``uv`` is a bridge (O(1) off the maintained set).

        Bridge removals take the search-free split path in
        :meth:`apply_remove` and in every speculative removal query; when
        every demand is positive they can also never be improving moves
        under a sum, or under a max on a connected graph (disconnection
        costs at least ``M - n > alpha``), so the removal scan skips them
        without any BFS.
        """
        return self._bridges.is_bridge(u, v)

    def bridges(self) -> frozenset:
        """The current bridge set as canonical ``(min, max)`` pairs."""
        return self._bridges.as_frozenset()

    def diameter(self) -> int:
        return int(self.matrix.max())

    # -- speculative queries (matrix untouched) -----------------------------

    def _bridge_sides(self, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Side masks of bridge ``uv``'s cut, read off the cached matrix.

        ``x`` is on ``u``'s side iff ``d(x, u) < d(x, v)`` (every path
        between the sides crossed the bridge, so ties occur only for
        nodes of other components, which end up on neither side).
        """
        return self.matrix[u] < self.matrix[v], self.matrix[v] < self.matrix[u]

    def _only_via(self, u: int, v: int) -> np.ndarray:
        """Mask of ``A_u`` for a non-bridge ``uv``: the nodes ``y`` whose
        every shortest ``u``-``y`` path starts with ``uv``, read off the
        cached matrix as ``d(v, y) = d(u, y) - 1`` with no other
        neighbour of ``u`` as close to ``y`` as ``v``.  Exactly the nodes
        whose distance to ``u`` grows when ``uv`` is removed."""
        matrix = self.matrix
        row = matrix[u]
        nearest = functools.reduce(
            np.minimum,
            (matrix[node] for node in self._graph._adj[u] if node != v),
        )
        return (matrix[v] == row - 1) & (nearest >= row)

    def _removal_rows(self, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows that cover every entry the removal of ``uv`` changes,
        and their values in ``G - uv``: ``(rows, new)``.

        Written as rows *and* columns (the matrix is symmetric), the
        patch rewrites every changed entry.  For a bridge, ``rows`` is the
        smaller side of the cut and its far-side entries become the
        sentinel.  For any other edge, ``rows`` is ``A_u | A_v``
        (:meth:`_only_via`), exactly the rows that change, and only their
        ``A_v x A_u`` block is new: ``d'(s, y) = min d(s, t) + d(t, y)``
        over the nodes ``t`` outside both sides adjacent to the smaller
        one, a min-plus product of cached entries.  It is exact (module
        docstring) because a changed pair ``(s, y)`` has every shortest
        path through ``uv``, putting ``s`` in ``A_v`` and ``y`` in
        ``A_u``; because an edge ``pq != uv`` from ``A_v`` to ``A_u``
        would give a shortest ``u``-``q`` path avoiding ``v``, so none
        exists; and because a shortest ``s``-``y`` path in ``G - uv``
        therefore leaves ``A_v`` (and enters ``A_u``) through such a
        ``t``, while pairs with an endpoint outside ``A_u | A_v``, or with
        both endpoints on one side, keep their distance.  The product
        runs in chunks of at most ``n * n`` cells.  No search; neither the
        graph nor the matrix is touched.
        """
        matrix = self.matrix
        if self._bridges.is_bridge(u, v):
            side, far_side = self._bridge_sides(u, v)
            if np.count_nonzero(side) > np.count_nonzero(far_side):
                side, far_side = far_side, side
            rows = np.flatnonzero(side)
            new = matrix[rows]  # fancy index: a copy
            new[:, far_side] = self.unreachable
            return rows, new
        near = np.flatnonzero(self._only_via(v, u))  # A_v, around u
        far = np.flatnonzero(self._only_via(u, v))  # A_u, around v
        rows = np.concatenate((near, far))
        small = near if near.size <= far.size else far
        border = (matrix[small] == 1).any(axis=0)
        border[rows] = False
        via = np.flatnonzero(border)
        left = matrix[near[:, None], via]
        right = matrix[via[:, None], far]
        block = np.full((near.size, far.size), self.unreachable, np.int64)
        step = self.n * self.n // block.size
        for start in range(0, via.size, step):
            stop = start + step
            paths = left[:, start:stop, None] + right[None, start:stop]
            np.minimum(block, paths.min(axis=1), out=block)
        new = matrix[rows]
        new[: near.size, far] = block
        new[near.size :, near] = block.T
        return rows, new

    def rows_after_remove_from(
        self, u: int, v: int, sources
    ) -> np.ndarray:
        """Distance rows of ``sources`` in ``G - uv`` (no mutation).

        Bridges are search-free: each source keeps its side of the cut
        and loses the far side to the sentinel, all read off the cached
        matrix (sources in other components are unaffected).  On a
        non-bridge, a request for the rows of ``u`` and ``v`` alone runs
        one or two BFS with the edge masked out of the traversal; any
        other request takes the cached rows with the columns of the
        changed rows of :meth:`_removal_rows` patched in, with no search
        at all.  Neither the matrix nor the graph is touched.
        """
        if not self._graph.has_edge(u, v):
            raise ValueError(f"edge {u}-{v} not in graph")
        sources = [int(source) for source in sources]
        if self._bridges.is_bridge(u, v):
            side_u, side_v = self._bridge_sides(u, v)
            out = self.matrix[sources]  # fancy index: a copy
            out[
                np.outer(side_u[sources], side_v)
                | np.outer(side_v[sources], side_u)
            ] = self.unreachable
            return out
        if all(source == u or source == v for source in sources):
            return self._bfs_without(u, v, sources)
        # every changed entry lies in a patched column, by symmetry
        rows, new = self._removal_rows(u, v)
        out = self.matrix[sources]
        out[:, rows] = new[:, sources].T
        return out

    def _bfs_without(self, u: int, v: int, sources) -> np.ndarray:
        """BFS rows of ``sources`` in ``G - uv``, the edge masked out of
        the traversal (the graph is untouched): pure Python over the
        adjacency dicts up to :data:`_PY_BFS_CELLS` cells, one C-level
        call on a masked copy of the CSR beyond."""
        if len(sources) * self.n <= _PY_BFS_CELLS:
            adj = self._graph._adj
            return np.stack(
                [
                    _bfs_row_py(adj, source, self.n, self.unreachable, u, v)
                    for source in sources
                ]
            )
        return _rows_from_csr(
            self._csr_without(u, v), sources, self.unreachable
        )

    def matrix_after_remove(self, u: int, v: int) -> np.ndarray:
        """Full APSP matrix of ``G - uv`` as a fresh array: the cached
        matrix with the patch of :meth:`_removal_rows` written as rows and
        columns — no search, no mutation.  The swap scan prices every
        partner of a dropped edge against it without touching the
        engine."""
        if not self._graph.has_edge(u, v):
            raise ValueError(f"edge {u}-{v} not in graph")
        rows, new = self._removal_rows(u, v)
        removed = self.matrix.copy()
        removed[rows] = new
        removed[:, rows] = new.T
        return removed

    # -- cached CSR adjacency ----------------------------------------------

    @property
    def csr(self) -> csr_matrix:
        """CSR adjacency of the current graph (cached across queries)."""
        if self._csr is None:
            self._csr = adjacency_csr(self._graph)
        return self._csr

    def _edge_csr(self, u: int, v: int) -> csr_matrix:
        data = np.ones(2, dtype=np.int8)
        return csr_matrix(
            (data, ([u, v], [v, u])), shape=(self.n, self.n)
        )

    def _csr_without(self, u: int, v: int) -> csr_matrix:
        masked = self.csr - self._edge_csr(u, v)
        masked.eliminate_zeros()
        return masked

    # -- in-place updates ---------------------------------------------------

    def rebind(self, graph: nx.Graph) -> None:
        """Transfer the engine onto an equal copy of its graph.

        Used by :meth:`repro.core.state.GameState.apply` to hand the matrix
        to a successor state that owns a fresh graph copy, so in-place
        updates never mutate the predecessor's graph.
        """
        if (
            graph.number_of_nodes() != self.n
            or graph.number_of_edges() != self._graph.number_of_edges()
        ):
            raise ValueError("rebind target must be an equal copy")
        self._graph = graph

    def apply_add(self, u: int, v: int) -> UndoToken:
        """Add edge ``uv`` and update the whole matrix in place (exact).

        ``d'(x, y) = min(d(x, y), d(x, u) + 1 + d(v, y),
        d(x, v) + 1 + d(u, y))``; disconnected legs carry the ``M``
        sentinel, making every through-candidate exceed ``M``, so sentinel
        entries survive exactly.  Returns an undo token.
        """
        if u == v:
            raise ValueError("self-loops are not valid edges")
        if self._graph.has_edge(u, v):
            raise ValueError(f"edge {u}-{v} already exists")
        matrix = self.matrix
        # the bridge update needs the pre-add matrix: dying bridges are
        # found by a side test against the old distances
        bridge_delta = self._bridges.note_add(u, v, matrix, self.unreachable)
        via = matrix[u][:, None] + (matrix[v][None, :] + 1)
        candidate = np.minimum(via, via.T)
        changed_rows = np.flatnonzero((candidate < matrix).any(axis=1))
        patches = ()
        if changed_rows.size:
            patches = (
                _RowPatch(rows=changed_rows, old=matrix[changed_rows].copy()),
            )
            np.minimum(matrix, candidate, out=matrix)
        # invalidate rather than patch the CSR: speculative add/undo cycles
        # never pay for sparse arithmetic, and the token restores the cache
        csr_before = self._csr
        self._csr = None
        self._graph.add_edge(u, v)
        return self._finish(
            patches, (("remove", u, v),), csr_before, (bridge_delta,)
        )

    def apply_remove(self, u: int, v: int) -> UndoToken:
        """Remove edge ``uv`` and repair the matrix in place (exact).

        Writes the patch of :meth:`_removal_rows` as rows and columns,
        with no search: for a **bridge** (every forest edge is one) the
        smaller side of the cut, whose cross pairs become
        ``unreachable``; for any other edge the rows that change,
        ``A_u | A_v``, with their repaired ``A_v x A_u`` block
        (spy-counted by ``repro_engine_remove_bfs_repairs_total``).
        Returns an undo token.
        """
        if not self._graph.has_edge(u, v):
            raise ValueError(f"edge {u}-{v} not in graph")
        rows, new = self._removal_rows(u, v)
        if not self._bridges.is_bridge(u, v):
            _REMOVE_BFS_REPAIRS.inc()
            _BFS_REPAIR_ROWS.inc(int(rows.size))
        matrix = self.matrix
        patches = (_RowPatch(rows=rows, old=matrix[rows]),)
        matrix[rows] = new
        matrix[:, rows] = new.T
        csr_before = self._csr
        self._graph.remove_edge(u, v)
        self._csr = None
        # a non-bridge removal can only promote edges of this component to
        # bridges; one local sweep re-derives them (post-removal adjacency)
        bridge_delta = self._bridges.note_remove(u, v, self._graph._adj)
        return self._finish(
            patches, (("add", u, v),), csr_before, (bridge_delta,)
        )

    def apply_swap(self, actor: int, old: int, new: int) -> UndoToken:
        """Replace edge ``actor-old`` by ``actor-new`` (one undo token)."""
        removal = self.apply_remove(actor, old)
        try:
            addition = self.apply_add(actor, new)
        except Exception:
            self.undo(removal)
            raise
        return UndoToken(
            patches=removal.patches + addition.patches,
            inverse_ops=addition.inverse_ops + removal.inverse_ops,
            csr_before=removal.csr_before,
            version_before=removal.version_before,
            version_after=addition.version_after,
            bridge_deltas=removal.bridge_deltas + addition.bridge_deltas,
        )

    def _finish(
        self, patches, inverse_ops, csr_before, bridge_deltas
    ) -> UndoToken:
        token = UndoToken(
            patches=tuple(patches),
            inverse_ops=tuple(inverse_ops),
            csr_before=csr_before,
            version_before=self._version,
            version_after=self._version + 1,
            bridge_deltas=tuple(bridge_deltas),
        )
        self._version += 1
        return token

    def undo(self, token: UndoToken) -> None:
        """Roll back one ``apply_*`` token (strictly LIFO)."""
        if token.version_after != self._version:
            raise RuntimeError(
                "undo tokens must be applied in LIFO order "
                f"(engine at version {self._version}, "
                f"token for {token.version_after})"
            )
        for patch in reversed(token.patches):
            self.matrix[patch.rows, :] = patch.old
            self.matrix[:, patch.rows] = patch.old.T
        for op, u, v in token.inverse_ops:
            if op == "add":
                self._graph.add_edge(u, v)
            else:
                self._graph.remove_edge(u, v)
        for delta in reversed(token.bridge_deltas):
            self._bridges.revert(delta)
        self._csr = token.csr_before
        self._version = token.version_before
