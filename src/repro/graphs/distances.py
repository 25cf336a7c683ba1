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
* removing edge ``uv``: only pairs whose *every* shortest path crossed ``uv``
  can change, and any such pair has an endpoint whose distance to ``u`` or
  ``v`` changed.  Two probe BFS runs from ``u`` and ``v`` in ``G - uv``
  therefore find the **affected rows**, and only those are re-run; every
  other row is copied from the cached matrix.  The in-place repair
  (``apply_remove``) and the speculative row queries
  (``rows_after_remove_from``) share this probe -> mask -> BFS sequence.
  Small batches run as pure-Python BFS over the graph's adjacency dicts
  (a C-level call carries ~170us of fixed overhead, see
  :data:`_PY_BFS_CELLS`); larger ones batch into a single C-level call.
  When ``uv`` is a **bridge** — on *any* graph, forests being the
  special case where every edge qualifies — the BFS-repair path is never
  entered: the component splits into the two sides of the bridge cut,
  read off the cached matrix (``d(x, u)`` vs ``d(x, v)``), every cross
  pair jumps to the sentinel and every within-side distance is unchanged
  (a simple shortest path cannot cross the cut twice) — exact answers
  with no search at all.

**The bridge contract.**  The engine owns an incrementally maintained
:class:`~repro.graphs.bridges.BridgeSet`: one chain-decomposition build
at materialisation (spy-counted by
:data:`repro.graphs.bridges.BRIDGE_REBUILDS`), then O(affected) updates
ride along every ``apply_add`` / ``apply_remove`` / ``undo`` — a
vectorised side test kills the bridges a new cycle absorbs, a bridge
removal deletes only itself, and only a *non-bridge* removal pays a
component-local sweep (already dominated by that removal's BFS repair).
Consequently removals dispatch exactly: bridge removals (and the
speculative queries ``rows_after_remove`` / ``row_after_remove`` /
``remove_loss_pair`` on bridges) are search-free matrix reads, while
non-bridge removals BFS-repair the affected rows, spy-counted by
:data:`REMOVE_BFS_REPAIRS`.  ``is_forest`` is derived as
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
forest removals by the two-component formula, general removals by fresh BFS
over the affected rows.  The only cost difference is that a general removal
whose affected set is large degrades towards a full rebuild — it is never
wrong, just slower.

Per-row distance totals (``totals()`` / ``total(u)``) are maintained
**incrementally** alongside the matrix: the first query pays one full
``O(n^2)`` row-sum (counted by the :data:`TOTALS_REBUILDS` spy), after which
every ``apply_*`` and ``undo`` shifts the affected entries from the same row
patches it already records — ``O(|affected| * n)`` per mutation, never a
full re-sum.  Because the matrix is symmetric and every changed entry has an
endpoint among the patched rows, the shift

    ``totals += delta.sum(axis=0)``
    ``totals[rows] += delta.sum(axis=1) - delta[:, rows].sum(axis=1)``

(with ``delta`` the patched rows' new-minus-old values) is exact.

When a **traffic matrix** is bound (:meth:`DistanceMatrix.bind_traffic`),
the per-row *weighted* totals ``wtotals()`` — ``sum_v W[u, v] * d(u, v)``
for an int64 demand matrix ``W`` — are maintained by the same discipline:
one full weighted row-sum at first query (counted by the
:data:`WTOTALS_REBUILDS` spy), then every ``apply_*`` / ``undo`` shifts
the cached vector from the very same row patches.  The shift generalises
the uniform one entry-wise (``d`` is symmetric, ``W`` need not be):
column ``y`` gains ``sum_{x in rows} W[y, x] * delta[x, y]`` and patched
row ``x`` additionally gains its own weighted row delta minus the
doubly-counted patched-column part — ``O(|affected| * n)`` per mutation,
never a full re-sum.

When a **cost model** is bound (:meth:`DistanceMatrix.bind_cost_model`),
the per-row *model aggregates* ``ftotals()`` ride the very same row
patches.  For a sum aggregate ``sum_v W[u, v] * f(d(u, v))`` the shift is
the weighted shift applied to the entry-wise **value delta**
``f(new) - f(old)`` instead of the distance delta (``f`` of a symmetric
matrix is symmetric, so the same endpoint argument holds).  For a max
aggregate ``max_v W[u, v] * f(d(u, v))`` the engine maintains each row's
max *with its multiplicity*: a patched entry above the cached max raises
it outright, one at the max bumps the count, and only a row whose
count-at-max drains to zero pays a fresh ``O(n)`` row scan — still
incremental maintenance, not a rebuild.  Either way the first query pays
one full ``O(n^2)`` pass (spy-counted by :data:`FTOTALS_REBUILDS`), then
zero along move trajectories.  Sentinel entries are exact here too: real
distances are at most ``n - 1`` and the sentinel is at least ``n``, so
``d >= n`` identifies unreachable pairs and maps them to the model's own
value sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import networkx as nx
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (
    connected_components,
    shortest_path,
)

from repro import _backend
from repro._alpha import fits_int64
from repro._backend import exact_int_fill as _exact_int_fill
from repro.graphs.bridges import BridgeSet
from repro.obs import metrics as obs
from repro.obs import trace as _trace

__all__ = [
    "DistanceMatrix",
    "UndoToken",
    "adjacency_bool",
    "adjacency_csr",
    "apsp_build_count",
    "apsp_matrix",
    "added_edge_dist_gain",
    "component_labels",
    "dist_vector_after_add",
    "ftotals_rebuild_count",
    "is_connected",
    "remove_bfs_repair_count",
    "removed_edge_dist_vector",
    "single_source_distances",
    "total_distances",
    "totals_rebuild_count",
    "weighted_added_edge_dist_gain",
    "wtotals_rebuild_count",
]

#: Number of full APSP builds since import — a test/benchmark spy used to
#: assert that a dynamics trajectory pays for exactly one build.  Lives in
#: the :mod:`repro.obs` registry (thread-safe increments — engine builds
#: race under the serve thread pool); ``distances.APSP_BUILDS`` remains a
#: read-only alias via module ``__getattr__``, as do the other spies.
_APSP_BUILDS = obs.counter(
    "repro_engine_apsp_builds_total", "full APSP matrix builds"
)

#: Full O(n^2) row-sum rebuilds of the per-row totals — a spy used to
#: assert that totals are maintained incrementally along move
#: trajectories (one rebuild at materialisation, then zero).
_TOTALS_REBUILDS = obs.counter(
    "repro_engine_totals_rebuilds_total", "full totals row-sum rebuilds"
)

#: Full O(n^2) weighted row-sum rebuilds — the traffic-model counterpart:
#: one rebuild at first ``wtotals()`` query per engine, zero along move
#: trajectories.
_WTOTALS_REBUILDS = obs.counter(
    "repro_engine_wtotals_rebuilds_total",
    "full weighted-totals row-sum rebuilds",
)

#: Full O(n^2) model-value passes rebuilding the per-row cost aggregates —
#: the cost-model counterpart: one rebuild at first ``ftotals()`` query per
#: engine, zero along move trajectories (max-row rescans triggered by a
#: drained count are incremental maintenance and do not count).
_FTOTALS_REBUILDS = obs.counter(
    "repro_engine_ftotals_rebuilds_total", "full model-aggregate rebuilds"
)

#: ``apply_remove`` calls that entered the BFS-repair path — a spy used to
#: assert that bridge removals (forests included) always take the
#: search-free split path instead.
_REMOVE_BFS_REPAIRS = obs.counter(
    "repro_engine_remove_bfs_repairs_total",
    "apply_remove calls that entered the BFS-repair path",
)

#: Matrix rows actually recomputed by BFS repair — the volume companion of
#: the call counter above: how much repair work non-bridge removals cost.
_BFS_REPAIR_ROWS = obs.counter(
    "repro_engine_bfs_repair_rows_total",
    "distance-matrix rows recomputed by the BFS-repair path",
)

#: legacy module-global spy name -> registry counter (read-only aliases)
_SPY_ALIASES = {
    "APSP_BUILDS": _APSP_BUILDS,
    "TOTALS_REBUILDS": _TOTALS_REBUILDS,
    "WTOTALS_REBUILDS": _WTOTALS_REBUILDS,
    "FTOTALS_REBUILDS": _FTOTALS_REBUILDS,
    "REMOVE_BFS_REPAIRS": _REMOVE_BFS_REPAIRS,
}


def __getattr__(name: str) -> int:
    counter = _SPY_ALIASES.get(name)
    if counter is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    return counter.value


def apsp_build_count() -> int:
    """How many full APSP matrices have been built since import."""
    return _APSP_BUILDS.value


def totals_rebuild_count() -> int:
    """How many full totals re-sums have been performed since import."""
    return _TOTALS_REBUILDS.value


def wtotals_rebuild_count() -> int:
    """How many full weighted-totals re-sums have been performed."""
    return _WTOTALS_REBUILDS.value


def ftotals_rebuild_count() -> int:
    """How many full model-aggregate rebuilds have been performed."""
    return _FTOTALS_REBUILDS.value


def remove_bfs_repair_count() -> int:
    """How many removals have entered the BFS-repair path since import."""
    return _REMOVE_BFS_REPAIRS.value


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


def adjacency_bool(graph: nx.Graph) -> np.ndarray:
    """Dense boolean adjacency matrix (shared by the swap searchers)."""
    n = _require_canonical(graph)
    dense = np.zeros((n, n), dtype=bool)
    if graph.number_of_edges():
        edges = np.asarray(graph.edges, dtype=np.int64)
        dense[edges[:, 0], edges[:, 1]] = True
        dense[edges[:, 1], edges[:, 0]] = True
    return dense


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

    Runs one BFS per node in C via scipy; ``O(n * m)`` total.  Increments
    the module's :data:`APSP_BUILDS` spy counter.
    """
    _APSP_BUILDS.inc()
    n = _require_canonical(graph)
    with _trace.span("engine.apsp_build", n=n, m=graph.number_of_edges()):
        if graph.number_of_edges() == 0:
            dist = np.full((n, n), unreachable, dtype=np.int64)
            np.fill_diagonal(dist, 0)
            return dist
        raw = shortest_path(
            adjacency_csr(graph), method="D", unweighted=True
        )
        return _exact_int_fill(raw, unreachable)


def _rows_from_csr(
    adjacency: csr_matrix, sources, unreachable: int
) -> np.ndarray:
    """BFS distance rows for several sources in one batched call.

    Dispatches to the active numerical backend
    (:func:`repro._backend.active`): scipy's C-level dijkstra on the
    numpy arm, an ``@njit`` CSR BFS on the numba arm — bit-identical by
    the backend exactness contract.
    """
    return _backend.active().bfs_rows(adjacency, sources, unreachable)


#: A batch of BFS rows runs in pure Python while ``rows * n`` is at most
#: this many cells, and as one C-level call on a CSR beyond.  The C-level
#: call carries a fixed cost (masking the edge out of the CSR, scipy's
#: validation and dijkstra setup) of ~170us, about five Python rows at
#: n = 120.  Sweeping 640, 1200, 2400 cells and Python-only on the n = 120
#: BGE round (``perfbench`` ``dyn-bge-n120``, 2-core x86) put 1200 (ten
#: rows there) at the fastest, within noise of Python-only; every
#: workload at n <= 24 (exact PoA, serve) stays in Python for any batch.
#: Exactness is identical on both arms; ``tests/test_cross_validation.py``
#: forces each one.
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


def is_connected(graph: nx.Graph) -> bool:
    """Connectivity via one BFS (works on canonical graphs of any size)."""
    return nx.is_connected(graph)


def component_labels(graph: nx.Graph) -> np.ndarray:
    """Connected component index per node."""
    _require_canonical(graph)
    if graph.number_of_edges() == 0:
        return np.arange(graph.number_of_nodes(), dtype=np.int64)
    _, labels = connected_components(adjacency_csr(graph), directed=False)
    return labels.astype(np.int64)


def total_distances(dist: np.ndarray) -> np.ndarray:
    """Per-node total distance cost ``dist(u) = sum_v d(u, v)``.

    Safe in int64: ``GameState`` guarantees ``n * M`` fits (see
    :func:`repro._alpha.big_m` and :func:`repro._alpha.fits_int64`).
    """
    return dist.sum(axis=1)


def dist_vector_after_add(dist: np.ndarray, u: int, v: int) -> np.ndarray:
    """Distances from ``u`` after adding edge ``uv``: ``min(d_u, 1 + d_v)``."""
    return np.minimum(dist[u], 1 + dist[v])


def added_edge_dist_gain(dist: np.ndarray, u: int, v: int) -> int:
    """Strict decrease of ``dist(u)`` caused by adding edge ``uv``.

    Always non-negative.  The symmetric gain for ``v`` is obtained by
    swapping the arguments.
    """
    improvement = dist[u] - (1 + dist[v])
    return int(improvement[improvement > 0].sum())


def weighted_added_edge_dist_gain(
    dist: np.ndarray, weights_row: np.ndarray, u: int, v: int
) -> int:
    """Demand-weighted decrease of ``dist(u)`` when edge ``uv`` is added.

    ``weights_row`` is agent ``u``'s demand row; the single definition
    shared by the BAE checker and the speculative kernel so the two can
    never disagree on a weighted gain.
    """
    improvement = np.maximum(dist[u] - (1 + dist[v]), 0)
    return int((weights_row * improvement).sum())


def removed_edge_dist_vector(
    graph: nx.Graph, u: int, v: int, unreachable: int
) -> np.ndarray:
    """Distances from ``u`` after removing edge ``uv`` (one fresh BFS).

    The graph is restored before returning.
    """
    if not graph.has_edge(u, v):
        raise ValueError(f"edge {u}-{v} not in graph")
    graph.remove_edge(u, v)
    try:
        return single_source_distances(graph, u, unreachable)
    finally:
        graph.add_edge(u, v)


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
      case where every edge qualifies — and otherwise repairs only the
      affected rows with batched BFS (exact in both cases, search-free
      in the first);
    * :meth:`apply_swap` composes the two;
    * :meth:`undo` rolls any of them back bit-exactly (LIFO order);
    * per-row ``totals()`` are maintained incrementally through all of the
      above (one full row-sum at first query, shifts afterwards).

    Speculative *queries* that never touch the matrix are also provided:
    ``row_after_add`` (from the matrix alone) and
    ``rows_after_remove_from`` (the bridge split, or BFS with the edge
    masked out of the traversal for the affected sources only).

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
        self._totals: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._wtotals: np.ndarray | None = None
        self._fbind = None
        self._ftotals: np.ndarray | None = None
        self._fcounts: np.ndarray | None = None
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

    def total(self, u: int) -> int:
        """``sum_v d(u, v)`` from the incrementally maintained totals."""
        return int(self._totals_live()[u])

    def totals(self) -> np.ndarray:
        """Per-node totals as a *snapshot copy* (safe across ``apply_*``).

        The first call pays one full row-sum; every later call is an
        ``O(n)`` copy because ``apply_*`` / ``undo`` shift the cached
        vector in place instead of re-summing the matrix.
        """
        return self._totals_live().copy()

    def _totals_live(self) -> np.ndarray:
        if self._totals is None:
            _TOTALS_REBUILDS.inc()
            self._totals = self.matrix.sum(axis=1)
        return self._totals

    # -- weighted totals (heterogeneous traffic) ----------------------------

    def bind_traffic(self, weights: np.ndarray) -> None:
        """Attach an int64 per-pair demand matrix ``W`` to the engine.

        Enables the incrementally maintained weighted totals
        ``wtotals()[u] = sum_v W[u, v] * d(u, v)``.  The caller (normally
        :class:`repro.core.state.GameState`) is responsible for the
        overflow headroom check ``fits_int64(unreachable * max_row_mass)``;
        a cheap guard here re-asserts it.  Re-binding the same array is a
        no-op; binding a different demand matrix drops the cached vector.
        """
        weights = np.asarray(weights)
        if weights.shape != (self.n, self.n):
            raise ValueError(
                f"demand matrix shape {weights.shape} does not match n={self.n}"
            )
        if weights.dtype != np.int64:
            raise ValueError("demand matrix must be int64 (exact arithmetic)")
        if self._weights is weights:
            return
        if not fits_int64(self.unreachable * int(weights.sum(axis=1).max())):
            raise ValueError(
                "demand mass too large for exact int64 weighted totals"
            )
        self._weights = weights
        self._wtotals = None

    def wtotal(self, u: int) -> int:
        """``sum_v W[u, v] * d(u, v)`` from the maintained weighted totals."""
        return int(self._wtotals_live()[u])

    def wtotals(self) -> np.ndarray:
        """Per-node weighted totals as a snapshot copy.

        Requires a bound traffic matrix (:meth:`bind_traffic`).  The
        first call pays one full weighted row-sum (spy-counted by
        :data:`WTOTALS_REBUILDS`); afterwards ``apply_*`` / ``undo``
        shift the cached vector in place.
        """
        return self._wtotals_live().copy()

    def _wtotals_live(self) -> np.ndarray:
        if self._weights is None:
            raise RuntimeError(
                "no traffic matrix bound; call bind_traffic() first"
            )
        if self._wtotals is None:
            _WTOTALS_REBUILDS.inc()
            self._wtotals = (self.matrix * self._weights).sum(axis=1)
        return self._wtotals

    # -- model aggregates (pluggable distance-cost models) ------------------

    def bind_cost_model(self, ops) -> None:
        """Attach model-value arithmetic to the engine.

        ``ops`` is duck-typed (the engine must not import ``repro.core``):
        it needs ``.n``, ``.aggregate`` (``"sum"`` or ``"max"``),
        ``.weights`` (``None`` or an int64 ``(n, n)`` demand matrix) and
        ``.apply_f(dist) -> values`` mapping a distance array through the
        model's table (sentinel distances ``>= n`` to the model's value
        sentinel).  Enables the incrementally maintained per-row
        aggregates :meth:`ftotals`.  The caller (normally
        :class:`repro.core.state.GameState`) is responsible for value-
        space overflow headroom.  Re-binding the same object is a no-op;
        binding a different one drops the cached vectors.
        """
        if getattr(ops, "n", None) != self.n:
            raise ValueError("cost model ops size does not match the engine")
        if getattr(ops, "aggregate", None) not in ("sum", "max"):
            raise ValueError("cost model ops must aggregate by sum or max")
        if self._fbind is ops:
            return
        self._fbind = ops
        self._ftotals = None
        self._fcounts = None

    def ftotal(self, u: int) -> int:
        """Agent ``u``'s model aggregate from the maintained vector."""
        return int(self._ftotals_live()[u])

    def ftotals(self) -> np.ndarray:
        """Per-node model aggregates as a snapshot copy.

        Requires a bound cost model (:meth:`bind_cost_model`).  The first
        call pays one full model-value pass (spy-counted by
        :data:`FTOTALS_REBUILDS`); afterwards ``apply_*`` / ``undo``
        shift the cached vector in place from the same row patches that
        maintain ``totals()`` / ``wtotals()``.
        """
        return self._ftotals_live().copy()

    def fmax_counts(self) -> np.ndarray:
        """Per-row multiplicity of the max value (max aggregates only).

        A test accessor: cross-validation asserts the maintained counts
        match a naive recount at every trajectory step.
        """
        if self._fcounts is None:
            raise RuntimeError("no max-aggregate cost model materialised")
        return self._fcounts.copy()

    def _fvalues(self, dist: np.ndarray) -> np.ndarray:
        """Model values of a distance array under the bound ops (weighted
        entry-wise by the demand matrix when one is attached)."""
        ops = self._fbind
        values = ops.apply_f(dist)
        if ops.weights is not None:
            values = values * ops.weights
        return values

    def _ftotals_live(self) -> np.ndarray:
        if self._fbind is None:
            raise RuntimeError(
                "no cost model bound; call bind_cost_model() first"
            )
        if self._ftotals is None:
            _FTOTALS_REBUILDS.inc()
            values = self._fvalues(self.matrix)
            if self._fbind.aggregate == "max":
                self._ftotals = values.max(axis=1)
                self._fcounts = (values == self._ftotals[:, None]).sum(axis=1)
            else:
                self._ftotals = values.sum(axis=1)
        return self._ftotals

    def _shift_totals(self, rows: np.ndarray, old: np.ndarray) -> None:
        """Shift cached (weighted) totals by the change ``matrix[rows] - old``.

        Exact because the matrix is symmetric and every changed entry has
        at least one endpoint among ``rows`` (the patch invariant of
        ``apply_add`` / ``apply_remove``).  The weighted shift reads the
        demand entry of each changed pair from the bound traffic matrix;
        demands may be asymmetric, only distances must be symmetric.
        """
        totals = self._totals
        wtotals = self._wtotals
        ftotals = self._ftotals
        if totals is None and wtotals is None and ftotals is None:
            return
        delta = self.matrix[rows] - old
        if totals is not None:
            totals += delta.sum(axis=0)
            totals[rows] += delta.sum(axis=1) - delta[:, rows].sum(axis=1)
        if wtotals is not None:
            weights = self._weights
            # column y gains sum_{x in rows} W[y, x] * delta[x, y] ...
            wtotals += (weights[:, rows] * delta.T).sum(axis=1)
            # ... and each patched row additionally gains its own weighted
            # row delta, minus the patched-column part already counted
            wtotals[rows] += (weights[rows] * delta).sum(axis=1) - (
                weights[np.ix_(rows, rows)] * delta[:, rows]
            ).sum(axis=1)
        if ftotals is not None:
            self._shift_ftotals(rows, old)

    def _shift_ftotals(self, rows: np.ndarray, old: np.ndarray) -> None:
        """Shift the cached model aggregates for the patch ``rows``/``old``.

        The value delta ``f(new) - f(old)`` inherits the distance delta's
        symmetry and endpoint coverage, so for a **sum** aggregate the
        weighted-totals shift applies verbatim in value space.  A **max**
        aggregate instead maintains each row's max with its multiplicity:
        only entries in the patched columns changed for an unpatched row,
        so a new value above the cached max raises it (the fresh count
        reads off the patched columns alone), equal values adjust the
        count, and only a row whose count drains to zero is rescanned.
        The update is symmetric in old/new, so :meth:`undo` drives it with
        the pre-restore values as ``old`` and lands bit-exactly.
        """
        ops = self._fbind
        ftotals = self._ftotals
        fnew = ops.apply_f(self.matrix[rows])
        fold_ = ops.apply_f(old)
        if ops.aggregate != "max":
            fdelta = fnew - fold_
            if ops.weights is None:
                ftotals += fdelta.sum(axis=0)
                ftotals[rows] += fdelta.sum(axis=1) - fdelta[:, rows].sum(
                    axis=1
                )
            else:
                weights = ops.weights
                ftotals += (weights[:, rows] * fdelta.T).sum(axis=1)
                ftotals[rows] += (weights[rows] * fdelta).sum(axis=1) - (
                    weights[np.ix_(rows, rows)] * fdelta[:, rows]
                ).sum(axis=1)
            return
        fcounts = self._fcounts
        # per-row weighted values of the changed entries, column view:
        # vnew_cols[y, j] = W[y, rows[j]] * f(d'(y, rows[j]))
        if ops.weights is None:
            vnew_cols = fnew.T
            vold_cols = fold_.T
        else:
            vnew_cols = ops.weights[:, rows] * fnew.T
            vold_cols = ops.weights[:, rows] * fold_.T
        colmax = vnew_cols.max(axis=1)
        raised = colmax > ftotals
        at_max = ftotals[:, None]
        stay_counts = (
            fcounts
            - (vold_cols == at_max).sum(axis=1)
            + (vnew_cols == at_max).sum(axis=1)
        )
        rescan = ~raised & (stay_counts <= 0)
        # patched rows changed wholesale (their row is the patch itself):
        # recompute them outright rather than reasoning per-column
        rescan[rows] = True
        update = raised & ~rescan
        if update.any():
            # every unpatched entry of an updated row is <= the old max
            # < colmax, so the new max and its count live in the patched
            # columns alone
            ftotals[update] = colmax[update]
            fcounts[update] = (
                vnew_cols[update] == colmax[update, None]
            ).sum(axis=1)
        keep = ~raised & ~rescan
        fcounts[keep] = stay_counts[keep]
        if rescan.any():
            values = ops.apply_f(self.matrix[rescan])
            if ops.weights is not None:
                values = values * ops.weights[rescan]
            ftotals[rescan] = values.max(axis=1)
            fcounts[rescan] = (values == ftotals[rescan, None]).sum(axis=1)

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
        :meth:`apply_remove` and in every speculative removal query; they
        can also never be improving moves (disconnection costs at least
        ``M - n > alpha``), so generators skip them without any BFS.
        """
        return self._bridges.is_bridge(u, v)

    def bridges(self) -> frozenset:
        """The current bridge set as canonical ``(min, max)`` pairs."""
        return self._bridges.as_frozenset()

    def diameter(self) -> int:
        return int(self.matrix.max())

    # -- speculative queries (matrix untouched) -----------------------------

    def add_gain(self, u: int, v: int) -> int:
        """Distance-cost gain for ``u`` when edge ``uv`` is added."""
        return added_edge_dist_gain(self.matrix, u, v)

    def row_after_add(self, u: int, v: int) -> np.ndarray:
        return dist_vector_after_add(self.matrix, u, v)

    def _bridge_sides(self, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Side masks of bridge ``uv``'s cut, read off the cached matrix.

        ``x`` is on ``u``'s side iff ``d(x, u) < d(x, v)`` (every path
        between the sides crossed the bridge, so ties occur only for
        nodes of other components, which end up on neither side).  The
        single source of truth for :meth:`apply_remove`,
        :meth:`rows_after_remove_from` and
        :meth:`matrix_after_bridge_removal`.
        """
        return self.matrix[u] < self.matrix[v], self.matrix[v] < self.matrix[u]

    def rows_after_remove_from(
        self, u: int, v: int, sources
    ) -> np.ndarray:
        """Distance rows of ``sources`` in ``G - uv`` (no mutation).

        Bridges are search-free: each source keeps its side of the cut
        and loses the far side to the sentinel, all read off the cached
        matrix (sources in other components are unaffected).  Non-bridges
        BFS only the affected sources (:meth:`_removal_rows`) and copy
        every other row from the cached matrix; a request for ``u`` and
        ``v`` alone is answered by BFS from them directly, one or two
        rows.  Neither the matrix nor the graph is touched.
        """
        if not self._graph.has_edge(u, v):
            raise ValueError(f"edge {u}-{v} not in graph")
        sources = [int(source) for source in sources]
        matrix = self.matrix
        if self._bridges.is_bridge(u, v):
            side_u, side_v = self._bridge_sides(u, v)
            rows = np.empty((len(sources), self.n), dtype=np.int64)
            for position, source in enumerate(sources):
                to_u, to_v = matrix[source, u], matrix[source, v]
                if to_u < to_v:  # source on u's side: loses v's side
                    rows[position] = np.where(
                        side_v, self.unreachable, matrix[source]
                    )
                elif to_v < to_u:  # source on v's side: loses u's side
                    rows[position] = np.where(
                        side_u, self.unreachable, matrix[source]
                    )
                else:  # another component: removal cannot affect it
                    rows[position] = matrix[source]
            return rows
        if all(source == u or source == v for source in sources):
            return self._bfs_without(u, v, sources)
        affected, repaired = self._removal_rows(u, v, sources)
        rows = matrix[sources]  # fancy index: a copy
        slot = np.full(self.n, -1)
        slot[affected] = np.arange(affected.size)
        picks = slot[sources]
        hit = picks >= 0
        rows[hit] = repaired[picks[hit]]
        return rows

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

    def _removal_rows(
        self, u: int, v: int, sources=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Probe -> mask -> BFS for the removal of non-bridge ``uv``.

        Two probe BFS runs from ``u`` and ``v`` in ``G - uv`` mark the
        affected nodes: those whose distance to ``u`` or ``v`` grows.
        Only their rows can change.  If every shortest ``s``-``y`` path
        crossed ``uv``, say ``u`` first, then so did every shortest
        ``s``-``v`` path (one avoiding ``uv``, followed by the ``v``-``y``
        tail, would be a shortest ``s``-``y`` path avoiding it), so
        ``d(s, v)`` grows.  The affected nodes among ``sources`` (every
        node by default) are BFS-ed, except ``u`` and ``v``, whose rows
        are the probes.

        Returns ``(affected, rows)``: those sources in increasing order
        and their rows in ``G - uv``.  Neither the graph nor the matrix
        is touched.
        """
        matrix = self.matrix
        probe_u, probe_v = self._bfs_without(u, v, (u, v))
        changed = (probe_u != matrix[u]) | (probe_v != matrix[v])
        if sources is not None:
            requested = np.zeros(self.n, dtype=bool)
            requested[sources] = True
            changed &= requested
        affected = np.flatnonzero(changed)
        rest = (affected != u) & (affected != v)
        rows = np.empty((affected.size, self.n), dtype=np.int64)
        if rest.any():
            rows[rest] = self._bfs_without(u, v, affected[rest].tolist())
        rows[affected == u] = probe_u
        rows[affected == v] = probe_v
        return affected, rows

    def rows_after_remove(self, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows of ``u`` and ``v`` in ``G - uv`` (bridge read or one BFS
        from each endpoint; see :meth:`rows_after_remove_from`)."""
        rows = self.rows_after_remove_from(u, v, (u, v))
        return rows[0], rows[1]

    def row_after_remove(self, u: int, v: int) -> np.ndarray:
        """Distances from ``u`` after removing edge ``uv``."""
        return self.rows_after_remove_from(u, v, (u,))[0]

    def matrix_after_bridge_removal(self, u: int, v: int) -> np.ndarray:
        """Full APSP matrix of ``G - uv`` for a *bridge* ``uv``.

        A fresh array derived entirely from the cached matrix (cross
        pairs to the sentinel, everything else unchanged) — no search,
        no mutation.  The swap searchers use it to evaluate every
        candidate partner against a bridge removal without touching the
        engine.
        """
        if not self._bridges.is_bridge(u, v):
            raise ValueError(f"edge {u}-{v} is not a bridge")
        side_u, side_v = self._bridge_sides(u, v)
        removed = self.matrix.copy()
        cross = side_u[:, None] & side_v[None, :]
        removed[cross] = self.unreachable
        removed[cross.T] = self.unreachable
        return removed

    def remove_loss(self, u: int, v: int) -> int:
        """Distance-cost increase for ``u`` when edge ``uv`` is removed."""
        after = self.row_after_remove(u, v)
        return int((after - self.matrix[u]).sum())

    def remove_loss_pair(self, u: int, v: int) -> tuple[int, int]:
        """Distance-cost increases of both endpoints when ``uv`` is removed.

        A bridge read or one BFS per endpoint — the shared evaluation
        behind the RE checker and the removal move generator.
        """
        row_u, row_v = self.rows_after_remove(u, v)
        return (
            int((row_u - self.matrix[u]).sum()),
            int((row_v - self.matrix[v]).sum()),
        )

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
            self._shift_totals(changed_rows, patches[0].old)
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

        If ``uv`` is a **bridge** (every forest edge is one), the deletion
        splits its component into ``{x : d(x, u) < d(x, v)}`` and
        ``{x : d(x, v) < d(x, u)}`` (every path between the sides crossed
        ``uv``, so ties cannot occur) and every cross pair becomes
        ``unreachable`` — both sides are read off the cached matrix, no
        search.  Otherwise :meth:`_removal_rows` recomputes exactly the
        affected rows: two probe BFS runs from ``u`` and ``v``, then BFS
        from the other affected nodes (spy-counted by
        :data:`REMOVE_BFS_REPAIRS`).  Returns an undo token.
        """
        if not self._graph.has_edge(u, v):
            raise ValueError(f"edge {u}-{v} not in graph")
        matrix = self.matrix
        if self._bridges.is_bridge(u, v):
            csr_before = self._csr
            side_u, side_v = self._bridge_sides(u, v)
            # every changed entry is a cross pair, so the smaller side's
            # rows (restored as rows *and* columns) cover all of them
            small = side_u if side_u.sum() <= side_v.sum() else side_v
            small_rows = np.flatnonzero(small)
            patches = (
                _RowPatch(rows=small_rows, old=matrix[small_rows].copy()),
            )
            matrix[np.ix_(side_u, side_v)] = self.unreachable
            matrix[np.ix_(side_v, side_u)] = self.unreachable
            self._shift_totals(small_rows, patches[0].old)
            self._graph.remove_edge(u, v)
            self._csr = None
            bridge_delta = self._bridges.note_remove(u, v, self._graph._adj)
            return self._finish(
                patches, (("add", u, v),), csr_before, (bridge_delta,)
            )
        _REMOVE_BFS_REPAIRS.inc()
        affected, rows = self._removal_rows(u, v)
        _BFS_REPAIR_ROWS.inc(int(affected.size))
        # read after the repair, which may have cached the CSR of the
        # pre-removal graph: exactly the graph undo restores
        csr_before = self._csr
        # u and v are always affected (their mutual distance grew), and
        # every changed entry has an endpoint among the affected rows
        patches = (_RowPatch(rows=affected, old=matrix[affected].copy()),)
        matrix[affected, :] = rows
        matrix[:, affected] = rows.T
        self._shift_totals(affected, patches[0].old)
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
            current = self.matrix[patch.rows]  # fancy index: already a copy
            self.matrix[patch.rows, :] = patch.old
            self.matrix[:, patch.rows] = patch.old.T
            self._shift_totals(patch.rows, current)
        for op, u, v in token.inverse_ops:
            if op == "add":
                self._graph.add_edge(u, v)
            else:
                self._graph.remove_edge(u, v)
        for delta in reversed(token.bridge_deltas):
            self._bridges.revert(delta)
        self._csr = token.csr_before
        self._version = token.version_before
