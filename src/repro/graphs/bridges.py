"""Incrementally maintained bridge set for the distance engine.

A *bridge* is an edge whose removal disconnects its component.  The
distance engine cares because removing a bridge has a closed-form effect
on the cached APSP matrix: the component splits into the two sides of the
bridge cut, every cross pair jumps to the unreachable sentinel, and every
within-side distance is unchanged (a simple shortest path cannot cross
the cut twice).  PR 1 exploited this on forests only — where *every* edge
is a bridge — via incremental acyclicity tracking.  :class:`BridgeSet`
generalises it: the engine now knows the exact bridge set of the live
graph at all times, so bridge removals on arbitrary graphs take the
search-free split path.

Maintenance contract (mirrors the engine's ``apply_*`` / ``undo``):

* **build** — one chain decomposition (Schmidt 2013) when the owning
  :class:`~repro.graphs.distances.DistanceMatrix` materialises, counted
  by the :data:`BRIDGE_REBUILDS` spy.  DFS-order the graph, then walk
  each back edge's fundamental cycle upwards through parent pointers;
  tree edges covered by no chain are exactly the bridges.
* **addition of** ``uv`` — if ``u`` and ``v`` were disconnected the new
  edge is itself a bridge and nothing else changes.  Otherwise the new
  edge closes a cycle and the bridges that die are exactly those whose
  cut separates ``u`` from ``v``; for a bridge ``ab`` the side of any
  node ``x`` is readable off the *pre-add* matrix (``d(x, a) < d(x, b)``
  on ``a``'s side, the reverse on ``b``'s, ties only for nodes in other
  components), so the whole test is one vectorised comparison over the
  current bridges — ``O(|bridges|)``, no traversal.
* **removal of a bridge** ``uv`` — the edge leaves the set; no other
  edge's status changes (deleting a cut edge destroys no cycles), so the
  update is ``O(1)``.
* **removal of a non-bridge** ``uv`` — cycles through ``uv`` die, so
  edges may *become* bridges (never the reverse).  All candidates lie in
  the component of ``u``, which one chain-decomposition sweep seeded at
  ``u`` re-derives (:data:`BRIDGE_SWEEPS` spy).  The sweep costs
  ``O(n_c + m_c)`` on that component — strictly dominated by the probe +
  repair BFS work the engine already pays for the matrix on the same
  removal, so the bridge set never changes the removal's complexity.
* **undo** — every mutation returns an ``(added, removed)`` delta that
  the engine stores in its :class:`~repro.graphs.distances.UndoToken`;
  :meth:`BridgeSet.revert` restores the set bit-exactly in LIFO order.

Because the set is exact at every step, ``is_forest`` is simply
``|bridges| == |edges|`` — the engine's previous one-way acyclicity flag
(which could not recover when deletions made a cyclic graph acyclic
again) is subsumed.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.obs import metrics as _obs

__all__ = [
    "BridgeDelta",
    "BridgeSet",
    "bridge_rebuild_count",
    "bridge_sweep_count",
    "component_bridges",
]

#: Number of full chain-decomposition builds since import — a test spy:
#: exactly one per engine materialisation, zero along move trajectories.
#: Registry-backed (thread-safe); ``bridges.BRIDGE_REBUILDS`` stays a
#: read-only alias via module ``__getattr__``.
_BRIDGE_REBUILDS = _obs.counter(
    "repro_engine_bridge_rebuilds_total",
    "full chain-decomposition bridge-set builds",
)

#: Component-local chain-decomposition sweeps (non-bridge removals only)
#: — observability for the one update that is not O(affected);
#: additions, bridge removals and undos never sweep.
_BRIDGE_SWEEPS = _obs.counter(
    "repro_engine_bridge_sweeps_total",
    "component-local bridge sweeps after non-bridge removals",
)

_SPY_ALIASES = {
    "BRIDGE_REBUILDS": _BRIDGE_REBUILDS,
    "BRIDGE_SWEEPS": _BRIDGE_SWEEPS,
}


def __getattr__(name: str) -> int:
    counter = _SPY_ALIASES.get(name)
    if counter is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    return counter.value

#: ``(added, removed)`` bridge-set delta of one engine mutation, stored
#: in the engine's undo token and reversed by :meth:`BridgeSet.revert`.
BridgeDelta = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]

_NO_CHANGE: BridgeDelta = ((), ())


def bridge_rebuild_count() -> int:
    """How many full chain-decomposition builds have run since import."""
    return _BRIDGE_REBUILDS.value


def bridge_sweep_count() -> int:
    """How many component-local bridge sweeps have run since import."""
    return _BRIDGE_SWEEPS.value


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def component_bridges(adj, roots: Iterable[int]) -> set[tuple[int, int]]:
    """Bridges of the components containing ``roots``, by chain decomposition.

    ``adj`` is a node -> neighbors mapping; the engine passes the plain
    dict-of-dicts ``networkx.Graph._adj``, which skips the view object
    ``Graph.adj`` builds for every visited node.
    One iterative DFS per unvisited root records DFS numbers, parents and
    back edges keyed by their ancestor endpoint; walking each back edge's
    fundamental cycle upwards marks the chain-covered tree edges, and the
    uncovered tree edges are exactly the bridges (Schmidt's chain
    decomposition).  ``O(n_c + m_c)`` over the visited components.
    """
    dfn: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    order: list[int] = []
    back_at: dict[int, list[int]] = {}
    for root in roots:
        if root in dfn:
            continue
        dfn[root] = len(dfn)
        parent[root] = None
        order.append(root)
        stack = [(root, iter(adj[root]))]
        while stack:
            node, neighbors = stack[-1]
            descended = False
            for neighbor in neighbors:
                if neighbor not in dfn:
                    dfn[neighbor] = len(dfn)
                    parent[neighbor] = node
                    order.append(neighbor)
                    stack.append((neighbor, iter(adj[neighbor])))
                    descended = True
                    break
                if neighbor != parent[node] and dfn[neighbor] < dfn[node]:
                    # back edge node -> neighbor, keyed by the ancestor
                    back_at.setdefault(neighbor, []).append(node)
            if not descended:
                stack.pop()
    visited: set[int] = set()
    chained: set[tuple[int, int]] = set()
    for node in order:  # ancestors in increasing DFS order
        for descendant in back_at.get(node, ()):
            visited.add(node)
            walk = descendant
            while walk not in visited:
                visited.add(walk)
                step = parent[walk]
                chained.add(_edge(walk, step))
                walk = step
    bridges = set()
    for node in order:
        up = parent[node]
        if up is not None:
            edge = _edge(node, up)
            if edge not in chained:
                bridges.add(edge)
    return bridges


class BridgeSet:
    """The exact bridge set of a live graph, maintained through mutations.

    Owned by :class:`~repro.graphs.distances.DistanceMatrix`; the engine
    calls :meth:`note_add` / :meth:`note_remove` from inside its own
    ``apply_*`` mutators (with the matrix / adjacency state each hook
    documents) and stores the returned deltas in its undo tokens.
    """

    __slots__ = ("_edges", "_first", "_second", "_pos", "_len", "_version")

    def __init__(self, adj, nodes: Iterable[int]):
        _BRIDGE_REBUILDS.inc()
        self._edges: set[tuple[int, int]] = component_bridges(adj, nodes)
        # incremental endpoint-array cache (see _endpoint_arrays):
        # materialised lazily, then maintained through every delta
        self._first: np.ndarray | None = None
        self._second: np.ndarray | None = None
        self._pos: dict[tuple[int, int], int] = {}
        self._len = 0
        self._version = 0

    # -- queries ------------------------------------------------------------

    def is_bridge(self, u: int, v: int) -> bool:
        return _edge(u, v) in self._edges

    def __contains__(self, edge) -> bool:
        return _edge(*edge) in self._edges

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._edges)

    def as_frozenset(self) -> frozenset:
        return frozenset(self._edges)

    @property
    def version(self) -> int:
        """Monotone counter bumped by every endpoint-array change.

        Lets consumers holding arrays derived from
        :meth:`_endpoint_arrays` detect staleness without comparing
        contents.
        """
        return self._version

    def _endpoint_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Bridge endpoints as two int64 array views.

        The backing arrays are built once (first query) and then
        maintained *incrementally* through every delta — O(1) amortised
        append for a new bridge, O(1) swap-with-last removal for a dead
        one — instead of being invalidated and re-sorted on each engine
        push/pop.  The exponential searches hammer ``note_add`` once per
        DFS node, so rebuild-per-delta was measurable overhead (the
        PR-3 BNE quick-mode dip).  Order is unspecified (the side test
        in :meth:`note_add` is order-independent); the views are valid
        until the next mutation (:attr:`version` detects that).
        """
        if self._first is None:
            ordered = sorted(self._edges)
            capacity = max(8, 2 * len(ordered))
            self._first = np.empty(capacity, dtype=np.int64)
            self._second = np.empty(capacity, dtype=np.int64)
            for index, (u, v) in enumerate(ordered):
                self._first[index] = u
                self._second[index] = v
            self._pos = {edge: index for index, edge in enumerate(ordered)}
            self._len = len(ordered)
        return self._first[: self._len], self._second[: self._len]

    def _arrays_add(self, edge: tuple[int, int]) -> None:
        if self._first is None:
            return  # cache not materialised yet; nothing to maintain
        self._version += 1
        if self._len == len(self._first):
            grown_first = np.empty(2 * self._len, dtype=np.int64)
            grown_second = np.empty(2 * self._len, dtype=np.int64)
            grown_first[: self._len] = self._first
            grown_second[: self._len] = self._second
            self._first, self._second = grown_first, grown_second
        self._first[self._len] = edge[0]
        self._second[self._len] = edge[1]
        self._pos[edge] = self._len
        self._len += 1

    def _arrays_discard(self, edge: tuple[int, int]) -> None:
        if self._first is None:
            return
        self._version += 1
        index = self._pos.pop(edge)
        last = self._len - 1
        if index != last:
            self._first[index] = self._first[last]
            self._second[index] = self._second[last]
            moved = (int(self._first[index]), int(self._second[index]))
            self._pos[moved] = index
        self._len = last

    # -- mutation hooks (called by the engine) ------------------------------

    def note_add(
        self, u: int, v: int, matrix: np.ndarray, unreachable: int
    ) -> BridgeDelta:
        """Update for the addition of ``uv``; ``matrix`` is **pre-add**.

        ``O(|bridges|)``: one vectorised side test against the cached
        matrix decides which bridges the new cycle kills; a connecting
        addition just inserts itself.
        """
        if matrix[u, v] == unreachable:
            edge = _edge(u, v)
            self._edges.add(edge)
            self._arrays_add(edge)
            return ((edge,), ())
        if not self._edges:
            return _NO_CHANGE
        first, second = self._endpoint_arrays()
        row_u = matrix[u]
        row_v = matrix[v]
        dies = (row_u[first] < row_u[second]) != (row_v[first] < row_v[second])
        if not dies.any():
            return _NO_CHANGE
        dead = tuple(
            (int(a), int(b)) for a, b in zip(first[dies], second[dies])
        )
        self._edges.difference_update(dead)
        for edge in dead:
            self._arrays_discard(edge)
        return ((), dead)

    def note_remove(self, u: int, v: int, adj) -> BridgeDelta:
        """Update for the removal of ``uv``; ``adj`` is **post-removal**.

        Removing a bridge is ``O(1)`` (only the edge itself leaves the
        set).  Removing a non-bridge may promote edges of ``u``'s
        component to bridges — one component-local sweep re-derives them
        (:data:`BRIDGE_SWEEPS`); bridges never demote on a deletion.
        """
        edge = _edge(u, v)
        if edge in self._edges:
            self._edges.discard(edge)
            self._arrays_discard(edge)
            return ((), (edge,))
        _BRIDGE_SWEEPS.inc()
        found = component_bridges(adj, (u,))
        fresh = tuple(sorted(found - self._edges))
        if not fresh:
            return _NO_CHANGE
        self._edges.update(fresh)
        for new_bridge in fresh:
            self._arrays_add(new_bridge)
        return (fresh, ())

    def revert(self, delta: BridgeDelta) -> None:
        """Roll one mutation's delta back (engine undo, LIFO order)."""
        added, removed = delta
        if not added and not removed:
            return
        self._edges.difference_update(added)
        self._edges.update(removed)
        for edge in added:
            self._arrays_discard(edge)
        for edge in removed:
            self._arrays_add(edge)
