"""Bridges of a graph by chain decomposition.

A *bridge* is an edge whose removal disconnects its component.  The
distance engine needs no bridge list: its block repair
(:meth:`repro.graphs.distances.DistanceMatrix._removal_rows`) finds a
bridge as the removal whose border is empty.  The coalition search does:
its query-based fold DFS splits removed edges off a rows-only fold, which
is exact only for bridges, so
:func:`repro.equilibria.strong.find_improving_coalition_move` sweeps the
base graph once per call and takes the fold DFS for a coalition whose
removable edges are all bridges (a forest being the case where every
edge is one).  Each sweep counts in ``repro_engine_bridge_sweeps_total``.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs import metrics as _obs

__all__ = ["component_bridges"]

#: :func:`component_bridges` calls — one per coalition search.
_BRIDGE_SWEEPS = _obs.counter(
    "repro_engine_bridge_sweeps_total",
    "chain-decomposition bridge sweeps",
)


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def component_bridges(adj, roots: Iterable[int]) -> set[tuple[int, int]]:
    """Bridges of the components containing ``roots``, by chain decomposition.

    ``adj`` is a node -> neighbors mapping; callers pass the plain
    dict-of-dicts ``networkx.Graph._adj``, which skips the view object
    ``Graph.adj`` builds for every visited node.
    One iterative DFS per unvisited root records DFS numbers, parents and
    back edges keyed by their ancestor endpoint; walking each back edge's
    fundamental cycle upwards marks the chain-covered tree edges, and the
    uncovered tree edges are exactly the bridges (Schmidt's chain
    decomposition).  ``O(n_c + m_c)`` over the visited components.
    Bridges come back as ``(min, max)`` pairs.
    """
    _BRIDGE_SWEEPS.inc()
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
