"""Layered, isomorphism-pruned enumeration of trees and connected graphs.

The networkx atlas stops at 7 nodes; these enumerators push the exact
sweeps to n = 8-9 for connected graphs and beyond the atlas entirely for
trees, using nothing but the canonical keys of
:mod:`repro.graphs.canonical` and two complete extension moves:

* **trees, layered by node count** — every tree on ``n`` nodes is a tree
  on ``n - 1`` nodes with one leaf attached, so layer ``n`` is the
  canonical-key deduplication of all single-leaf extensions of layer
  ``n - 1``;
* **connected graphs, layered by edge count** — every connected graph
  with ``m > n - 1`` edges contains a cycle, and deleting a cycle edge
  leaves a connected graph with ``m - 1`` edges, so layer ``m`` is the
  deduplication of all single-edge additions to layer ``m - 1``; the base
  layer ``m = n - 1`` is the tree layer.

Each layer is deduplicated with a per-layer *seen set* of canonical keys
and then **sorted by key**, so enumeration order is a pure function of
``(n, m)`` — bit-stable across runs, machines and cache states.  Layers
are memoised per process (the exact-PoA campaign runners revisit them
trial by trial), and the canonical keys double as content addresses: a
campaign trial keyed by ``(n, m)`` re-derives exactly the same graphs,
which is what makes per-layer resume safe.

Keys are the expensive part, so a connected-graph child ``parent + uv``
is keyed only when ``uv`` is a *top cycle edge* of the child: no edge
on a cycle (no non-bridge edge) has a strictly larger cheap invariant
``(max deg, min deg, common neighbours)``.  This is canonical
augmentation in the sense of McKay ("Isomorph-free exhaustive
generation", J. Algorithms 1998), used as a filter in front of the seen
set.  No class is lost: take any graph ``c`` of the class and a cycle
edge ``e`` of ``c`` with the largest invariant.  ``c - e`` is connected,
so its class has a representative ``p`` in layer ``m - 1``, and adding
the image of ``e`` under the isomorphism to ``p`` builds a copy of ``c``
in which that edge is still a top cycle edge, so this child passes.
Only edges whose invariant beats the new edge's pay the bitmask-BFS
bridge test, and a child whose new edge ranks below its parent's top
cycle edge is rejected outright (adding an edge lowers no invariant and
breaks no cycle).  The n = 8 layers compute 17319 keys where keying
every child took 151133, and every layer is byte-identical.

:func:`enumerate_labelled_trees` is the weighted counterpart: it sweeps
all ``n**(n-2)`` Pruefer sequences and deduplicates by the **joint**
``(graph, W)`` canonical key, yielding one labelled representative per
joint isomorphism class — the exact family for weighted tree PoA, where
demands break label symmetry (under uniform demands it degenerates to
the unlabelled tree family).

Practical ceilings (pure Python, one core of a 2-core x86 container):
connected graphs complete in ~4 s at n = 8 (11117 classes) and ~80 s
at n = 9 (261080 classes, 381392 keys); trees are cheap through
n ~ 16; labelled trees are feasible to n ~ 8 (262144 sequences).
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Iterator, Sequence

import networkx as nx

from repro.graphs.canonical import canonical_key, decode_key, key_of_masks

__all__ = [
    "connected_graph_layer",
    "enumerate_connected_graphs",
    "enumerate_labelled_trees",
    "enumerate_trees",
    "max_edge_count",
    "tree_layer_keys",
]

_TREE_LAYERS: dict[int, tuple[bytes, ...]] = {}
_GRAPH_LAYERS: dict[tuple[int, int], tuple[bytes, ...]] = {}


def max_edge_count(n: int) -> int:
    """Edges of the complete graph — the enumerator's last layer."""
    return n * (n - 1) // 2


def _masks_of_key(key: bytes) -> list[int]:
    """Adjacency bitmasks straight from a structural canonical key."""
    n = key[0]
    bit_bytes = (n * (n - 1) // 2 + 7) // 8
    bits = int.from_bytes(key[1 : 1 + bit_bytes], "big")
    masks = [0] * n
    position = n * (n - 1) // 2
    for i in range(n):
        for j in range(i + 1, n):
            position -= 1
            if (bits >> position) & 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


# -- trees -------------------------------------------------------------------


def tree_layer_keys(n: int) -> tuple[bytes, ...]:
    """Sorted canonical keys of all trees on ``n`` nodes (memoised)."""
    if n <= 0:
        raise ValueError("n must be positive")
    cached = _TREE_LAYERS.get(n)
    if cached is not None:
        return cached
    if n == 1:
        layer = (key_of_masks(1, [0]),)
    else:
        seen: set[bytes] = set()
        for parent in tree_layer_keys(n - 1):
            masks = _masks_of_key(parent)
            masks.append(0)
            leaf_bit = 1 << (n - 1)
            for u in range(n - 1):
                masks[u] |= leaf_bit
                masks[n - 1] = 1 << u
                seen.add(key_of_masks(n, masks))
                masks[u] ^= leaf_bit
        layer = tuple(sorted(seen))
    _TREE_LAYERS[n] = layer
    return layer


def enumerate_trees(n: int) -> Iterator[nx.Graph]:
    """All non-isomorphic trees on ``n`` nodes, canonical, key-sorted."""
    for key in tree_layer_keys(n):
        yield decode_key(key)[0]


# -- connected graphs --------------------------------------------------------


def _edge_invariant(n: int, masks: Sequence[int], x: int, y: int) -> int:
    """``(max deg, min deg, common neighbours)`` of edge ``xy``, packed
    into one int that orders like the tuple (each part is below ``n``)."""
    big, small = masks[x].bit_count(), masks[y].bit_count()
    if big < small:
        big, small = small, big
    return (big * n + small) * n + (masks[x] & masks[y]).bit_count()


def _on_cycle(masks: Sequence[int], x: int, y: int) -> bool:
    """Is edge ``xy`` on a cycle (not a bridge)?  Bitmask BFS from ``x``
    that never crosses ``xy`` itself."""
    seen = 1 << x
    frontier = masks[x] ^ (1 << y)
    while frontier:
        if (frontier >> y) & 1:
            return True
        seen |= frontier
        reach = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach |= masks[low.bit_length() - 1]
        frontier = reach & ~seen
    return False


def _top_cycle_invariant(n: int, masks: Sequence[int], floor: int = -1) -> int:
    """The largest invariant of an edge on a cycle, or ``floor`` when no
    such edge beats it (``-1``: a forest).  Only an edge that beats the
    best so far pays the bridge test."""
    best = floor
    for x in range(n):
        above = masks[x] >> (x + 1)
        y = x
        while above:
            step = (above & -above).bit_length()
            above >>= step
            y += step
            invariant = _edge_invariant(n, masks, x, y)
            if invariant > best and _on_cycle(masks, x, y):
                best = invariant
    return best


def connected_graph_layer(n: int, m: int) -> tuple[bytes, ...]:
    """Sorted canonical keys of connected graphs on ``n`` nodes with
    exactly ``m`` edges (memoised per layer)."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not n - 1 <= m <= max_edge_count(n) or (n == 1 and m != 0):
        raise ValueError(
            f"connected graphs on {n} nodes have "
            f"{max(n - 1, 0)}..{max_edge_count(n)} edges, not {m}"
        )
    cached = _GRAPH_LAYERS.get((n, m))
    if cached is not None:
        return cached
    if m == max(n - 1, 0):
        layer = tree_layer_keys(n)
    else:
        full = (1 << n) - 1
        seen: set[bytes] = set()
        for parent in connected_graph_layer(n, m - 1):
            masks = _masks_of_key(parent)
            # adding an edge lowers no invariant and breaks no cycle, so a
            # child whose new edge ranks below the parent's top cycle edge
            # is rejected without a scan
            floor = _top_cycle_invariant(n, masks)
            for u in range(n):
                candidates = full & ~masks[u] & ~((1 << (u + 1)) - 1)
                while candidates:
                    low = candidates & -candidates
                    candidates ^= low
                    v = low.bit_length() - 1
                    masks[u] |= low
                    masks[v] |= 1 << u
                    mine = _edge_invariant(n, masks, u, v)
                    if (
                        mine >= floor
                        and _top_cycle_invariant(n, masks, mine) == mine
                    ):
                        seen.add(key_of_masks(n, masks))
                    masks[u] ^= low
                    masks[v] ^= 1 << u
        layer = tuple(sorted(seen))
    _GRAPH_LAYERS[(n, m)] = layer
    return layer


def enumerate_connected_graphs(
    n: int, max_edges: int | None = None
) -> Iterator[nx.Graph]:
    """All non-isomorphic connected graphs on ``n`` nodes, layered by
    edge count (trees first, complete graph last), canonical within each
    layer, key-sorted — a bit-stable order."""
    top = max_edge_count(n) if max_edges is None else max_edges
    for m in range(max(n - 1, 0), top + 1):
        for key in connected_graph_layer(n, m):
            yield decode_key(key)[0]


# -- labelled weighted trees -------------------------------------------------


def _prufer_edges(n: int, sequence: Sequence[int]) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in sequence:
        degree[x] += 1
    leaves = [u for u in range(n) if degree[u] == 1]
    leaves.sort()
    heap = list(leaves)
    edges = []
    for x in sequence:
        leaf = heappop(heap)
        edges.append((leaf, x))
        degree[leaf] = 0
        degree[x] -= 1
        if degree[x] == 1:
            heappush(heap, x)
    u, v = (w for w in range(n) if degree[w] == 1)
    edges.append((u, v))
    return edges


def enumerate_labelled_trees(n: int, traffic) -> Iterator[nx.Graph]:
    """One *labelled* tree per joint ``(tree, W)`` isomorphism class.

    Sweeps every Pruefer sequence (all ``n**(n-2)`` labelled trees) and
    keeps the first representative of each joint canonical key, so the
    family quantifies over all labelled trees exactly, modulo the
    symmetries the demand matrix actually has.  The representative keeps
    its original labels — costs against ``traffic`` depend on them.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if n == 1:
        yield nx.empty_graph(1)
        return
    if n == 2:
        yield nx.path_graph(2)
        return
    seen: set[bytes] = set()
    for sequence in itertools.product(range(n), repeat=n - 2):
        graph = nx.empty_graph(n)
        graph.add_edges_from(_prufer_edges(n, sequence))
        key = canonical_key(graph, traffic)
        if key in seen:
            continue
        seen.add(key)
        yield graph
