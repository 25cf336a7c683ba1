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

Each layer is built from chunks of parents in numpy: a chunk's parents
are unpacked from their keys (:func:`~repro.graphs.canonical.adjacency_stack`
and :func:`~repro.graphs.canonical.masks_of_stack`), every child is made
at once, the children that pass the filter below are keyed in one
batched call (:func:`~repro.graphs.canonical.key_rows`), and the keys of
all chunks are deduplicated and **sorted by key**, so enumeration order
is a pure function of ``(n, m)`` — bit-stable across runs, machines and
cache states.  A chunk holds ``LAYER_CELLS // n**4`` parents, which
bounds the keyer's temporaries.  Layers are memoised per process (the
exact-PoA campaign runners revisit them trial by trial), and the
canonical keys double as content addresses: a campaign trial keyed by
``(n, m)`` re-derives exactly the same graphs, which is what makes
per-layer resume safe.  Each cold layer emits one ``enumerate.layer``
trace span (:mod:`repro.obs.trace`) with the children it made, keyed
and kept.

Keys are the expensive part, so a connected-graph child ``parent + uv``
is keyed only when ``uv`` is a *top cycle edge* of the child: no edge
on a cycle (no non-bridge edge) has a strictly larger cheap invariant
``(max deg, min deg, common neighbours)``.  This is canonical
augmentation in the sense of McKay ("Isomorph-free exhaustive
generation", J. Algorithms 1998), used as a filter in front of the
deduplication.  No class is lost: take any graph ``c`` of the class and
a cycle edge ``e`` of ``c`` with the largest invariant.  ``c - e`` is
connected, so its class has a representative ``p`` in layer ``m - 1``,
and adding the image of ``e`` under the isomorphism to ``p`` builds a
copy of ``c`` in which that edge is still a top cycle edge, so this
child passes.  The filter is vectorised over a chunk.  One batched
bitmask BFS per parent edge ``xy`` finds ``x``'s side of
``parent - xy``: the edge is on a cycle of the parent iff that side
holds ``y``, and it is on a cycle of ``parent + uv`` iff it is on one of
the parent or the new edge crosses it (``u`` and ``v`` on different
sides).  A child whose new edge ranks below its parent's top cycle edge
is rejected before its edges are ranked (adding an edge lowers no
invariant and breaks no cycle).  The n = 8 layers key 17385 children
(17242 single-edge and 143 single-leaf children) where keying every
child took 151133, and every layer is byte-identical.

:func:`enumerate_labelled_trees` is the weighted counterpart: it sweeps
all ``n**(n-2)`` Pruefer sequences and deduplicates by the **joint**
``(graph, W)`` canonical key, yielding one labelled representative per
joint isomorphism class — the exact family for weighted tree PoA, where
demands break label symmetry (under uniform demands it degenerates to
the unlabelled tree family).

Practical ceilings (numpy, one core of a 2-core x86 container, raw
seconds): connected graphs complete in ~0.4 s at n = 8 (11117 classes)
and ~9-11 s at n = 9 (261080 classes, 381392 keys); the trees up to
n = 16 take ~8 s (19320 trees at n = 16); labelled trees, keyed one by
one, are feasible to n ~ 8 (262144 sequences).
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Iterator, Sequence

import networkx as nx
import numpy as np

from repro.graphs.canonical import (
    adjacency_stack,
    decode_key,
    demand_rows,
    key_of_masks,
    key_rows,
    masks_of_stack,
    vertex_bits,
)
from repro.obs import trace as _trace

__all__ = [
    "LAYER_CELLS",
    "connected_graph_layer",
    "enumerate_connected_graphs",
    "enumerate_labelled_trees",
    "enumerate_trees",
    "max_edge_count",
    "tree_layer_keys",
]

#: cell budget of one chunk of parents: a parent has fewer than
#: ``n**2 / 2`` children and the keyer holds ``(n, n)`` count blocks per
#: child, so a chunk holds ``LAYER_CELLS // n**4`` parents (256 at n = 8)
LAYER_CELLS = 1 << 20

_TREE_LAYERS: dict[int, tuple[bytes, ...]] = {}
_GRAPH_LAYERS: dict[tuple[int, int], tuple[bytes, ...]] = {}


def max_edge_count(n: int) -> int:
    """Edges of the complete graph — the enumerator's last layer."""
    return n * (n - 1) // 2


def _parent_chunks(parents: Sequence[bytes], n: int) -> Iterator[np.ndarray]:
    """The adjacency stacks of the parents of an ``n``-node layer,
    ``LAYER_CELLS // n**4`` at a time."""
    size = max(1, LAYER_CELLS // n**4)
    for start in range(0, len(parents), size):
        yield adjacency_stack(parents[start : start + size])


def _layer(
    n: int, m: int, batches: Iterator[tuple[int, np.ndarray]]
) -> tuple[bytes, ...]:
    """Key every batch ``(children made, child masks)``, merge,
    deduplicate and sort: one ``enumerate.layer`` span with the children
    made, keyed and kept."""
    with _trace.span("enumerate.layer", n=n, m=m) as span:
        children = keyed = 0
        found = []
        for made, masks in batches:
            children += made
            keyed += len(masks)
            # looked up at call time, so a wrapper sees every batch
            found.append(key_rows(n, masks))
        rows = np.concatenate(found)
        # one void item per key: numpy orders them bytewise, as bytes sort
        unique = np.unique(rows.view(np.dtype((np.void, rows.shape[1]))))
        layer = tuple(key.tobytes() for key in unique)
        span.set(children=children, keyed=keyed, kept=len(layer))
    return layer


# -- trees -------------------------------------------------------------------


def _leaf_children(stack: np.ndarray) -> tuple[int, np.ndarray]:
    """Every tree a parent stack grows by hanging a new leaf ``n - 1``
    on one of its vertices, as ``(count, masks)``."""
    parents, size, _ = stack.shape
    grown = np.zeros((parents, size + 1, size + 1), dtype=bool)
    grown[:, :size, :size] = stack
    grown = np.repeat(grown, size, axis=0)
    rows, hub = np.arange(len(grown)), np.tile(np.arange(size), parents)
    grown[rows, hub, size] = grown[rows, size, hub] = True
    return len(grown), masks_of_stack(grown)


def tree_layer_keys(n: int) -> tuple[bytes, ...]:
    """Sorted canonical keys of all trees on ``n`` nodes (memoised)."""
    if n <= 0:
        raise ValueError("n must be positive")
    cached = _TREE_LAYERS.get(n)
    if cached is not None:
        return cached
    if n == 1:
        batches = iter([(1, np.zeros((1, 1), dtype=np.uint8))])
    else:
        parents = tree_layer_keys(n - 1)
        batches = map(_leaf_children, _parent_chunks(parents, n))
    layer = _layer(n, n - 1, batches)
    _TREE_LAYERS[n] = layer
    return layer


def enumerate_trees(n: int) -> Iterator[nx.Graph]:
    """All non-isomorphic trees on ``n`` nodes, canonical, key-sorted."""
    for key in tree_layer_keys(n):
        yield decode_key(key)[0]


# -- connected graphs --------------------------------------------------------


def _invariant(n: int, dx, dy, common) -> np.ndarray:
    """``(max deg, min deg, common neighbours)`` of edges ``xy``, packed
    into ints that order like the tuples (each part is below ``n``)."""
    dx, dy = dx.astype(np.int32), dy.astype(np.int32)
    return (np.maximum(dx, dy) * n + np.minimum(dx, dy)) * n + common


def _reach_without(
    masks: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """``x``'s side of ``G - xy`` as a bitmask, for every edge ``xy``:
    ``xs`` and ``ys`` are ``(g, e)`` edge ends of the ``(g, n)`` masks
    (:func:`~repro.graphs.canonical.masks_of_stack`'s rows).  The edge is
    on a cycle iff its side holds ``y``.  One bitmask BFS over every edge
    at once."""
    bits = vertex_bits(masks.shape[1])
    graphs = np.arange(len(masks))[:, None]
    edges = np.arange(xs.shape[1])
    cut = np.repeat(masks[:, None, :], xs.shape[1], axis=1)
    cut[graphs, edges, xs] &= ~bits[ys]
    cut[graphs, edges, ys] &= ~bits[xs]
    reach = bits[xs]
    while True:
        inside = (reach[..., None] & bits) != 0
        grown = np.bitwise_or.reduce(np.where(inside, cut, 0), axis=-1)
        grown |= reach
        if (grown == reach).all():
            return reach
        reach = grown


def _edge_children(stack: np.ndarray) -> tuple[int, np.ndarray]:
    """The children ``parent + uv`` of a parent stack whose new edge is
    a top cycle edge, as ``(children made, kept child masks)``."""
    parents, n, _ = stack.shape
    masks = masks_of_stack(stack)
    bits = vertex_bits(n)
    degree = np.bitwise_count(masks)
    # every parent edge's invariant and side; the top cycle edge sets the
    # parent's floor (-1: a forest)
    _, xs, ys = np.nonzero(np.triu(stack, 1))
    xs, ys = xs.reshape(parents, -1), ys.reshape(parents, -1)
    side = _reach_without(masks, xs, ys)
    cyclic = (side & bits[ys]) != 0
    owner = np.arange(parents)[:, None]
    invariant = _invariant(
        n, degree[owner, xs], degree[owner, ys],
        np.bitwise_count(masks[owner, xs] & masks[owner, ys]),
    )
    floor = np.where(cyclic, invariant, -1).max(axis=1)

    # every single-edge child; adding uv lowers no invariant and breaks no
    # cycle, so a child whose new edge ranks below its parent's top cycle
    # edge is rejected before its edges are ranked
    of, us, vs = np.nonzero(np.triu(~stack, 1))
    made = len(of)
    mine = _invariant(
        n, degree[of, us] + 1, degree[of, vs] + 1,
        np.bitwise_count(masks[of, us] & masks[of, vs]),
    )
    passed = mine >= floor[of]
    of, us, vs, mine = of[passed], us[passed], vs[passed], mine[passed]
    child = masks[of]
    rows = np.arange(len(of))
    child[rows, us] |= bits[vs]
    child[rows, vs] |= bits[us]

    # uv is on a cycle (the parent is connected) and must beat every other
    # cycle edge of the child: a parent edge is on one iff it is on a
    # cycle of the parent or uv crosses it (u and v on different sides)
    degree = np.bitwise_count(child)
    rows, ex, ey = rows[:, None], xs[of], ys[of]
    beaten = _invariant(
        n, degree[rows, ex], degree[rows, ey],
        np.bitwise_count(child[rows, ex] & child[rows, ey]),
    ) > mine[:, None]
    crossed = ((side[of] & bits[us, None]) != 0) != (
        (side[of] & bits[vs, None]) != 0
    )
    top = ~(beaten & (cyclic[of] | crossed)).any(axis=1)
    return made, child[top]


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
        # the module attribute, so a wrapper on it sees the recursion
        parents = connected_graph_layer(n, m - 1)
        layer = _layer(n, m, map(_edge_children, _parent_chunks(parents, n)))
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
    its original labels — costs against ``traffic`` depend on them.  Each
    sequence is keyed from its bitmasks by ``key_of_masks``, past the
    shared canonical memo, and only a kept class becomes a graph.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if n == 1:
        yield nx.empty_graph(1)
        return
    if n == 2:
        yield nx.path_graph(2)
        return
    weights = demand_rows(traffic, n)
    seen: set[bytes] = set()
    for sequence in itertools.product(range(n), repeat=n - 2):
        edges = _prufer_edges(n, sequence)
        masks = [0] * n
        for u, v in edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        key = key_of_masks(n, masks, weights)
        if key in seen:
            continue
        seen.add(key)
        graph = nx.empty_graph(n)
        graph.add_edges_from(edges)
        yield graph
