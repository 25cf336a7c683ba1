"""Graph generation: exhaustive small-graph enumeration and random models.

Exhaustive enumeration powers the "worst case over all trees / all graphs"
experiments; random models feed the property-based tests and the dynamics
examples.  Everything is seeded and deterministic.

Enumeration is backed by the canonical-key layered enumerator
(:mod:`repro.graphs.enumerate`): trees come from it at every size, and
connected graphs dispatch to it above the networkx atlas ceiling of 7
nodes (the atlas survives as the n <= 7 cross-validation oracle in the
test suite).
"""

from __future__ import annotations

import random
from typing import Iterator

import networkx as nx

from repro.graphs.distances import canonical_labels

__all__ = [
    "ATLAS_MAX_NODES",
    "all_connected_graphs",
    "all_trees",
    "random_connected_gnp",
    "random_tree",
]

#: the networkx atlas holds every graph up to this many nodes
ATLAS_MAX_NODES = 7


def all_trees(n: int) -> Iterator[nx.Graph]:
    """All non-isomorphic trees on ``n`` labelled nodes ``0..n-1``.

    Counts: 1, 1, 1, 2, 3, 6, 11, 23, 47, 106 for n = 1..10.

    Backed by the canonical-key leaf-extension enumerator
    (:func:`repro.graphs.enumerate.enumerate_trees`) — atlas-free, so
    there is no hard ceiling; layers are memoised, and graphs arrive in
    canonical key-sorted order (bit-stable across runs).
    """
    from repro.graphs.enumerate import enumerate_trees

    if n <= 0:
        raise ValueError("n must be positive")
    yield from enumerate_trees(n)


def all_connected_graphs(n: int) -> Iterator[nx.Graph]:
    """All non-isomorphic connected graphs on ``n`` nodes.

    Counts: 1, 1, 2, 6, 21, 112, 853, 11117, 261080 for n = 1..9.

    ``n <= 7`` reads the networkx graph atlas (unchanged historical
    order); above the atlas ceiling the canonical-key layered enumerator
    (:func:`repro.graphs.enumerate.enumerate_connected_graphs`) takes
    over — under a second at n = 8, about ten seconds at n = 9 (the
    practical ceiling: n = 10 has 11716571 classes).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > ATLAS_MAX_NODES:
        from repro.graphs.enumerate import enumerate_connected_graphs

        yield from enumerate_connected_graphs(n)
        return
    for graph in nx.graph_atlas_g():
        if graph.number_of_nodes() != n:
            continue
        if n > 1 and not nx.is_connected(graph):
            continue
        yield canonical_labels(graph)


def random_tree(n: int, rng: random.Random) -> nx.Graph:
    """Uniform random labelled tree via a random Pruefer sequence."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n == 1:
        return nx.empty_graph(1)
    if n == 2:
        return nx.path_graph(2)
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    return nx.from_prufer_sequence(sequence)


def random_connected_gnp(n: int, p: float, rng: random.Random) -> nx.Graph:
    """A connected G(n, p) sample: a random spanning tree plus G(n,p) edges.

    The spanning-tree guarantee keeps the distribution slightly denser than
    conditional G(n,p) but every sample is usable as a game state.
    """
    graph = random_tree(n, rng)
    for u in range(n):
        for v in range(u + 1, n):
            if not graph.has_edge(u, v) and rng.random() < p:
                graph.add_edge(u, v)
    return graph
