"""Rooted-tree structure: layers, subtrees, 1-medians, and exact swap deltas.

The paper's tree arguments are phrased around a tree rooted at a 1-median
``r``: the *layer* ``l(u) = dist(r, u)``, the subtree ``T_u`` of ``u`` and all
its descendants, and the fact that every non-root subtree contains at most
``n / 2`` nodes.  :class:`RootedTree` materialises all of that once in
``O(n)`` and answers the structural queries the checkers and constructions
need.

Removing a tree edge ``uv`` splits the node set into the nodes nearer ``u``
and those nearer ``v``; distances within each side are untouched and
distances across are determined by the reattachment point.  That makes tree
swap evaluations exact without any BFS (see
:mod:`repro.equilibria.swap`).
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import networkx as nx

__all__ = [
    "RootedTree",
    "is_tree",
    "one_medians",
    "subtree_sizes_from",
]


def is_tree(graph: nx.Graph) -> bool:
    """Connected and ``m = n - 1``."""
    n = graph.number_of_nodes()
    return (
        n > 0
        and graph.number_of_edges() == n - 1
        and nx.is_connected(graph)
    )


def _bfs_order_and_parents(
    graph: nx.Graph, root: int
) -> tuple[list[int], dict[int, int | None]]:
    parent: dict[int, int | None] = {root: None}
    order = [root]
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in parent:
                parent[neighbor] = node
                order.append(neighbor)
                queue.append(neighbor)
    return order, parent


def subtree_sizes_from(graph: nx.Graph, root: int) -> dict[int, int]:
    """Size of the subtree hanging below each node when rooted at ``root``."""
    order, parent = _bfs_order_and_parents(graph, root)
    size = {node: 1 for node in order}
    for node in reversed(order):
        above = parent[node]
        if above is not None:
            size[above] += size[node]
    return size


def one_medians(tree: nx.Graph) -> list[int]:
    """The one or two 1-medians of a tree.

    A 1-median is a node minimising total distance; equivalently a node whose
    removal leaves components of size at most ``n / 2``.  Computed in
    ``O(n)`` by the classic subtree-size argument (no distance matrix).
    """
    if not is_tree(tree):
        raise ValueError("one_medians requires a tree")
    n = tree.number_of_nodes()
    root = next(iter(tree.nodes))
    order, parent = _bfs_order_and_parents(tree, root)
    size = subtree_sizes_from(tree, root)
    medians = []
    for node in order:
        largest_piece = n - size[node]  # the component containing the parent
        for neighbor in tree.neighbors(node):
            if neighbor != parent[node]:
                largest_piece = max(largest_piece, size[neighbor])
        if 2 * largest_piece <= n:
            medians.append(node)
    medians.sort()
    if not (1 <= len(medians) <= 2):
        raise AssertionError("a tree has one or two 1-medians")
    return medians


class RootedTree:
    """A tree rooted at a chosen node (by default a 1-median).

    Exposes the vocabulary of the paper's Section 3.2 proofs: layers,
    parents, children, subtree sizes/masks, depth of subtrees, and the
    1-median of any subtree.
    """

    def __init__(self, tree: nx.Graph, root: int | None = None):
        if not is_tree(tree):
            raise ValueError("RootedTree requires a tree")
        self.graph = tree
        self.n = tree.number_of_nodes()
        self.root = one_medians(tree)[0] if root is None else root
        if self.root not in tree:
            raise ValueError(f"root {self.root!r} not in tree")
        self.order, self._parent = _bfs_order_and_parents(tree, self.root)
        self.layer: dict[int, int] = {self.root: 0}
        for node in self.order[1:]:
            self.layer[node] = self.layer[self._parent[node]] + 1
        self.subtree_size = subtree_sizes_from(tree, self.root)
        self._children: dict[int, list[int]] = {node: [] for node in tree}
        for node in self.order[1:]:
            self._children[self._parent[node]].append(node)

    def parent(self, node: int) -> int | None:
        return self._parent[node]

    def children(self, node: int) -> Sequence[int]:
        return self._children[node]

    def depth(self) -> int:
        """``depth(G) = max_v l(v)``."""
        return max(self.layer.values())

    def subtree_nodes(self, node: int) -> list[int]:
        """All nodes of ``T_node`` (node plus descendants), preorder."""
        result = []
        stack = [node]
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(self._children[current])
        return result

    def subtree_depth(self, node: int) -> int:
        """``depth(T_node) = max {dist(node, v) : v in T_node}``."""
        base = self.layer[node]
        return max(self.layer[v] for v in self.subtree_nodes(node)) - base

    def subtree_one_medians(self, node: int) -> list[int]:
        """1-medians of the subtree ``T_node`` viewed as a standalone tree."""
        members = self.subtree_nodes(node)
        subtree = self.graph.subgraph(members).copy()
        return one_medians(subtree)
