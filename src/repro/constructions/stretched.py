"""Stretched binary trees and stretched tree stars (Figure 3, Section 3.2.2).

A *stretched binary tree* ``T`` with parameters ``d`` (depth of the
underlying complete binary tree ``B``) and stretch ``k`` replaces every edge
of ``B`` by a path of ``k`` edges: distances among ``B``-nodes scale by
``k`` and ``|T| = (2^(d+1) - 2) k + 1``.  Stretching preserves the distance
cost while letting the node count shrink relative to ``alpha`` — the engine
of the Omega(log alpha) lower bounds for BGE and BNE (Theorems 3.10, 3.12).

A *stretched tree star* glues ``ceil((eta - 1) / |T|)`` copies of a maximal
``|T| <= t`` stretched tree under a fresh root, which scales the family to
any target size ``eta`` (Lemma D.9: ``eta <= n <= 3 eta / 2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import networkx as nx

from repro._alpha import AlphaLike, as_alpha

__all__ = [
    "StretchedTree",
    "StretchedTreeStar",
    "bge_lower_bound_star",
    "bne_lower_bound_star",
    "max_depth_for_size",
    "stretched_binary_tree",
    "stretched_tree_star",
]


@dataclass(frozen=True)
class StretchedTree:
    """A stretched binary tree plus the structure the proofs refer to."""

    graph: nx.Graph
    d: int
    k: int
    root: int
    #: ids of the "real" binary-tree nodes, indexed by heap position
    #: (1 = root, children of ``i`` at ``2i`` and ``2i + 1``).
    binary_ids: dict[int, int] = field(repr=False)

    @property
    def n(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def depth(self) -> int:
        """``depth(T) = k * depth(B)``."""
        return self.k * self.d


def stretched_binary_tree(d: int, k: int) -> StretchedTree:
    """Build the stretched binary tree with parameters ``d`` and ``k >= 1``.

    ``d = 0`` degenerates to a single root.  Node 0 is the root; ids are
    assigned walking each stretched edge from the parent outwards.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    if k < 1:
        raise ValueError("the stretch factor k must be at least 1")
    graph = nx.Graph()
    graph.add_node(0)
    binary_ids = {1: 0}
    next_id = 1
    for heap in range(2, 2 ** (d + 1)):
        parent_real = binary_ids[heap // 2]
        previous = parent_real
        for _ in range(k - 1):  # the intermediate path nodes u^1..u^(k-1)
            graph.add_edge(previous, next_id)
            previous = next_id
            next_id += 1
        graph.add_edge(previous, next_id)  # the real binary node
        binary_ids[heap] = next_id
        next_id += 1
    return StretchedTree(graph=graph, d=d, k=k, root=0, binary_ids=binary_ids)


def max_depth_for_size(t: AlphaLike, k: int) -> int:
    """Largest ``d`` with ``|T(d, k)| = (2^(d+1) - 2) k + 1 <= t``.

    The paper's definition requires ``t >= 2k + 1`` so that ``d >= 1``.
    """
    target = as_alpha(t)
    if target < 2 * k + 1:
        raise ValueError("the target size t must be at least 2k + 1")
    d = 1
    while (2 ** (d + 2) - 2) * k + 1 <= target:
        d += 1
    return d


@dataclass(frozen=True)
class StretchedTreeStar:
    """Root plus copies of a maximal stretched tree (scaling construction)."""

    graph: nx.Graph
    tree: StretchedTree
    copies: int
    copy_roots: tuple[int, ...]
    k: int
    t: Fraction
    eta: int

    @property
    def n(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def depth(self) -> int:
        """``depth(G) = depth(T) + 1``."""
        return self.tree.depth + 1


def stretched_tree_star(k: int, t: AlphaLike, eta: int) -> StretchedTreeStar:
    """Stretched tree star with stretch ``k``, subtree target ``t`` and size
    target ``eta`` (requires ``t >= 2k + 1`` and ``eta >= 2t + 1``)."""
    target = as_alpha(t)
    if eta < 2 * target + 1:
        raise ValueError("the target size eta must be at least 2t + 1")
    d = max_depth_for_size(target, k)
    tree = stretched_binary_tree(d, k)
    size = tree.n
    copies = math.ceil((eta - 1) / size)
    graph = nx.Graph()
    graph.add_node(0)
    copy_roots = []
    for copy in range(copies):
        offset = 1 + copy * size
        for u, v in tree.graph.edges:
            graph.add_edge(offset + u, offset + v)
        copy_root = offset + tree.root
        graph.add_node(copy_root)  # guards the degenerate one-node tree
        graph.add_edge(0, copy_root)
        copy_roots.append(copy_root)
    return StretchedTreeStar(
        graph=graph,
        tree=tree,
        copies=copies,
        copy_roots=tuple(copy_roots),
        k=k,
        t=target,
        eta=eta,
    )


def bge_lower_bound_star(alpha: AlphaLike, eta: int) -> StretchedTreeStar:
    """Theorem 3.10's witness: ``k = 1``, ``t = alpha / 15``.

    In BGE with ``rho >= log(alpha)/4 - 17/8``; needs ``alpha >= 45`` so
    that ``t >= 2k + 1``, and ``eta >= alpha`` as in the theorem.
    """
    price = as_alpha(alpha)
    if price < 45:
        raise ValueError("Theorem 3.10's construction needs alpha >= 45")
    if eta < price:
        raise ValueError("Theorem 3.10 requires eta >= alpha")
    return stretched_tree_star(k=1, t=price / 15, eta=eta)


def bne_lower_bound_star(alpha: AlphaLike, eta: int, epsilon: float) -> StretchedTreeStar:
    """Theorem 3.12's witnesses.

    * ``alpha >= 9 eta`` (case i): ``k = floor(alpha / (9 eta))``,
      ``t = eta^(1 - eps/2)``;
    * ``alpha <= eta`` (case ii): ``k = 1``, ``t = eta^eps``.
    """
    price = as_alpha(alpha)
    if price >= 9 * eta:
        k = math.floor(price / (9 * eta))
        t = Fraction(math.floor(eta ** (1 - epsilon / 2)))
    elif price <= eta:
        k = 1
        t = Fraction(math.floor(eta**epsilon))
    else:
        raise ValueError(
            "Theorem 3.12 covers alpha >= 9 eta or alpha <= eta only"
        )
    t = max(t, 2 * k + 1)
    return stretched_tree_star(k=k, t=t, eta=eta)
