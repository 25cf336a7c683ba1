"""Tests for the rooted-tree toolkit (repro.graphs.trees)."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.generation import random_tree
from repro.graphs.trees import (
    RootedTree,
    is_tree,
    one_medians,
    subtree_sizes_from,
)


@st.composite
def random_trees(draw, min_n=2, max_n=40):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_tree(n, random.Random(seed))


class TestIsTree:
    def test_path_is_tree(self):
        assert is_tree(nx.path_graph(5))

    def test_cycle_is_not(self):
        assert not is_tree(nx.cycle_graph(5))

    def test_forest_is_not(self):
        graph = nx.empty_graph(4)
        graph.add_edge(0, 1)
        assert not is_tree(graph)

    def test_single_node(self):
        assert is_tree(nx.empty_graph(1))


class TestOneMedians:
    def test_star_center(self):
        assert one_medians(nx.star_graph(6)) == [0]

    def test_even_path_has_two(self):
        assert one_medians(nx.path_graph(4)) == [1, 2]

    def test_odd_path_has_one(self):
        assert one_medians(nx.path_graph(5)) == [2]

    def test_rejects_non_tree(self):
        with pytest.raises(ValueError):
            one_medians(nx.cycle_graph(4))

    @given(random_trees())
    @settings(max_examples=50, deadline=None)
    def test_median_minimises_total_distance(self, tree):
        """1-medians are exactly the argmin of total distance."""
        totals = {
            u: sum(nx.single_source_shortest_path_length(tree, u).values())
            for u in tree
        }
        best = min(totals.values())
        expected = sorted(u for u, t in totals.items() if t == best)
        assert one_medians(tree) == expected

    @given(random_trees())
    @settings(max_examples=50, deadline=None)
    def test_median_components_at_most_half(self, tree):
        """Removing a 1-median leaves components of size <= n/2."""
        n = tree.number_of_nodes()
        for median in one_medians(tree):
            pruned = tree.copy()
            pruned.remove_node(median)
            for component in nx.connected_components(pruned):
                assert 2 * len(component) <= n

    @given(random_trees())
    @settings(max_examples=50, deadline=None)
    def test_one_or_two_medians(self, tree):
        assert 1 <= len(one_medians(tree)) <= 2


class TestRootedTree:
    def test_layers_on_path(self):
        tree = RootedTree(nx.path_graph(5), root=0)
        assert [tree.layer[i] for i in range(5)] == [0, 1, 2, 3, 4]
        assert tree.depth() == 4

    def test_default_root_is_median(self):
        tree = RootedTree(nx.path_graph(5))
        assert tree.root == 2

    def test_parent_child(self):
        tree = RootedTree(nx.star_graph(4), root=0)
        assert tree.parent(0) is None
        assert tree.parent(3) == 0
        assert sorted(tree.children(0)) == [1, 2, 3, 4]

    def test_subtree_nodes_and_mask(self):
        tree = RootedTree(nx.path_graph(5), root=0)
        assert sorted(tree.subtree_nodes(3)) == [3, 4]

    def test_subtree_depth(self):
        tree = RootedTree(nx.path_graph(6), root=0)
        assert tree.subtree_depth(2) == 3
        assert tree.subtree_depth(5) == 0

    def test_rejects_non_tree(self):
        with pytest.raises(ValueError):
            RootedTree(nx.cycle_graph(4))

    def test_rejects_foreign_root(self):
        with pytest.raises(ValueError):
            RootedTree(nx.path_graph(3), root=99)

    @given(random_trees())
    @settings(max_examples=40, deadline=None)
    def test_layers_match_bfs_distance(self, tree):
        rooted = RootedTree(tree)
        lengths = nx.single_source_shortest_path_length(tree, rooted.root)
        assert rooted.layer == lengths

    @given(random_trees())
    @settings(max_examples=40, deadline=None)
    def test_edges_connect_adjacent_layers(self, tree):
        rooted = RootedTree(tree)
        for u, v in tree.edges:
            assert abs(rooted.layer[u] - rooted.layer[v]) == 1

    @given(random_trees())
    @settings(max_examples=40, deadline=None)
    def test_subtree_sizes_sum(self, tree):
        rooted = RootedTree(tree)
        assert rooted.subtree_size[rooted.root] == tree.number_of_nodes()
        for node in tree:
            children_total = sum(
                rooted.subtree_size[c] for c in rooted.children(node)
            )
            assert rooted.subtree_size[node] == 1 + children_total

    @given(random_trees())
    @settings(max_examples=40, deadline=None)
    def test_non_root_subtrees_at_most_half(self, tree):
        """The paper's key fact: rooted at a 1-median, |T_u| <= n/2."""
        rooted = RootedTree(tree)  # roots at a 1-median
        n = tree.number_of_nodes()
        for node in tree:
            if node != rooted.root:
                assert 2 * rooted.subtree_size[node] <= n

    def test_subtree_one_medians(self):
        tree = RootedTree(nx.path_graph(7), root=0)
        assert tree.subtree_one_medians(2) == [4]


class TestSubtreeSizes:
    def test_star(self):
        sizes = subtree_sizes_from(nx.star_graph(4), 0)
        assert sizes[0] == 5
        assert all(sizes[i] == 1 for i in range(1, 5))

