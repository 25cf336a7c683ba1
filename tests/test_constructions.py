"""Tests for basic constructions, spiders, and stretched trees."""

import math
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.constructions.basic import (
    almost_complete_dary_tree,
    clique,
    complete_binary_tree,
    complete_dary_tree,
    cycle,
    path,
    star,
)
from repro.constructions.spiders import (
    ps_lower_bound_spider,
    spider,
    tip_to_tip_gain,
)
from repro.constructions.stretched import (
    max_depth_for_size,
    stretched_binary_tree,
    stretched_tree_star,
)
from repro.core.state import GameState
from repro.equilibria.add import add_gain
from repro.equilibria.pairwise import is_pairwise_stable
from repro.graphs.trees import RootedTree, is_tree


class TestBasicFamilies:
    def test_star_shape(self):
        graph = star(6)
        assert graph.degree(0) == 5
        assert graph.number_of_edges() == 5

    def test_single_node_star(self):
        assert star(1).number_of_nodes() == 1

    def test_path_cycle_clique(self):
        assert path(4).number_of_edges() == 3
        assert cycle(5).number_of_edges() == 5
        assert clique(5).number_of_edges() == 10

    def test_cycle_needs_three(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_almost_complete_dary_is_tree(self):
        for n, d in [(1, 2), (7, 2), (20, 3), (50, 4)]:
            graph = almost_complete_dary_tree(n, d)
            assert is_tree(graph)

    def test_dary_degrees_bounded(self):
        graph = almost_complete_dary_tree(40, 3)
        for node in graph:
            assert graph.degree(node) <= 3 + 1

    def test_dary_depth_logarithmic(self):
        graph = almost_complete_dary_tree(40, 3)
        rooted = RootedTree(graph, root=0)
        assert rooted.depth() <= math.ceil(math.log(40, 3)) + 1

    def test_complete_binary_tree_size(self):
        assert complete_binary_tree(3).number_of_nodes() == 15
        assert complete_dary_tree(2, 3).number_of_nodes() == 13

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            almost_complete_dary_tree(5, 1)
        with pytest.raises(ValueError):
            complete_dary_tree(-1, 2)


class TestSpiders:
    def test_shape(self):
        graph = spider(3, 4)
        assert graph.number_of_nodes() == 13
        assert is_tree(graph)
        assert graph.degree(0) == 3

    def test_tip_to_tip_gain_formula(self):
        """The documented L^2 mutual gain is exact."""
        for leg_length in (1, 2, 3, 5, 8):
            graph = spider(2, leg_length)
            state = GameState(graph, 1)
            tip_a = leg_length  # last node of leg 0
            tip_b = 2 * leg_length
            gain = add_gain(state, tip_a, tip_b)
            assert gain == tip_to_tip_gain(leg_length)

    @pytest.mark.parametrize("alpha", [4, 9, 25, 100, 400])
    def test_ps_spider_is_pairwise_stable(self, alpha):
        graph = ps_lower_bound_spider(60, alpha)
        assert is_pairwise_stable(GameState(graph, alpha))

    def test_ps_spider_size_cap(self):
        graph = ps_lower_bound_spider(50, 100)
        assert graph.number_of_nodes() <= 61  # legs trimmed near target


class TestStretchedBinaryTree:
    @given(
        d=st.integers(min_value=0, max_value=5),
        k=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_node_count_formula(self, d, k):
        tree = stretched_binary_tree(d, k)
        assert tree.n == (2 ** (d + 1) - 2) * k + 1
        assert is_tree(tree.graph)

    @given(
        d=st.integers(min_value=1, max_value=4),
        k=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_binary_distances_scale_by_k(self, d, k):
        """dist_T(u, v) = k * dist_B(u, v) for binary nodes u, v."""
        tree = stretched_binary_tree(d, k)
        state = GameState(tree.graph, 1)
        for heap_u, real_u in tree.binary_ids.items():
            for heap_v, real_v in tree.binary_ids.items():
                expected = _heap_distance(heap_u, heap_v) * k
                assert state.dist.dist(real_u, real_v) == expected

    def test_depth(self):
        tree = stretched_binary_tree(3, 2)
        rooted = RootedTree(tree.graph, root=tree.root)
        assert rooted.depth() == tree.depth == 6

    def test_degenerate_depth_zero(self):
        tree = stretched_binary_tree(0, 3)
        assert tree.n == 1

    def test_rejects_bad_stretch(self):
        with pytest.raises(ValueError):
            stretched_binary_tree(2, 0)


def _heap_distance(u: int, v: int) -> int:
    """Tree distance between heap indices of a complete binary tree."""
    depth_u = u.bit_length()
    depth_v = v.bit_length()
    distance = 0
    while depth_u > depth_v:
        u //= 2
        depth_u -= 1
        distance += 1
    while depth_v > depth_u:
        v //= 2
        depth_v -= 1
        distance += 1
    while u != v:
        u //= 2
        v //= 2
        distance += 2
    return distance


class TestMaxDepthForSize:
    def test_respects_bound(self):
        for k in (1, 2, 3):
            for t in (2 * k + 1, 10 * k, 50 * k):
                d = max_depth_for_size(t, k)
                assert (2 ** (d + 1) - 2) * k + 1 <= t
                assert (2 ** (d + 2) - 2) * k + 1 > t

    def test_rejects_too_small_target(self):
        with pytest.raises(ValueError):
            max_depth_for_size(4, 2)


class TestStretchedTreeStar:
    @given(
        k=st.integers(min_value=1, max_value=3),
        t_mult=st.integers(min_value=3, max_value=12),
        eta_mult=st.integers(min_value=3, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_lemma_d9_size_window(self, k, t_mult, eta_mult):
        """eta <= n <= 3 eta / 2 (Lemma D.9)."""
        t = t_mult * k
        eta = (2 * t + 1) * eta_mult
        built = stretched_tree_star(k, t, eta)
        assert eta <= built.n <= Fraction(3, 2) * eta
        assert is_tree(built.graph)

    def test_copy_roots_attach_to_root(self):
        built = stretched_tree_star(1, 7, 50)
        for copy_root in built.copy_roots:
            assert built.graph.has_edge(0, copy_root)

    def test_depth_is_tree_depth_plus_one(self):
        built = stretched_tree_star(2, 15, 80)
        rooted = RootedTree(built.graph, root=0)
        assert rooted.depth() == built.depth == built.tree.depth + 1

    def test_rejects_eta_too_small(self):
        with pytest.raises(ValueError):
            stretched_tree_star(1, 10, 15)


class TestTheoremParameterisedStars:
    def test_bge_lower_bound_star_parameters(self):
        from repro.constructions.stretched import bge_lower_bound_star

        star = bge_lower_bound_star(600, eta=600)
        assert star.k == 1
        assert star.t == Fraction(600, 15)
        assert 600 <= star.n <= 900

    def test_bge_lower_bound_star_guards(self):
        from repro.constructions.stretched import bge_lower_bound_star

        with pytest.raises(ValueError):
            bge_lower_bound_star(30, eta=100)  # alpha too small for t>=3
        with pytest.raises(ValueError):
            bge_lower_bound_star(600, eta=100)  # eta below alpha

    def test_bne_lower_bound_star_both_cases(self):
        from repro.constructions.stretched import bne_lower_bound_star

        high = bne_lower_bound_star(9 * 300, eta=300, epsilon=0.5)
        assert high.k == 1  # floor(2700 / 2700) = 1
        low = bne_lower_bound_star(200, eta=400, epsilon=0.5)
        assert low.k == 1
        assert low.n >= 400

    def test_bne_lower_bound_star_rejects_gap_range(self):
        from repro.constructions.stretched import bne_lower_bound_star

        with pytest.raises(ValueError):
            bne_lower_bound_star(500, eta=300, epsilon=0.5)  # between cases
