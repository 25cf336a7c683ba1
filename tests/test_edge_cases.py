"""Edge cases: tiny games, extreme prices, disconnection, degenerate input."""

from fractions import Fraction

import networkx as nx
import pytest

from repro.core.concepts import Concept
from repro.core.state import GameState
from repro.equilibria.add import (
    add_gain,
    find_improving_bilateral_add,
    is_bilateral_add_equilibrium,
)
from repro.equilibria.neighborhood import is_neighborhood_equilibrium
from repro.equilibria.pairwise import is_pairwise_stable
from repro.equilibria.registry import check
from repro.equilibria.remove import is_remove_equilibrium
from repro.equilibria.strong import is_strong_equilibrium
from repro.equilibria.swap import is_bilateral_swap_equilibrium


class TestSingleAgent:
    def test_one_node_game(self):
        state = GameState(nx.empty_graph(1), 5)
        assert state.social_cost() == 0
        assert state.rho() == 1
        assert is_remove_equilibrium(state)
        assert is_bilateral_add_equilibrium(state)
        assert is_bilateral_swap_equilibrium(state)
        assert is_neighborhood_equilibrium(state)
        assert is_strong_equilibrium(state)


class TestTwoAgents:
    def test_connected_pair(self):
        state = GameState(nx.path_graph(2), 3)
        assert state.cost(0) == 3 + 1
        assert is_pairwise_stable(state)
        assert is_strong_equilibrium(state)

    def test_disconnected_pair_always_adds(self):
        graph = nx.empty_graph(2)
        for alpha in (1, 1000, Fraction(10**6)):
            state = GameState(graph, alpha)
            move = find_improving_bilateral_add(state)
            assert move is not None  # M dominates any edge price

    def test_disconnected_pair_never_re_violated(self):
        state = GameState(nx.empty_graph(2), 1)
        assert is_remove_equilibrium(state)  # nothing to remove


class TestExtremePrices:
    def test_tiny_alpha_forces_clique(self):
        state = GameState(nx.complete_graph(6), Fraction(1, 1000))
        assert is_strong_equilibrium(state)
        assert state.rho() == 1

    def test_huge_alpha_star_still_stable(self):
        state = GameState(nx.star_graph(6), 10**6)
        assert is_pairwise_stable(state)
        assert is_bilateral_swap_equilibrium(state)

    def test_huge_alpha_rho_close_to_one(self):
        """Corollary 3.2: rho <= 1 + n^2/alpha -> 1 as alpha grows."""
        state = GameState(nx.path_graph(8), 10**6)
        assert state.rho() < Fraction(101, 100)

    def test_fractional_boundary_alpha(self):
        """At alpha exactly equal to a gain, strictness blocks the move."""
        # path ends of P6: each gains exactly 2+... compute: adding 0-5
        state = GameState(nx.path_graph(6), 1)
        gain = add_gain(state, 0, 5)
        boundary = GameState(nx.path_graph(6), gain)
        assert is_bilateral_add_equilibrium(boundary)
        below = GameState(nx.path_graph(6), Fraction(gain) - Fraction(1, 2))
        assert not is_bilateral_add_equilibrium(below)


class TestDisconnectedStates:
    def test_components_merge_under_every_bilateral_concept(self):
        graph = nx.empty_graph(6)
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        graph.add_edge(4, 5)
        state = GameState(graph, 50)
        assert not is_bilateral_add_equilibrium(state)
        assert not is_pairwise_stable(state)
        assert not check(state, Concept.BGE)
        assert not is_neighborhood_equilibrium(state)

    def test_isolated_node_joins(self):
        graph = nx.path_graph(4)
        graph.add_node(4)
        state = GameState(graph, 100)
        move = find_improving_bilateral_add(state)
        assert move is not None
        assert 4 in (move.u, move.v)

    def test_dist_cost_counts_m_per_missing_agent(self):
        graph = nx.empty_graph(3)
        state = GameState(graph, 1)
        assert state.dist_cost(0) == 2 * state.m_constant


class TestDegenerateInput:
    def test_multigraph_rejected_by_simple_graph_semantics(self):
        multi = nx.MultiGraph()
        multi.add_edge(0, 1)
        multi.add_edge(0, 1)
        # canonical relabelling flattens to a simple graph; cost model works
        state = GameState(nx.Graph(multi), 1)
        assert state.graph.number_of_edges() == 1

    def test_directed_input_rejected(self):
        directed = nx.DiGraph([(0, 1)])
        # networkx Graph() conversion makes it undirected; GameState accepts
        state = GameState(nx.Graph(directed), 1)
        assert state.graph.has_edge(0, 1)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            GameState(nx.path_graph(2), -1)

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            GameState(nx.path_graph(2), 0)


class TestStrictnessBoundaries:
    def test_swap_partner_exact_alpha_blocks(self):
        """Partner gain == alpha must not count as improving."""
        # star: leaf swaps its center edge to another leaf? gains nothing.
        # construct a path where a specific swap's partner gain is exact.
        state = GameState(nx.path_graph(5), 4)
        from repro.equilibria.swap import swap_gains

        gain_actor, gain_partner = swap_gains(state, 0, 1, 2)
        # whatever the values, the checker must agree with the exact rule
        from repro.equilibria.swap import find_improving_swap

        move = find_improving_swap(state)
        if move is not None:
            ga, gp = swap_gains(state, move.actor, move.old, move.new)
            assert ga >= 1 and gp > state.alpha

    def test_removal_exact_alpha_blocks(self):
        """Loss == alpha: removal not strictly improving, state is RE."""
        state = GameState(nx.cycle_graph(6), 6)  # loss is exactly 6
        assert is_remove_equilibrium(state)
