"""Tests for the unilateral NCG (repro.equilibria.nash)."""

from fractions import Fraction

import networkx as nx
import pytest

from repro.core.state import GameState
from repro.equilibria.nash import (
    EdgeAssignment,
    best_response,
    is_nash_equilibrium,
    is_unilateral_remove_equilibrium,
    strategy_cost,
)
from repro.equilibria.remove import is_remove_equilibrium


def rotating_assignment(graph: nx.Graph) -> EdgeAssignment:
    """Each edge owned by its smaller endpoint."""
    return EdgeAssignment.from_pairs((min(u, v), max(u, v)) for u, v in graph.edges)


class TestEdgeAssignment:
    def test_strategy_extraction(self):
        assignment = EdgeAssignment.from_pairs([(0, 1), (0, 2), (2, 3)])
        assert assignment.strategy(0) == {1, 2}
        assert assignment.strategy(2) == {3}
        assert assignment.strategy(1) == frozenset()

    def test_validate_accepts_matching(self):
        graph = nx.path_graph(3)
        rotating_assignment(graph).validate(graph)

    def test_validate_rejects_wrong_edges(self):
        graph = nx.path_graph(3)
        bad = EdgeAssignment.from_pairs([(0, 1)])
        with pytest.raises(ValueError):
            bad.validate(graph)

    def test_validate_rejects_foreign_owner(self):
        graph = nx.path_graph(3)
        bad = EdgeAssignment(owner={(0, 1): 2, (1, 2): 1})
        with pytest.raises(ValueError):
            bad.validate(graph)


class TestStrategyCost:
    def test_current_strategy_reproduces_graph_cost(self):
        graph = nx.star_graph(3)
        state = GameState(graph, 2)
        assignment = EdgeAssignment.from_pairs([(0, 1), (0, 2), (0, 3)])
        cost = strategy_cost(state, assignment, 0, assignment.strategy(0))
        assert cost == 3 * 2 + 3  # buys 3 edges, distance 3

    def test_empty_strategy_can_disconnect(self):
        graph = nx.path_graph(2)
        state = GameState(graph, 1)
        assignment = EdgeAssignment.from_pairs([(0, 1)])
        cost = strategy_cost(state, assignment, 0, frozenset())
        assert cost >= state.m_constant  # agent 0 cut itself off

    def test_double_buying_costs_twice(self):
        """Buying an edge the other agent already owns still costs alpha."""
        graph = nx.path_graph(2)
        state = GameState(graph, 5)
        assignment = EdgeAssignment.from_pairs([(0, 1)])
        redundant = strategy_cost(state, assignment, 1, frozenset({0}))
        free_ride = strategy_cost(state, assignment, 1, frozenset())
        assert redundant == free_ride + 5


class TestBestResponse:
    def test_leaf_keeps_single_edge_at_high_alpha(self):
        graph = nx.star_graph(4)
        state = GameState(graph, 10)
        assignment = EdgeAssignment.from_pairs(
            [(1, 0), (2, 0), (3, 0), (4, 0)]
        )  # leaves own their edges
        cost, strategy = best_response(state, assignment, 1)
        assert strategy == {0}
        assert cost == 10 + (1 + 2 * 3)

    def test_center_buys_nothing_when_leaves_pay(self):
        graph = nx.star_graph(3)
        state = GameState(graph, 2)
        assignment = EdgeAssignment.from_pairs([(1, 0), (2, 0), (3, 0)])
        cost, strategy = best_response(state, assignment, 0)
        assert strategy == frozenset()

    def test_guard_on_large_n(self):
        graph = nx.path_graph(20)
        state = GameState(graph, 1)
        assignment = rotating_assignment(graph)
        with pytest.raises(ValueError):
            best_response(state, assignment, 0)


class TestNashEquilibrium:
    def test_star_with_leaf_owners_is_ne(self):
        """Leaves owning their star edges is the canonical NE."""
        graph = nx.star_graph(4)
        state = GameState(graph, 3)
        assignment = EdgeAssignment.from_pairs(
            [(1, 0), (2, 0), (3, 0), (4, 0)]
        )
        assert is_nash_equilibrium(state, assignment)

    def test_star_with_center_owner_still_ne(self):
        """Even a center paying for everything cannot deviate: dropping any
        edge disconnects a leaf, which costs M >> alpha."""
        graph = nx.star_graph(4)
        state = GameState(graph, 100)
        assignment = EdgeAssignment.from_pairs(
            [(0, 1), (0, 2), (0, 3), (0, 4)]
        )
        assert is_nash_equilibrium(state, assignment)

    def test_triangle_owner_of_two_edges_deviates(self):
        """On a triangle at high alpha, an agent owning two edges drops one
        (distance loss 1 << alpha)."""
        graph = nx.cycle_graph(3)
        state = GameState(graph, 100)
        assignment = EdgeAssignment.from_pairs([(0, 1), (0, 2), (1, 2)])
        assert not is_nash_equilibrium(state, assignment)

    def test_ne_implies_bilateral_add_stability_small(self):
        """NE graphs pass the bilateral add checker (Prop 2.1 direction)."""
        from repro.equilibria.add import is_bilateral_add_equilibrium

        graph = nx.star_graph(4)
        state = GameState(graph, 3)
        assignment = EdgeAssignment.from_pairs(
            [(1, 0), (2, 0), (3, 0), (4, 0)]
        )
        assert is_nash_equilibrium(state, assignment)
        assert is_bilateral_add_equilibrium(state)


class TestUnilateralRemoveEquilibrium:
    def test_tree_always_stable(self):
        graph = nx.path_graph(5)
        state = GameState(graph, 2)
        assert is_unilateral_remove_equilibrium(
            state, rotating_assignment(graph)
        )

    def test_proposition_2_2_bilateral_iff_all_assignments(self):
        """RE in the BNCG == unilateral RE for every assignment (Prop 2.2),
        spot-checked on cycles around the stability boundary."""
        import itertools

        for alpha in (5, 6, Fraction(13, 2), 7):
            graph = nx.cycle_graph(6)
            state = GameState(graph, alpha)
            edges = list(graph.edges)
            all_assignments_stable = True
            for owners in itertools.product(*[(u, v) for u, v in edges]):
                assignment = EdgeAssignment.from_pairs(
                    (owner, u if owner == v else v)
                    for owner, (u, v) in zip(owners, edges)
                )
                if not is_unilateral_remove_equilibrium(state, assignment):
                    all_assignments_stable = False
                    break
            assert all_assignments_stable == is_remove_equilibrium(state)
