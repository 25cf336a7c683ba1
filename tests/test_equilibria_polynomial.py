"""Cross-validation of the polynomial checkers (RE, BAE, AE, BSwE, PS, BGE)
against naive recompute-everything references, over exhaustive enumerations
of small graphs and a grid of edge prices."""

from fractions import Fraction

import networkx as nx
import pytest

from repro.core.state import GameState
from repro.equilibria.add import (
    add_gain,
    find_improving_bilateral_add,
    find_improving_unilateral_add,
    is_bilateral_add_equilibrium,
    is_unilateral_add_equilibrium,
)
from repro.equilibria.certificates import validate_certificate
from repro.equilibria.pairwise import (
    is_bilateral_greedy_equilibrium,
    is_pairwise_stable,
)
from repro.equilibria.remove import (
    find_improving_removal,
    is_remove_equilibrium,
    removal_loss,
)
from repro.equilibria.swap import (
    find_improving_swap,
    is_bilateral_swap_equilibrium,
    swap_gains,
)
from repro.graphs.generation import all_connected_graphs, all_trees

from tests.reference import (
    naive_is_bge,
    naive_is_bilateral_add_equilibrium,
    naive_is_bilateral_swap_equilibrium,
    naive_is_pairwise_stable,
    naive_is_remove_equilibrium,
    naive_is_unilateral_add_equilibrium,
)

ALPHAS = [Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(7, 2), 5, 9]


def enumerate_states(n: int, trees_only: bool = False):
    source = all_trees(n) if trees_only else all_connected_graphs(n)
    for graph in source:
        for alpha in ALPHAS:
            yield GameState(graph, alpha)


class TestRemoveEquilibrium:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_naive_on_all_graphs(self, n):
        for state in enumerate_states(n):
            assert is_remove_equilibrium(state) == naive_is_remove_equilibrium(
                state
            ), (sorted(state.graph.edges), state.alpha)

    def test_trees_always_re(self):
        for n in (2, 4, 7):
            for graph in all_trees(n):
                assert is_remove_equilibrium(GameState(graph, Fraction(1, 10)))

    def test_certificate_validates(self):
        state = GameState(nx.complete_graph(5), 3)
        move = find_improving_removal(state)
        assert move is not None
        assert validate_certificate(state, move)

    def test_removal_loss_on_cycle(self):
        state = GameState(nx.cycle_graph(6), 2)
        assert removal_loss(state, 0, 1) == 6  # n(n-2)/4 for even n

    def test_cycle_re_boundary(self):
        """C6 is in RE exactly for alpha <= 6 (loss = 6, strictness)."""
        assert is_remove_equilibrium(GameState(nx.cycle_graph(6), 6))
        assert not is_remove_equilibrium(
            GameState(nx.cycle_graph(6), Fraction(13, 2))
        )


class TestBilateralAddEquilibrium:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_naive_on_all_graphs(self, n):
        for state in enumerate_states(n):
            assert (
                is_bilateral_add_equilibrium(state)
                == naive_is_bilateral_add_equilibrium(state)
            ), (sorted(state.graph.edges), state.alpha)

    def test_certificate_validates(self):
        state = GameState(nx.path_graph(8), 1)
        move = find_improving_bilateral_add(state)
        assert move is not None
        assert validate_certificate(state, move)

    def test_path_ends_join_at_low_alpha(self):
        state = GameState(nx.path_graph(6), 2)
        move = find_improving_bilateral_add(state)
        assert move is not None

    def test_star_is_bae_above_one(self):
        assert is_bilateral_add_equilibrium(GameState(nx.star_graph(7), 2))

    def test_star_not_bae_below_one(self):
        assert not is_bilateral_add_equilibrium(
            GameState(nx.star_graph(7), Fraction(1, 2))
        )

    def test_disconnected_components_reconnect(self):
        graph = nx.empty_graph(4)
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        state = GameState(graph, 100)
        move = find_improving_bilateral_add(state)
        assert move is not None  # M dominates any alpha


class TestUnilateralAddEquilibrium:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_naive_on_all_graphs(self, n):
        for state in enumerate_states(n):
            assert (
                is_unilateral_add_equilibrium(state)
                == naive_is_unilateral_add_equilibrium(state)
            ), (sorted(state.graph.edges), state.alpha)

    def test_unilateral_implies_bilateral(self):
        """Proposition 2.1's easy direction on enumerated graphs."""
        for state in enumerate_states(5):
            if is_unilateral_add_equilibrium(state):
                assert is_bilateral_add_equilibrium(state)

    def test_certificate_validates_buyer_gain(self):
        state = GameState(nx.path_graph(9), 2)
        move = find_improving_unilateral_add(state)
        assert move is not None
        gain = max(
            add_gain(state, move.u, move.v),
            add_gain(state, move.v, move.u),
        )
        assert gain > state.alpha


class TestBilateralSwapEquilibrium:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_naive_on_all_graphs(self, n):
        for state in enumerate_states(n):
            assert (
                is_bilateral_swap_equilibrium(state)
                == naive_is_bilateral_swap_equilibrium(state)
            ), (sorted(state.graph.edges), state.alpha)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_matches_naive_on_trees(self, n):
        for state in enumerate_states(n, trees_only=True):
            assert (
                is_bilateral_swap_equilibrium(state)
                == naive_is_bilateral_swap_equilibrium(state)
            ), (sorted(state.graph.edges), state.alpha)

    def test_certificate_validates(self):
        # a long path at moderate alpha invites swaps towards the middle
        state = GameState(nx.path_graph(9), 3)
        move = find_improving_swap(state)
        if move is not None:
            assert validate_certificate(state, move)

    def test_swap_gains_match_definitions(self):
        state = GameState(nx.path_graph(6), 2)
        gain_actor, gain_new = swap_gains(state, 0, 1, 3)
        mutated = state.graph.copy()
        mutated.remove_edge(0, 1)
        mutated.add_edge(0, 3)
        after = GameState(mutated, 2)
        assert gain_actor == state.dist_cost(0) - after.dist_cost(0)
        assert gain_new == state.dist_cost(3) - after.dist_cost(3)

    def test_star_is_bswe(self):
        assert is_bilateral_swap_equilibrium(GameState(nx.star_graph(9), 2))


class TestComposites:
    @pytest.mark.parametrize("n", [4, 5])
    def test_ps_matches_naive(self, n):
        for state in enumerate_states(n):
            assert is_pairwise_stable(state) == naive_is_pairwise_stable(
                state
            ), (sorted(state.graph.edges), state.alpha)

    @pytest.mark.parametrize("n", [4, 5])
    def test_bge_matches_naive(self, n):
        for state in enumerate_states(n):
            assert (
                is_bilateral_greedy_equilibrium(state) == naive_is_bge(state)
            ), (sorted(state.graph.edges), state.alpha)

    def test_bge_check_builds_one_add_gain_matrix(self, monkeypatch):
        """The addition check and the swap scan share one ``G``."""
        from repro.core import batch

        state = GameState(nx.cycle_graph(6), 5)  # pairwise stable, cyclic
        assert is_pairwise_stable(state)
        builds = []
        kernel = batch.batch_add_gains

        def counted(*args):
            builds.append(args)
            return kernel(*args)

        monkeypatch.setattr(batch, "batch_add_gains", counted)
        is_bilateral_greedy_equilibrium(state)
        assert len(builds) == 1

    def test_star_stable_for_everything(self):
        """Footnote 6: for alpha >= 1 the star is stable for all concepts."""
        for alpha in (1, 2, 10, 1000):
            state = GameState(nx.star_graph(8), alpha)
            assert is_remove_equilibrium(state)
            assert is_bilateral_add_equilibrium(state)
            assert is_pairwise_stable(state)
            assert is_bilateral_swap_equilibrium(state)
            assert is_bilateral_greedy_equilibrium(state)


@pytest.mark.slow
class TestSwapCheckerSixNodeAtlas:
    """Harden the general-graph swap path on the full 112-graph atlas."""

    def test_matches_naive_on_six_node_graphs(self):
        for state in enumerate_states(6):
            assert (
                is_bilateral_swap_equilibrium(state)
                == naive_is_bilateral_swap_equilibrium(state)
            ), (sorted(state.graph.edges), state.alpha)


@pytest.mark.slow
class TestPairwiseSixNodeAtlas:
    def test_ps_matches_naive_on_six_node_graphs(self):
        for state in enumerate_states(6):
            assert is_pairwise_stable(state) == naive_is_pairwise_stable(
                state
            ), (sorted(state.graph.edges), state.alpha)
