"""Tests for the frozen figure graphs — every claim the paper's proofs make
about these instances is re-checked exactly."""

from fractions import Fraction

import pytest

from repro.constructions.figures import (
    figure2_nash_not_pairwise_stable,
    figure5_bae_bge_not_bne,
    figure6_bne_not_2bse,
    figure7_kbse_not_bne,
    figure8_bae_not_unilateral_ae,
)
from repro.core.costs import all_strictly_improve
from repro.core.moves import NeighborhoodMove
from repro.core.state import GameState
from repro.equilibria.add import (
    add_gain,
    is_bilateral_add_equilibrium,
    is_unilateral_add_equilibrium,
)
from repro.equilibria.nash import is_nash_equilibrium
from repro.equilibria.neighborhood import is_neighborhood_equilibrium
from repro.equilibria.pairwise import (
    is_bilateral_greedy_equilibrium,
    is_pairwise_stable,
)
from repro.equilibria.remove import removal_loss
from repro.equilibria.strong import (
    find_improving_coalition_move,
    is_k_strong_equilibrium,
)


class TestFigure2:
    """Proposition 2.3: the Corbo–Parkes conjecture is false."""

    def test_is_unilateral_nash_equilibrium(self):
        fig = figure2_nash_not_pairwise_stable()
        state = GameState(fig.graph, fig.alpha)
        assert is_nash_equilibrium(state, fig.assignment)

    def test_not_pairwise_stable(self):
        fig = figure2_nash_not_pairwise_stable()
        state = GameState(fig.graph, fig.alpha)
        assert not is_pairwise_stable(state)

    def test_the_break_is_a_removal_by_the_non_owner(self):
        fig = figure2_nash_not_pairwise_stable()
        state = GameState(fig.graph, fig.alpha)
        a, b = fig.node("a"), fig.node("b")
        assert fig.assignment.owner[(a, b)] == b  # b owns; a is free-riding
        assert removal_loss(state, a, b) < state.alpha  # a drops it bilaterally


class TestFigure5:
    """Proposition A.4: BAE ∩ BGE does not imply BNE."""

    @pytest.fixture(scope="class")
    def fig(self):
        return figure5_bae_bge_not_bne()

    @pytest.fixture(scope="class")
    def state(self, fig):
        return GameState(fig.graph, fig.alpha)

    def test_in_bae(self, state):
        assert is_bilateral_add_equilibrium(state)

    def test_in_bge(self, state):
        assert is_bilateral_greedy_equilibrium(state)

    def test_single_swap_gain_is_exactly_104(self, fig, state):
        """The proof: swapping a-b1 for a-c1 reduces c1's cost by only 104."""
        from repro.equilibria.swap import swap_gains

        a, b1, c1 = fig.node("a"), fig.node("b1"), fig.node("c1")
        _, gain_c1 = swap_gains(state, a, b1, c1)
        assert gain_c1 == 104
        assert gain_c1 < state.alpha  # 104 < 104.5

    def test_double_swap_breaks_bne(self, fig, state):
        """The neighborhood move: a swaps both b's for both c's; the c_i
        gain 105 > alpha and a gains 2."""
        move = NeighborhoodMove(
            center=fig.node("a"),
            removed=(fig.node("b1"), fig.node("b2")),
            added=(fig.node("c1"), fig.node("c2")),
        )
        after = move.apply(state.graph)
        assert all_strictly_improve(state, after, move.beneficiaries())

    def test_c1_gain_in_double_swap_is_105(self, fig, state):
        move = NeighborhoodMove(
            center=fig.node("a"),
            removed=(fig.node("b1"), fig.node("b2")),
            added=(fig.node("c1"), fig.node("c2")),
        )
        after = GameState(move.apply(state.graph), fig.alpha)
        c1 = fig.node("c1")
        assert state.dist_cost(c1) - after.dist_cost(c1) == 105


class TestFigure6:
    """Proposition A.5: BNE does not imply 2-BSE."""

    @pytest.fixture(scope="class")
    def fig(self):
        return figure6_bne_not_2bse()

    @pytest.fixture(scope="class")
    def state(self, fig):
        return GameState(fig.graph, fig.alpha)

    def test_paper_distance_costs(self, fig, state):
        assert state.dist_cost(fig.node("a1")) == 19
        assert state.dist_cost(fig.node("b1")) == 27
        assert state.dist_cost(fig.node("c1")) == 19

    def test_in_bne(self, state):
        assert is_neighborhood_equilibrium(state)

    def test_not_in_2bse(self, state):
        assert not is_k_strong_equilibrium(state, 2)

    def test_paper_coalition_is_the_break(self, fig, state):
        """{a1, a3}: drop a1-c1 and a3-c2, add a1-a3."""
        move = find_improving_coalition_move(state, 2)
        assert move is not None
        assert set(move.coalition) == {fig.node("a1"), fig.node("a3")}

    def test_symmetry_of_node_classes(self, state, fig):
        for group in (("a1", "a2", "a3", "a4"), ("b1", "b2", "b3", "b4"),
                      ("c1", "c2")):
            costs = {state.cost(fig.node(name)) for name in group}
            assert len(costs) == 1


class TestFigure7:
    """Proposition A.7: k-BSE does not imply BNE."""

    def test_center_neighborhood_move_improves(self):
        fig = figure7_kbse_not_bne(i=12)
        state = GameState(fig.graph, fig.alpha)
        move = NeighborhoodMove(
            center=fig.node("a"),
            removed=tuple(fig.node(f"b{j}") for j in range(1, 13)),
            added=tuple(fig.node(f"c{j}") for j in range(1, 13)),
        )
        after = move.apply(state.graph)
        assert all_strictly_improve(state, after, move.beneficiaries())

    def test_c_gain_matches_proof_formula(self):
        """c's distance cost falls from 4 + 12(i-1) to 3 + 8(i-1)."""
        i = 10
        fig = figure7_kbse_not_bne(i=i)
        state = GameState(fig.graph, fig.alpha)
        c1 = fig.node("c1")
        assert state.dist_cost(c1) == 4 + 12 * (i - 1)
        move = NeighborhoodMove(
            center=fig.node("a"),
            removed=tuple(fig.node(f"b{j}") for j in range(1, i + 1)),
            added=tuple(fig.node(f"c{j}") for j in range(1, i + 1)),
        )
        after = GameState(move.apply(state.graph), fig.alpha)
        assert after.dist_cost(c1) == 3 + 8 * (i - 1)

    @pytest.mark.slow
    def test_small_instance_is_2bse(self):
        """A scaled-down instance (i = 6) is exactly 2-BSE-stable."""
        fig = figure7_kbse_not_bne(i=6)
        state = GameState(fig.graph, fig.alpha)
        assert is_k_strong_equilibrium(state, 2, max_evaluations=20_000_000)


class TestFigure8:
    """Proposition 2.1: BAE does not imply unilateral AE."""

    @pytest.fixture(scope="class")
    def fig(self):
        return figure8_bae_not_unilateral_ae()

    @pytest.fixture(scope="class")
    def state(self, fig):
        return GameState(fig.graph, fig.alpha)

    def test_in_bae(self, state):
        assert is_bilateral_add_equilibrium(state)

    def test_not_in_unilateral_ae(self, state):
        assert not is_unilateral_add_equilibrium(state)

    def test_a1_buys_towards_hub(self, fig, state):
        """a1's solo gain from the edge to d dwarfs alpha."""
        gain = add_gain(state, fig.node("a1"), fig.node("d"))
        assert gain > state.alpha

    def test_d_would_not_reciprocate(self, fig, state):
        """d's own gain from that edge stays below alpha (paper: 'connecting
        to a only reduces its distance cost by 2')."""
        gain = add_gain(state, fig.node("d"), fig.node("a1"))
        assert gain == 2
        assert gain < state.alpha
