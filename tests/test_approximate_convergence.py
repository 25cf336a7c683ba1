"""Tests for beta-approximate stability and the convergence study."""

import random
from fractions import Fraction

import networkx as nx
import pytest

from repro.core.concepts import Concept
from repro.core.moves import AddEdge
from repro.core.state import GameState
from repro.dynamics.convergence import convergence_study
from repro.dynamics.movegen import improving_moves
from repro.equilibria.approximate import (
    is_approximate_equilibrium,
    move_improvement_factor,
    stability_factor,
)
from repro.equilibria.registry import check


class TestMoveImprovementFactor:
    def test_factor_above_one_for_improving_move(self):
        state = GameState(nx.path_graph(8), 1)
        move = AddEdge(0, 7)
        assert move_improvement_factor(state, move) > 1

    def test_factor_below_one_for_bad_move(self):
        state = GameState(nx.star_graph(5), 2)
        move = AddEdge(1, 2)  # leaf-to-leaf at alpha=2: loses money
        assert move_improvement_factor(state, move) < 1

    def test_exact_fraction_arithmetic(self):
        state = GameState(nx.path_graph(4), 1)
        move = AddEdge(0, 3)
        factor = move_improvement_factor(state, move)
        assert isinstance(factor, Fraction)
        # agent 0: cost 1 + 6 = 7 before; after: 2 + (1+1+2)... closing
        # P4 into C4: dist(0) = 1+2+1 = 4, cost = 2*1 + 4 = 6
        assert factor == Fraction(7, 6)


class TestApproximateEquilibrium:
    def test_beta_one_matches_exact(self):
        for alpha in (1, 2, 5):
            for graph in (nx.path_graph(6), nx.star_graph(5),
                          nx.cycle_graph(6)):
                state = GameState(graph, alpha)
                assert is_approximate_equilibrium(
                    state, Concept.PS, 1
                ) == check(state, Concept.PS)

    def test_monotone_in_beta(self):
        state = GameState(nx.path_graph(8), 1)
        factors = [
            is_approximate_equilibrium(state, Concept.PS, beta)
            for beta in (1, Fraction(3, 2), 2, 5, 100)
        ]
        # once approximately stable, larger beta stays stable
        first_true = factors.index(True) if True in factors else len(factors)
        assert all(factors[first_true:])

    def test_star_is_one_stable(self):
        state = GameState(nx.star_graph(7), 2)
        assert is_approximate_equilibrium(state, Concept.BGE, 1)

    def test_rejects_beta_below_one(self):
        state = GameState(nx.path_graph(3), 1)
        with pytest.raises(ValueError):
            is_approximate_equilibrium(state, Concept.PS, Fraction(1, 2))


class TestStabilityFactor:
    def test_equilibrium_has_factor_one(self):
        state = GameState(nx.star_graph(6), 2)
        assert stability_factor(state, Concept.PS) == 1

    def test_unstable_state_has_factor_above_one(self):
        state = GameState(nx.path_graph(9), 1)
        assert stability_factor(state, Concept.PS) > 1

    def test_factor_stabilises_the_state(self):
        state = GameState(nx.path_graph(9), 1)
        beta = stability_factor(state, Concept.PS)
        assert is_approximate_equilibrium(state, Concept.PS, beta)

    def test_matches_worst_generated_move(self):
        state = GameState(nx.path_graph(7), 1)
        worst = max(
            move_improvement_factor(state, move)
            for move in improving_moves(state, Concept.PS)
        )
        assert stability_factor(state, Concept.PS) == worst


class TestConvergenceStudy:
    def test_ps_study_on_small_trees(self):
        stats = convergence_study(Concept.PS, n=8, alpha=3, runs=6, seed=1)
        assert stats.runs == 6
        assert stats.mean_final_rho >= 1
        assert stats.worst_final_rho >= stats.mean_final_rho - 1e-12

    def test_started_at_equilibrium_counts_converged(self):
        stats = convergence_study(
            Concept.PS, n=6, alpha=2, runs=3, seed=2,
            start_factory=lambda rng: nx.star_graph(5),
        )
        assert stats.converged == 3
        assert stats.mean_rounds == 0
        assert stats.mean_start_instability == 1

    def test_deterministic_given_seed(self):
        a = convergence_study(Concept.BGE, n=7, alpha=2, runs=4, seed=9)
        b = convergence_study(Concept.BGE, n=7, alpha=2, runs=4, seed=9)
        assert a == b
