"""Tests for the exponential checkers: BNE, k-BSE / BSE, unilateral NE.

Independent brute-force references here enumerate *reachable graphs* rather
than move tuples, so they share no code path with the library's checkers.
"""

import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest

from repro.core.moves import CoalitionMove, NeighborhoodMove
from repro.core.state import GameState
from repro.equilibria.certificates import validate_certificate
from repro.equilibria.neighborhood import (
    SearchBudgetExceeded,
    find_improving_neighborhood_move,
    is_neighborhood_equilibrium,
    partner_gain_upper_bound,
    probe_neighborhood_moves,
    willing_partners,
)
from repro.equilibria.strong import (
    find_improving_coalition_move,
    is_k_strong_equilibrium,
    is_strong_equilibrium,
    probe_coalition_moves,
)
from repro.graphs.generation import all_connected_graphs

from tests.meters import meter
from tests.reference import naive_cost

ALPHAS = [Fraction(1, 2), 1, 2, Fraction(7, 2), 6]


def naive_is_bne(state: GameState) -> bool:
    """Enumerate every (R, A) pair around every center, no pruning."""
    for center in range(state.n):
        neighbors = sorted(state.graph.neighbors(center))
        others = [
            v
            for v in range(state.n)
            if v != center and not state.graph.has_edge(center, v)
        ]
        for r_size in range(len(neighbors) + 1):
            for removed in itertools.combinations(neighbors, r_size):
                for a_size in range(len(others) + 1):
                    for added in itertools.combinations(others, a_size):
                        if not removed and not added:
                            continue
                        mutated = state.graph.copy()
                        for partner in removed:
                            mutated.remove_edge(center, partner)
                        for partner in added:
                            mutated.add_edge(center, partner)
                        agents = (center, *added)
                        if all(
                            naive_cost(
                                mutated, state.alpha, agent, state.m_constant
                            )
                            < naive_cost(
                                state.graph,
                                state.alpha,
                                agent,
                                state.m_constant,
                            )
                            for agent in agents
                        ):
                            return False
    return True


def naive_is_k_bse(state: GameState, k: int) -> bool:
    """Enumerate coalitions and *reachable graphs* over the full edge space."""
    nodes = list(range(state.n))
    all_pairs = list(itertools.combinations(nodes, 2))
    current = {tuple(sorted(edge)) for edge in state.graph.edges}
    for size in range(1, min(k, state.n) + 1):
        for coalition in itertools.combinations(nodes, size):
            members = set(coalition)
            for keep in itertools.chain.from_iterable(
                itertools.combinations(all_pairs, r)
                for r in range(len(all_pairs) + 1)
            ):
                target = set(keep)
                if target == current:
                    continue
                removed = current - target
                added = target - current
                if any(u not in members and v not in members for u, v in removed):
                    continue
                if any(u not in members or v not in members for u, v in added):
                    continue
                mutated = nx.Graph()
                mutated.add_nodes_from(nodes)
                mutated.add_edges_from(target)
                if all(
                    naive_cost(mutated, state.alpha, agent, state.m_constant)
                    < naive_cost(
                        state.graph, state.alpha, agent, state.m_constant
                    )
                    for agent in coalition
                ):
                    return False
    return True


class TestNeighborhoodEquilibrium:
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_naive_on_all_graphs(self, n):
        for graph in all_connected_graphs(n):
            for alpha in ALPHAS:
                state = GameState(graph, alpha)
                assert is_neighborhood_equilibrium(state) == naive_is_bne(
                    state
                ), (sorted(graph.edges), alpha)

    @pytest.mark.slow
    def test_matches_naive_on_five_nodes(self):
        for graph in all_connected_graphs(5):
            for alpha in (1, 2, Fraction(7, 2)):
                state = GameState(graph, alpha)
                assert is_neighborhood_equilibrium(state) == naive_is_bne(
                    state
                ), (sorted(graph.edges), alpha)

    def test_certificate_validates(self):
        state = GameState(nx.path_graph(7), 2)
        move = find_improving_neighborhood_move(state)
        if move is not None:
            assert validate_certificate(state, move)

    def test_star_is_bne(self):
        assert is_neighborhood_equilibrium(GameState(nx.star_graph(6), 2))

    def test_partner_bound_is_sound(self, rng):
        """The willing-partner bound never underestimates a realised gain."""
        state = GameState(nx.path_graph(8), 2)
        for center in range(state.n):
            for partner in range(state.n):
                if partner == center or state.graph.has_edge(center, partner):
                    continue
                move = NeighborhoodMove(
                    center=center, removed=(), added=(partner,)
                )
                mutated = move.apply(state.graph)
                gain = state.dist_cost(partner) - int(
                    naive_cost(mutated, Fraction(0), partner, state.m_constant)
                )
                assert gain <= partner_gain_upper_bound(state, partner, center)

    def test_willing_partners_subset_of_nonneighbors(self):
        state = GameState(nx.path_graph(8), 1)
        for center in range(state.n):
            for partner in willing_partners(state, center):
                assert partner != center
                assert not state.graph.has_edge(center, partner)

    def test_budget_guard_raises(self):
        state = GameState(nx.star_graph(40), Fraction(1, 2))
        with pytest.raises(SearchBudgetExceeded):
            find_improving_neighborhood_move(state, max_evaluations=10)

    def test_probe_finds_known_violation(self, rng):
        """On a long path at alpha=1, random probing finds a move."""
        state = GameState(nx.path_graph(10), 1)
        move = probe_neighborhood_moves(state, rng, samples=3000)
        assert move is not None
        assert validate_certificate(state, move)


class TestKStrongEquilibrium:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_naive(self, n, k):
        for graph in all_connected_graphs(n):
            for alpha in ALPHAS:
                state = GameState(graph, alpha)
                assert is_k_strong_equilibrium(state, k) == naive_is_k_bse(
                    state, k
                ), (sorted(graph.edges), alpha, k)

    def test_monotone_in_k(self):
        """(k+1)-BSE is contained in k-BSE."""
        for graph in all_connected_graphs(5):
            state = GameState(graph, 2)
            stable = [is_k_strong_equilibrium(state, k) for k in (1, 2, 3)]
            for weaker, stronger in zip(stable, stable[1:]):
                if stronger:
                    assert weaker

    def test_certificate_validates(self):
        state = GameState(nx.path_graph(6), 2)
        move = find_improving_coalition_move(state, 3)
        if move is not None:
            assert validate_certificate(state, move)

    def test_star_is_bse(self):
        assert is_strong_equilibrium(GameState(nx.star_graph(5), 3))

    def test_probe_finds_known_violation(self, rng):
        state = GameState(nx.path_graph(8), 1)
        move = probe_coalition_moves(
            state, rng, max_coalition_size=2, samples=4000
        )
        assert move is not None
        assert validate_certificate(state, move)

    def test_cycle_window_lemma_2_4(self):
        """C5: stable inside the corrected window (2, 4], unstable outside."""
        assert is_strong_equilibrium(GameState(nx.cycle_graph(5), 3))
        assert is_strong_equilibrium(GameState(nx.cycle_graph(5), 4))
        assert not is_strong_equilibrium(
            GameState(nx.cycle_graph(5), Fraction(9, 2))
        )

    @pytest.mark.slow
    def test_cycle_window_even(self):
        """C6: paper window (4, 6] is confirmed exactly."""
        assert is_strong_equilibrium(
            GameState(nx.cycle_graph(6), 5), max_evaluations=50_000_000
        )
        assert not is_strong_equilibrium(
            GameState(nx.cycle_graph(6), Fraction(13, 2)),
            max_evaluations=50_000_000,
        )


class TestFoldGateOnGeneralGraphs:
    """The fold DFS gate is per-coalition, not global: any coalition whose
    removable edges are all bridges takes the fully query-based fold path
    even on a cyclic host graph (dispatch spy-counted), and both DFS paths
    return identical moves."""

    @staticmethod
    def _lollipop():
        graph = nx.Graph(
            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]
        )  # triangle core + pendant path: cyclic, tail edges are bridges
        return GameState(graph, 2)

    def test_all_bridge_coalitions_take_fold_path(self):
        from repro.core.speculative import SpeculativeEvaluator
        from repro.equilibria import strong

        state = self._lollipop()
        spec = SpeculativeEvaluator(state)
        bridges = {tuple(sorted(edge)) for edge in nx.bridges(state.graph)}
        assert bridges == {(2, 3), (3, 4)}
        fold_seen = engine_seen = 0
        for coalition in itertools.combinations(range(state.n), 2):
            removable, addable = strong._coalition_edge_space(
                state, coalition
            )
            all_bridges = all(edge in bridges for edge in removable)
            fold = meter("repro_strong_fold_dfs_runs_total")
            engine = meter("repro_strong_engine_dfs_runs_total")
            strong._dfs_coalition_space(
                spec, coalition, removable, addable, bridges
            )
            fold_delta = meter("repro_strong_fold_dfs_runs_total") - fold
            engine_delta = meter("repro_strong_engine_dfs_runs_total") - engine
            if all_bridges:
                # the gate must never refuse a splittable coalition
                assert (fold_delta, engine_delta) == (1, 0), coalition
                fold_seen += 1
            else:
                assert (fold_delta, engine_delta) == (0, 1), coalition
                engine_seen += 1
        assert fold_seen > 0 and engine_seen > 0  # both regimes exercised

    def test_fold_and_engine_paths_agree_on_cyclic_graphs(self, monkeypatch):
        from repro.graphs import bridges

        for alpha in (Fraction(1, 2), 2, 5):
            state = GameState(self._lollipop().graph, alpha)
            gated = find_improving_coalition_move(state, 2)
            # force the engine path (no bridge admits a fold split) and
            # compare verdicts
            monkeypatch.setattr(
                bridges, "component_bridges", lambda adj, roots: set()
            )
            engine = find_improving_coalition_move(state, 2)
            monkeypatch.undo()
            assert gated == engine
