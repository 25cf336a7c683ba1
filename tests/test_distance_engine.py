"""Property tests for the incremental distance engine.

The contract under test: after any sequence of ``apply_add`` /
``apply_remove`` / ``apply_swap`` the in-place matrix is **bit-identical**
to a fresh :func:`~repro.graphs.distances.apsp_matrix` of the mutated graph,
``undo`` restores everything exactly (LIFO), and a whole dynamics trajectory
performs exactly one full APSP build.
"""

import random

import networkx as nx
import numpy as np
import pytest

from repro.core.concepts import Concept
from repro.core.moves import AddEdge, RemoveEdge, Swap
from repro.core.state import GameState
from repro.dynamics.engine import run_dynamics
from repro.equilibria.registry import check
from repro.graphs.distances import DistanceMatrix, apsp_matrix
from repro.graphs.generation import random_connected_gnp, random_tree

from tests.meters import meter

UNREACHABLE = 10**6


def random_trajectory(dm: DistanceMatrix, graph: nx.Graph, rng, steps: int):
    """Apply ``steps`` random legal mutations, checking exactness after each.

    Returns the undo tokens in application order.
    """
    tokens = []
    for _ in range(steps):
        edges = list(graph.edges)
        non_edges = [
            (u, v)
            for u in graph
            for v in graph
            if u < v and not graph.has_edge(u, v)
        ]
        kind = rng.random()
        if kind < 0.4 and non_edges:
            tokens.append(dm.apply_add(*rng.choice(non_edges)))
        elif kind < 0.75 and edges:
            tokens.append(dm.apply_remove(*rng.choice(edges)))
        elif edges:
            actor, old = rng.choice(edges)
            candidates = [
                w
                for w in graph
                if w != actor and not graph.has_edge(actor, w)
            ]
            if not candidates:
                continue
            tokens.append(dm.apply_swap(actor, old, rng.choice(candidates)))
        else:
            continue
        fresh = apsp_matrix(graph, UNREACHABLE)
        assert (dm.matrix == fresh).all()
        assert dm.matrix.dtype == np.int64
    return tokens


class TestTrajectoriesBitIdentical:
    """100+ random move sequences, each verified move-by-move."""

    @pytest.mark.parametrize("family", ["gnp", "tree", "lattice"])
    def test_random_trajectories(self, family):
        family_offset = {"gnp": 0, "tree": 1000, "lattice": 2000}[family]
        for seed in range(40):
            rng = random.Random(family_offset + seed)
            if family == "gnp":
                graph = random_connected_gnp(
                    rng.randint(2, 10), rng.random() * 0.5, rng
                )
            elif family == "tree":
                graph = random_tree(rng.randint(2, 10), rng)
            else:
                side = rng.randint(2, 3)
                graph = nx.convert_node_labels_to_integers(
                    nx.grid_2d_graph(side, side + 1)
                )
            working = graph.copy()
            dm = DistanceMatrix(working, UNREACHABLE)
            random_trajectory(dm, working, rng, steps=8)

    def test_disconnection_and_reconnection(self):
        graph = nx.path_graph(5)
        dm = DistanceMatrix(graph, UNREACHABLE)
        dm.apply_remove(2, 3)  # splits the path
        assert dm.dist(0, 4) == UNREACHABLE
        assert (dm.matrix == apsp_matrix(graph, UNREACHABLE)).all()
        dm.apply_add(0, 4)  # reconnects the two halves: 2-1-0-4-3
        assert dm.dist(2, 3) == 4
        assert (dm.matrix == apsp_matrix(graph, UNREACHABLE)).all()

    def test_tree_removal_uses_exact_split(self):
        """Removing a tree edge marks exactly the cross pairs unreachable."""
        graph = nx.path_graph(6)
        dm = DistanceMatrix(graph, UNREACHABLE)
        dm.apply_remove(1, 2)
        fresh = apsp_matrix(graph, UNREACHABLE)
        assert (dm.matrix == fresh).all()
        assert dm.dist(0, 5) == UNREACHABLE
        assert dm.dist(0, 1) == 1
        assert dm.dist(2, 5) == 3


class TestUndo:
    def test_round_trip_restores_everything(self):
        for seed in range(30):
            rng = random.Random(seed)
            graph = random_connected_gnp(rng.randint(3, 9), 0.3, rng)
            working = graph.copy()
            dm = DistanceMatrix(working, UNREACHABLE)
            original = dm.matrix.copy()
            tokens = random_trajectory(dm, working, rng, steps=6)
            for token in reversed(tokens):
                dm.undo(token)
            assert (dm.matrix == original).all()
            assert sorted(map(sorted, working.edges)) == sorted(
                map(sorted, graph.edges)
            )

    def test_lifo_enforced(self):
        dm = DistanceMatrix(nx.cycle_graph(5), UNREACHABLE)
        first = dm.apply_remove(0, 1)
        dm.apply_add(0, 1)
        with pytest.raises(RuntimeError):
            dm.undo(first)

    def test_stale_token_rejected_after_undo(self):
        dm = DistanceMatrix(nx.cycle_graph(5), UNREACHABLE)
        token = dm.apply_remove(0, 1)
        dm.undo(token)
        with pytest.raises(RuntimeError):
            dm.undo(token)

    def test_swap_token_is_atomic(self):
        graph = nx.cycle_graph(6)
        dm = DistanceMatrix(graph, UNREACHABLE)
        original = dm.matrix.copy()
        token = dm.apply_swap(0, 1, 3)
        assert (dm.matrix == apsp_matrix(graph, UNREACHABLE)).all()
        dm.undo(token)
        assert (dm.matrix == original).all()
        assert graph.has_edge(0, 1) and not graph.has_edge(0, 3)

    def test_failed_swap_rolls_back_removal(self):
        graph = nx.cycle_graph(5)
        dm = DistanceMatrix(graph, UNREACHABLE)
        original = dm.matrix.copy()
        with pytest.raises(ValueError):
            dm.apply_swap(0, 1, 4)  # 0-4 already exists
        assert graph.has_edge(0, 1)
        assert (dm.matrix == original).all()


class TestValidation:
    def test_add_existing_edge_rejected(self):
        dm = DistanceMatrix(nx.path_graph(3), UNREACHABLE)
        with pytest.raises(ValueError):
            dm.apply_add(0, 1)

    def test_add_self_loop_rejected(self):
        dm = DistanceMatrix(nx.path_graph(3), UNREACHABLE)
        with pytest.raises(ValueError):
            dm.apply_add(1, 1)

    def test_remove_missing_edge_rejected(self):
        dm = DistanceMatrix(nx.path_graph(3), UNREACHABLE)
        with pytest.raises(ValueError):
            dm.apply_remove(0, 2)

    def test_tiny_sentinel_rejected(self):
        with pytest.raises(ValueError):
            DistanceMatrix(nx.path_graph(5), 3)

    def test_oversized_sentinel_rejected(self):
        with pytest.raises(ValueError):
            DistanceMatrix(nx.path_graph(3), 2**62)


class TestBigM:
    """Exact sentinel arithmetic near the fits_int64 boundary."""

    def test_gamestate_big_m_above_2_53(self):
        """Regression: the cached matrix must carry M exactly even when
        M > 2**53 (the old float64 round-trip corrupted it silently)."""
        alpha = 2**57
        graph = nx.empty_graph(3)
        graph.add_edge(0, 1)
        state = GameState(graph, alpha)
        assert state.m_constant > 2**53
        assert int(float(state.m_constant)) != state.m_constant
        assert state.dist.dist(0, 2) == state.m_constant
        assert state.dist_cost(2) == 2 * state.m_constant

    def test_incremental_updates_keep_big_sentinel_exact(self):
        alpha = 2**57
        graph = nx.empty_graph(3)
        graph.add_edge(0, 1)
        state = GameState(graph, alpha)
        m = state.m_constant
        dm = state.dist
        token = dm.apply_add(1, 2)  # connects everyone
        assert dm.dist(0, 2) == 2
        dm.undo(token)
        assert dm.dist(0, 2) == m
        token = dm.apply_remove(0, 1)
        assert dm.dist(0, 1) == m
        dm.undo(token)
        assert dm.dist(0, 1) == 1


class TestGameStateApply:
    def test_incremental_apply_matches_fresh_state(self):
        for seed in range(15):
            rng = random.Random(seed)
            graph = random_connected_gnp(8, 0.3, rng)
            state = GameState(graph, 2)
            state.dist  # materialise so the fast path engages
            for move in (
                AddEdge(*next(iter(state.non_edges()))),
                RemoveEdge(*list(state.graph.edges)[0]),
            ):
                after = state.apply(move)
                fresh = GameState(move.apply(state.graph), 2)
                assert sorted(map(sorted, after.graph.edges)) == sorted(
                    map(sorted, fresh.graph.edges)
                )
                assert (after.dist_matrix == fresh.dist_matrix).all()

    def test_predecessor_stays_correct_after_handoff(self):
        state = GameState(nx.path_graph(6), 2)
        before = state.dist_matrix.copy()
        successor = state.apply(AddEdge(0, 5))
        # the predecessor rebuilds lazily and still answers exactly
        assert (state.dist_matrix == before).all()
        assert state.graph.number_of_edges() == 5
        assert successor.graph.number_of_edges() == 6
        assert (
            successor.dist_matrix
            == apsp_matrix(successor.graph, successor.m_constant)
        ).all()

    def test_swap_move_applies_incrementally(self):
        state = GameState(nx.cycle_graph(7), 3)
        state.dist
        move = Swap(actor=0, old=1, new=3)
        after = state.apply(move)
        fresh = apsp_matrix(after.graph, after.m_constant)
        assert (after.dist_matrix == fresh).all()

    def test_apply_without_cache_falls_back(self):
        state = GameState(nx.path_graph(5), 1)
        assert state._dist is None
        after = state.apply(AddEdge(0, 4))
        assert after.graph.has_edge(0, 4)


class TestOneBuildPerTrajectory:
    def test_run_dynamics_builds_apsp_once(self):
        before = meter("repro_engine_apsp_builds_total")
        result = run_dynamics(
            nx.path_graph(8), 1, Concept.PS, max_rounds=100
        )
        assert result.rounds > 0  # the trajectory really moved
        assert meter("repro_engine_apsp_builds_total") - before == 1

    def test_bge_dynamics_with_swaps_builds_apsp_once(self):
        start = random_connected_gnp(9, 0.25, random.Random(3))
        before = meter("repro_engine_apsp_builds_total")
        result = run_dynamics(start, 2, Concept.BGE, max_rounds=60)
        assert meter("repro_engine_apsp_builds_total") - before == 1
        fresh = apsp_matrix(result.final.graph, result.final.m_constant)
        assert (result.final.dist_matrix == fresh).all()


POLYNOMIAL_CONCEPTS = (
    Concept.RE,
    Concept.BAE,
    Concept.PS,
    Concept.BSWE,
    Concept.BGE,
)


class TestTrajectoryProperties:
    """Dynamics under each registered concept keep the cache exact and
    stop at states the exact checkers certify."""

    @pytest.mark.parametrize("concept", POLYNOMIAL_CONCEPTS)
    def test_final_cache_equals_fresh_apsp(self, concept):
        for seed in range(6):
            rng = random.Random(seed)
            start = random_connected_gnp(8, 0.3, rng)
            result = run_dynamics(
                start, 2, concept, max_rounds=120, rng=rng
            )
            final = result.final
            fresh = apsp_matrix(final.graph, final.m_constant)
            assert (final.dist_matrix == fresh).all()
            if result.converged:
                assert check(final, concept)

    @pytest.mark.parametrize("concept", (Concept.BNE, Concept.BSE))
    def test_budgeted_concepts_keep_cache_exact(self, concept):
        for seed in range(3):
            rng = random.Random(seed)
            start = random_tree(7, rng)
            result = run_dynamics(
                start, 2, concept, max_rounds=40, rng=rng
            )
            final = result.final
            fresh = apsp_matrix(final.graph, final.m_constant)
            assert (final.dist_matrix == fresh).all()
