"""Tests for the speculative evaluation kernel and live row values.

Four contracts are pinned here:

* :class:`~repro.core.speculative.SpeculativeEvaluator` cost deltas are
  bit-identical to from-scratch recomputation for every move type, and
  every speculation scope (including nested and exception-unwound ones)
  restores the engine exactly;
* row values read off the live ``DistanceMatrix`` match fresh row sums
  along apply / undo trajectories;
* the refactored BNE / coalition searchers perform no full APSP builds
  beyond the one that materialises the state's matrix (spy-counted) and
  raise :class:`SearchBudgetExceeded` at exactly the same budget
  thresholds as verbatim pre-refactor reference implementations;
* ``swap_gains`` agrees bit-for-bit with the old two-BFS reference, and
  the probes are reproducible from an integer seed.
"""

import random
from fractions import Fraction

import networkx as nx
import pytest

from repro.core.costmodel import UNIFORM_LINEAR
from repro.core.moves import (
    AddEdge,
    CoalitionMove,
    NeighborhoodMove,
    RemoveEdge,
    Swap,
)
from repro.core.speculative import SpeculativeEvaluator
from repro.core.state import GameState
from repro.equilibria.neighborhood import (
    SearchBudgetExceeded,
    find_improving_neighborhood_move,
    probe_neighborhood_moves,
)
from repro.equilibria.strong import (
    find_improving_coalition_move,
    probe_coalition_moves,
)
from repro.equilibria.swap import swap_gains
from repro.graphs.distances import (
    DistanceMatrix,
    apsp_matrix,
    single_source_distances,
)
from repro.graphs.generation import random_connected_gnp, random_tree

from tests.meters import meter
from tests.reference import (
    naive_cost,
    reference_find_improving_coalition_move,
    reference_find_improving_neighborhood_move,
)

UNREACHABLE = 10**6


def random_move(state: GameState, rng: random.Random):
    """A random legal move of a random type, or None if none is legal."""
    graph = state.graph
    edges = list(graph.edges)
    non_edges = [
        (u, v)
        for u in range(state.n)
        for v in range(u + 1, state.n)
        if not graph.has_edge(u, v)
    ]
    kind = rng.choice(["add", "remove", "swap", "neighborhood", "coalition"])
    if kind == "add" and non_edges:
        return AddEdge(*rng.choice(non_edges))
    if kind == "remove" and edges:
        return RemoveEdge(*rng.choice(edges))
    if kind == "swap" and edges:
        actor, old = rng.choice(edges)
        partners = [
            w
            for w in range(state.n)
            if w not in (actor, old) and not graph.has_edge(actor, w)
        ]
        if partners:
            return Swap(actor=actor, old=old, new=rng.choice(partners))
    if kind == "neighborhood":
        center = rng.randrange(state.n)
        neighbors = sorted(graph.neighbors(center))
        others = [
            v
            for v in range(state.n)
            if v != center and not graph.has_edge(center, v)
        ]
        removed = tuple(
            rng.sample(neighbors, rng.randint(0, min(2, len(neighbors))))
        )
        added = tuple(rng.sample(others, rng.randint(0, min(2, len(others)))))
        if removed or added:
            return NeighborhoodMove(center=center, removed=removed, added=added)
    if kind == "coalition" and state.n >= 2:
        coalition = tuple(
            sorted(rng.sample(range(state.n), rng.randint(1, min(3, state.n))))
        )
        members = set(coalition)
        removable = [
            (u, v) for u, v in edges if u in members or v in members
        ]
        addable = [
            (u, v) for u, v in non_edges if u in members and v in members
        ]
        removed = tuple(
            rng.sample(removable, rng.randint(0, min(2, len(removable))))
        )
        added = tuple(
            rng.sample(addable, rng.randint(0, min(2, len(addable))))
        )
        if removed or added:
            return CoalitionMove(
                coalition=coalition,
                removed_edges=removed,
                added_edges=added,
            )
    return None


class TestKernelExactness:
    def test_cost_deltas_match_fresh_recomputation(self):
        """Kernel deltas == naive BFS costs for every move type."""
        for seed in range(30):
            rng = random.Random(seed)
            graph = random_connected_gnp(rng.randint(4, 9), 0.4, rng)
            state = GameState(graph, Fraction(rng.randint(1, 9), 2))
            spec = SpeculativeEvaluator(state)
            for _ in range(8):
                move = random_move(state, rng)
                if move is None:
                    continue
                graph_after = move.apply(state.graph)
                evaluation = spec.evaluate(move)
                for agent, delta in evaluation.cost_deltas:
                    before = naive_cost(
                        state.graph, state.alpha, agent, state.m_constant
                    )
                    after = naive_cost(
                        graph_after, state.alpha, agent, state.m_constant
                    )
                    assert delta == after - before, (move, agent)
                assert evaluation.improving == all(
                    delta < 0 for _, delta in evaluation.cost_deltas
                )

    def test_move_improves_matches_validate_certificate(self):
        from repro.equilibria.certificates import validate_certificate

        for seed in range(20):
            rng = random.Random(100 + seed)
            graph = random_connected_gnp(rng.randint(4, 8), 0.5, rng)
            state = GameState(graph, 2)
            spec = SpeculativeEvaluator(state)
            move = random_move(state, rng)
            if move is None:
                continue
            assert spec.move_improves(move) == validate_certificate(
                state, move
            )

    def test_scope_restores_engine_bit_exactly(self):
        state = GameState(random_connected_gnp(8, 0.35, random.Random(7)), 2)
        spec = SpeculativeEvaluator(state)
        matrix_before = state.dist.matrix.copy()
        edges_before = sorted(map(sorted, state.graph.edges))
        with spec.applied([("remove", *list(state.graph.edges)[0])]):
            with spec.applied([("add", *next(iter(state.non_edges())))]):
                assert spec.depth == 2
        assert spec.depth == 0
        assert (state.dist.matrix == matrix_before).all()
        assert sorted(map(sorted, state.graph.edges)) == edges_before

    def test_exception_inside_scope_restores(self):
        state = GameState(nx.cycle_graph(6), 2)
        spec = SpeculativeEvaluator(state)
        matrix_before = state.dist.matrix.copy()
        with pytest.raises(RuntimeError, match="boom"):
            with spec.applied([("remove", 0, 1), ("add", 0, 3)]):
                raise RuntimeError("boom")
        assert spec.depth == 0
        assert (state.dist.matrix == matrix_before).all()
        assert state.graph.has_edge(0, 1) and not state.graph.has_edge(0, 3)

    def test_failing_mid_application_unwinds_partial_prefix(self):
        state = GameState(nx.cycle_graph(5), 2)
        spec = SpeculativeEvaluator(state)
        matrix_before = state.dist.matrix.copy()
        with pytest.raises(ValueError):
            with spec.applied([("remove", 0, 1), ("add", 0, 4)]):
                pass  # 0-4 exists: the second delta must fail
        assert spec.depth == 0
        assert (state.dist.matrix == matrix_before).all()
        assert state.graph.has_edge(0, 1)

    def test_best_keeps_largest_total_drop(self):
        state = GameState(nx.path_graph(7), 1)
        spec = SpeculativeEvaluator(state)
        moves = [AddEdge(0, 6), AddEdge(0, 3), AddEdge(2, 5)]
        chosen = spec.best(iter(moves))
        assert chosen is not None
        best_move, best_eval = chosen
        expected = min(
            (spec.evaluate(move).total_delta, i)
            for i, move in enumerate(moves)
        )
        assert best_eval.total_delta == expected[0]
        assert best_move == moves[expected[1]]
        assert spec.best(iter([])) is None

    def test_evaluation_counter(self):
        state = GameState(nx.path_graph(5), 2)
        spec = SpeculativeEvaluator(state)
        before = meter("repro_engine_apsp_builds_total")
        spec.evaluate(AddEdge(0, 4))
        spec.move_improves(RemoveEdge(1, 2))
        assert spec.evaluations == 2
        assert meter("repro_engine_apsp_builds_total") == before  # no rebuilds


def assert_totals_fresh(dm: DistanceMatrix, graph: nx.Graph) -> None:
    """Row values off the live matrix equal a fresh APSP's row sums."""
    fresh = apsp_matrix(graph, UNREACHABLE).sum(axis=1)
    assert (UNIFORM_LINEAR.rows_value(dm.matrix) == fresh).all()


class TestIncrementalTotals:
    def test_totals_match_fresh_sums_along_trajectory(self):
        for seed in range(15):
            rng = random.Random(seed)
            graph = random_connected_gnp(rng.randint(3, 9), 0.4, rng)
            dm = DistanceMatrix(graph, UNREACHABLE)
            assert_totals_fresh(dm, graph)
            tokens = []
            for _ in range(12):
                edges = list(graph.edges)
                non_edges = [
                    (u, v)
                    for u in graph
                    for v in graph
                    if u < v and not graph.has_edge(u, v)
                ]
                if rng.random() < 0.5 and non_edges:
                    tokens.append(dm.apply_add(*rng.choice(non_edges)))
                elif edges:
                    tokens.append(dm.apply_remove(*rng.choice(edges)))
                assert_totals_fresh(dm, graph)
            for token in reversed(tokens):
                dm.undo(token)
                assert_totals_fresh(dm, graph)

    def test_state_reads_stay_live_across_reused_versions(self):
        """``dist_cost`` and ``totals()`` read the live matrix: a
        speculated move shows, and so does a different move applied after
        an undo (it reuses the engine's version number)."""
        state = GameState(nx.path_graph(6), 2)
        spec = SpeculativeEvaluator(state)
        base = state.totals()
        for move in (AddEdge(0, 5), AddEdge(0, 3)):
            with spec.speculate(move):
                graph = move.apply(nx.path_graph(6))
                fresh = apsp_matrix(graph, state.m_constant).sum(axis=1)
                assert (state.totals() == fresh).all()
                assert state.dist_cost(0) == fresh[0]
        assert (state.totals() == base).all()

    def test_totals_snapshot_is_stable_across_apply(self):
        dm = DistanceMatrix(nx.cycle_graph(7), UNREACHABLE)
        snapshot = UNIFORM_LINEAR.rows_value(dm.matrix)
        token = dm.apply_remove(0, 1)
        live = UNIFORM_LINEAR.rows_value(dm.matrix)
        assert (snapshot != live).any()  # live totals moved on
        dm.undo(token)
        assert (snapshot == UNIFORM_LINEAR.rows_value(dm.matrix)).all()


class TestSearchersUseEngine:
    """Spy-counted: the searchers never rebuild the APSP matrix."""

    def test_bne_search_no_apsp_rebuilds(self):
        state = GameState(random_connected_gnp(9, 0.3, random.Random(3)), 2)
        state.dist  # materialise (one build)
        before = meter("repro_engine_apsp_builds_total")
        find_improving_neighborhood_move(state, max_evaluations=500_000)
        assert meter("repro_engine_apsp_builds_total") == before

    def test_coalition_search_no_apsp_rebuilds(self):
        state = GameState(nx.cycle_graph(7), 3)
        state.dist
        before = meter("repro_engine_apsp_builds_total")
        find_improving_coalition_move(state, 3)
        assert meter("repro_engine_apsp_builds_total") == before

    def test_probes_no_apsp_rebuilds(self):
        state = GameState(nx.path_graph(9), 1)
        state.dist
        before = meter("repro_engine_apsp_builds_total")
        probe_neighborhood_moves(state, 5, samples=200)
        probe_coalition_moves(state, 5, max_coalition_size=3, samples=200)
        assert meter("repro_engine_apsp_builds_total") == before


ALPHA_GRID = [Fraction(1, 2), 1, 2, Fraction(7, 2), 6]


class TestSearcherEquivalence:
    """New searchers vs verbatim pre-refactor references."""

    def test_bne_verdicts_match_reference(self):
        for seed in range(12):
            rng = random.Random(seed)
            graph = random_connected_gnp(rng.randint(4, 7), 0.45, rng)
            for alpha in ALPHA_GRID:
                state = GameState(graph, alpha)
                ours = find_improving_neighborhood_move(state)
                theirs = reference_find_improving_neighborhood_move(state)
                assert (ours is None) == (theirs is None), (seed, alpha)

    def test_coalition_verdicts_match_reference(self):
        for seed in range(10):
            rng = random.Random(50 + seed)
            graph = random_connected_gnp(rng.randint(4, 6), 0.5, rng)
            for alpha in ALPHA_GRID:
                state = GameState(graph, alpha)
                ours = find_improving_coalition_move(state, 3)
                theirs = reference_find_improving_coalition_move(state, 3)
                assert (ours is None) == (theirs is None), (seed, alpha)

    @pytest.mark.parametrize("family", ["path", "tree"])
    def test_capped_bne_verdicts_on_stable_trees(self, family):
        """At n = 24 every removal disconnects and alpha = 260 tops any
        addition gain, so both searchers walk the whole capped space
        (two partners added, two dropped) and call the tree stable."""
        graph = (
            nx.path_graph(24)
            if family == "path"
            else random_tree(24, random.Random(5))
        )
        state = GameState(graph, 260)
        caps = {"max_add": 2, "max_remove": 2, "max_evaluations": 50_000_000}
        assert find_improving_neighborhood_move(state, **caps) is None
        assert reference_find_improving_neighborhood_move(state, **caps) is None

    def test_sampled_coalition_verdicts_on_a_stable_tree(self):
        """100 seeded 3-coalitions of a 52-node tree at alpha = 3000:
        both searchers walk every coalition's whole move space."""
        rng = random.Random(9)
        state = GameState(random_tree(52, rng), 3000)
        coalitions = [
            tuple(sorted(rng.sample(range(52), 3))) for _ in range(100)
        ]
        budget = {"coalitions": coalitions, "max_evaluations": 500_000_000}
        assert find_improving_coalition_move(state, 3, **budget) is None
        assert (
            reference_find_improving_coalition_move(state, 3, **budget)
            is None
        )

    def test_bne_budget_thresholds_identical(self):
        """SearchBudgetExceeded fires at exactly the same budgets."""
        state = GameState(nx.star_graph(12), Fraction(1, 2))
        for budget in (0, 10, 1_000, 100_000, 10_000_000):
            raised_new = raised_ref = False
            try:
                find_improving_neighborhood_move(
                    state, max_evaluations=budget
                )
            except SearchBudgetExceeded:
                raised_new = True
            try:
                reference_find_improving_neighborhood_move(
                    state, max_evaluations=budget
                )
            except SearchBudgetExceeded:
                raised_ref = True
            assert raised_new == raised_ref, budget

    def test_coalition_budget_thresholds_identical(self):
        state = GameState(nx.cycle_graph(8), 3)
        for budget in (0, 5, 100, 4_000, 50_000, 5_000_000):
            raised_new = raised_ref = False
            try:
                find_improving_coalition_move(
                    state, 4, max_evaluations=budget
                )
            except SearchBudgetExceeded:
                raised_new = True
            try:
                reference_find_improving_coalition_move(
                    state, 4, max_evaluations=budget
                )
            except SearchBudgetExceeded:
                raised_ref = True
            assert raised_new == raised_ref, budget

    def test_found_moves_are_certified(self):
        from repro.equilibria.certificates import validate_certificate

        for seed in range(8):
            rng = random.Random(200 + seed)
            graph = random_tree(rng.randint(5, 8), rng)
            state = GameState(graph, 1)
            move = find_improving_neighborhood_move(state)
            if move is not None:
                assert validate_certificate(state, move)
            coalition = find_improving_coalition_move(state, 3)
            if coalition is not None:
                assert validate_certificate(state, coalition)


class TestSwapGainsRegression:
    def reference_swap_gains(self, state, actor, old, new):
        """The pre-refactor implementation: two fresh BFS runs."""
        graph = state.graph.copy()
        graph.remove_edge(actor, old)
        graph.add_edge(actor, new)
        unreachable = state.m_constant
        actor_after = int(
            single_source_distances(graph, actor, unreachable).sum()
        )
        new_after = int(
            single_source_distances(graph, new, unreachable).sum()
        )
        return (
            state.dist_cost(actor) - actor_after,
            state.dist_cost(new) - new_after,
        )

    def test_bit_identical_on_random_graphs(self):
        for seed in range(25):
            rng = random.Random(seed)
            graph = random_connected_gnp(rng.randint(4, 10), 0.4, rng)
            state = GameState(graph, Fraction(rng.randint(1, 7), 2))
            for _ in range(6):
                edges = list(state.graph.edges)
                actor, old = rng.choice(edges)
                partners = [
                    w
                    for w in range(state.n)
                    if w not in (actor, old)
                    and not state.graph.has_edge(actor, w)
                ]
                if not partners:
                    continue
                new = rng.choice(partners)
                assert swap_gains(
                    state, actor, old, new
                ) == self.reference_swap_gains(state, actor, old, new)

    def test_disconnecting_swap_gains_exact(self):
        """Swapping a bridge endpoint routes through M exactly."""
        state = GameState(nx.path_graph(6), 2)
        gains = swap_gains(state, 2, 3, 0)
        assert gains == self.reference_swap_gains(state, 2, 3, 0)


class TestSeededProbes:
    def test_int_seed_equals_random_instance(self):
        state = GameState(nx.path_graph(10), 1)
        by_seed = probe_neighborhood_moves(state, 7, samples=500)
        by_rng = probe_neighborhood_moves(
            state, random.Random(7), samples=500
        )
        assert by_seed == by_rng
        c_by_seed = probe_coalition_moves(
            state, 11, max_coalition_size=3, samples=500
        )
        c_by_rng = probe_coalition_moves(
            state, random.Random(11), max_coalition_size=3, samples=500
        )
        assert c_by_seed == c_by_rng

    def test_default_seed_is_deterministic(self):
        state = GameState(nx.path_graph(8), 1)
        assert probe_neighborhood_moves(
            state, samples=300
        ) == probe_neighborhood_moves(state, samples=300)

    def test_probe_results_are_certified(self):
        from repro.equilibria.certificates import validate_certificate

        state = GameState(nx.path_graph(10), 1)
        move = probe_neighborhood_moves(state, 3, samples=2000)
        assert move is not None and validate_certificate(state, move)

    def test_bad_rng_rejected(self):
        state = GameState(nx.path_graph(5), 1)
        with pytest.raises(TypeError):
            probe_neighborhood_moves(state, "seed")
        with pytest.raises(TypeError):
            probe_coalition_moves(state, True, max_coalition_size=2)


class TestLadderClassification:
    def test_classify_full_ladder_reproducible(self):
        from repro.analysis.search import classify_full_ladder
        from repro.core.concepts import Concept

        state = GameState(nx.cycle_graph(6), 3)
        first = classify_full_ladder(state, seed=5)
        second = classify_full_ladder(state, seed=5)
        assert set(first) == set(second)
        for concept in first:
            assert first[concept].stable == second[concept].stable
        assert Concept.RE in first and Concept.BSE in first
