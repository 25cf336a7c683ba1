"""Randomized cross-validation of the incremental engine + bridge set + Fold.

The lockdown suite for the bridge-aware removal engine: hundreds of seeded
random add/remove/swap trajectories over mixed graph classes (trees, sparse
and dense G(n, p) — including disconnected starts — and paper
constructions), asserting **bit-exact agreement at every step** between

* the in-place :class:`~repro.graphs.distances.DistanceMatrix` and a fresh
  APSP of the mutated graph (whose Python arm is itself pinned to scipy
  below),
* the incrementally maintained ``totals()`` and a fresh row sum,
* the same ``totals()`` under every bound valuation (linear, concave,
  convex and max cost models, with and without demand matrices) and a
  fresh per-entry recomputation — including the max-aggregate's
  maintained multiplicity counts — with the ``TOTALS_REBUILDS`` spy
  proving exactly one full pass per engine and zero along trajectories,
  plus weighted and modeled per-agent costs along ``GameState.apply``
  chains vs naive recomputation,
* the incrementally maintained bridge set and a from-scratch naive
  recompute (edge is a bridge iff deleting it disconnects its endpoints —
  re-derived by BFS per edge, independent of the chain decomposition),
* per-agent and social costs along ``GameState.apply`` chains and a naive
  recomputation on a fresh graph copy,

plus spy-counter proofs that the maintenance really is incremental: one
chain-decomposition build per engine materialisation and zero rebuilds
along trajectories, bridge removals never entering the non-bridge repair
path (even on cyclic graphs), and the priced pool reduction and the swap
scan never mutating the engine.  The block repair of non-bridge removals
(bit-exact against a fresh APSP on every edge of families with large or
lopsided sides, no BFS beyond endpoint-only queries), both BFS dispatch
arms and the reservoir-sampling random scheduler are cross-validated here
too.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from repro._alpha import fits_int64
from repro._backend import exact_int_fill
from repro.constructions.basic import clique, complete_binary_tree, cycle, star
from repro.core.concepts import Concept
from repro.core.moves import AddEdge, RemoveEdge, Swap
from repro.core.speculative import SpeculativeEvaluator
from repro.core.state import GameState
from repro.core.traffic import TrafficMatrix
from repro.dynamics.movegen import move_pool
from repro.dynamics.schedulers import random_improvement_scheduler
from repro.graphs import bridges as bridges_mod
from repro.graphs import distances as distances_mod
from repro.graphs.distances import DistanceMatrix, apsp_matrix
from repro.graphs.generation import random_connected_gnp, random_tree

from tests.reference import best_sequential, dynamics_trace

UNREACHABLE = 10**6

#: trajectories driven by the engine-level fuzzer below (the satellite
#: floor is 200; class-level cost/undo trajectories come on top)
FAMILIES = ("tree", "sparse", "dense", "construction", "disconnected")
SEEDS_PER_FAMILY = 40
STEPS = 8


# -- naive references -------------------------------------------------------


def naive_bridges(graph: nx.Graph) -> frozenset:
    """Bridges recomputed from scratch, one BFS per edge.

    Deliberately the most naive definition — edge ``uv`` is a bridge iff
    deleting it disconnects ``u`` from ``v`` — sharing no code with the
    chain decomposition under test.
    """
    found = set()
    for u, v in graph.edges:
        graph.remove_edge(u, v)
        connected = nx.has_path(graph, u, v)
        graph.add_edge(u, v)
        if not connected:
            found.add((u, v) if u < v else (v, u))
    return frozenset(found)


def naive_cost(graph: nx.Graph, alpha, agent: int, unreachable: int):
    """``alpha * deg + dist`` recomputed on a fresh APSP of a fresh copy."""
    dist = apsp_matrix(graph, unreachable)
    return alpha * graph.degree(agent) + int(dist[agent].sum())


def start_graph(family: str, rng: random.Random) -> nx.Graph:
    if family == "tree":
        return random_tree(rng.randint(2, 12), rng)
    if family == "sparse":
        return random_connected_gnp(rng.randint(4, 12), 0.2, rng)
    if family == "dense":
        return random_connected_gnp(rng.randint(4, 11), 0.6, rng)
    if family == "construction":
        pick = rng.randrange(4)
        if pick == 0:
            return cycle(rng.randint(3, 10))
        if pick == 1:
            return star(rng.randint(3, 10))
        if pick == 2:
            return complete_binary_tree(rng.randint(2, 3))
        # lollipop: a clique with a pendant path — cyclic, with bridges
        core = rng.randint(3, 5)
        graph = clique(core)
        for extra in range(core, core + rng.randint(1, 4)):
            graph.add_edge(extra - 1, extra)
        return graph
    # possibly disconnected G(n, p): exercises sentinel pairs and
    # disconnect/reconnect sequences from the very first move
    n = rng.randint(2, 12)
    return nx.gnp_random_graph(n, rng.random() * 0.4, seed=rng.randrange(10**6))


def assert_endpoint_arrays_consistent(dm: DistanceMatrix) -> None:
    """The incrementally maintained endpoint arrays mirror the bridge set.

    The arrays are in unspecified order, so compare as a set of pairs;
    entry count must match exactly (no stale tail past the live length).
    """
    bridge_set = dm._bridges
    first, second = bridge_set._endpoint_arrays()
    assert len(first) == len(second) == len(bridge_set)
    pairs = {(int(a), int(b)) for a, b in zip(first, second)}
    assert pairs == {tuple(edge) for edge in bridge_set.as_frozenset()}


def random_step(dm: DistanceMatrix, graph: nx.Graph, rng: random.Random):
    """One random legal mutation (add / remove / swap); returns its token.

    Removals draw from *all* edges — bridges included — so trajectories
    routinely disconnect the graph and later reconnect it.
    """
    n = graph.number_of_nodes()
    edges = list(graph.edges)
    non_edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not graph.has_edge(u, v)
    ]
    kind = rng.random()
    if kind < 0.4 and non_edges:
        return dm.apply_add(*rng.choice(non_edges))
    if kind < 0.8 and edges:
        return dm.apply_remove(*rng.choice(edges))
    if edges:
        actor, old = rng.choice(edges)
        partners = [
            w for w in range(n) if w != actor and not graph.has_edge(actor, w)
        ]
        if old in partners:
            partners.remove(old)
        if partners:
            return dm.apply_swap(actor, old, rng.choice(partners))
    return None


# -- the fuzzer: 200 engine-level trajectories ------------------------------


class TestTrajectoryCrossValidation:
    """``len(FAMILIES) * SEEDS_PER_FAMILY`` seeded random trajectories,
    every step cross-checked against fresh scipy APSP and naive bridges."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_random_trajectories(self, family):
        offset = FAMILIES.index(family) * 10_000
        for seed in range(SEEDS_PER_FAMILY):
            rng = random.Random(offset + seed)
            graph = start_graph(family, rng)
            dm = DistanceMatrix(graph, UNREACHABLE)
            rebuilds_at_start = bridges_mod.BRIDGE_REBUILDS
            assert dm.bridges() == naive_bridges(graph)
            for _ in range(STEPS):
                if random_step(dm, graph, rng) is None:
                    continue
                fresh = apsp_matrix(graph, UNREACHABLE)
                assert (dm.matrix == fresh).all()
                assert dm.matrix.dtype == np.int64
                assert (dm.totals() == fresh.sum(axis=1)).all()
                assert dm.bridges() == naive_bridges(graph)
                assert dm.is_forest == nx.is_forest(graph)
                assert_endpoint_arrays_consistent(dm)
            # incrementality: zero chain-decomposition rebuilds after the
            # one build at materialisation
            assert bridges_mod.BRIDGE_REBUILDS == rebuilds_at_start

    def test_undo_restores_bridges_and_totals(self):
        for seed in range(25):
            rng = random.Random(70_000 + seed)
            graph = start_graph(FAMILIES[seed % len(FAMILIES)], rng)
            dm = DistanceMatrix(graph, UNREACHABLE)
            matrix_before = dm.matrix.copy()
            totals_before = dm.totals()
            bridges_before = dm.bridges()
            forest_before = dm.is_forest
            edges_before = sorted(map(sorted, graph.edges))
            tokens = []
            for _ in range(STEPS):
                token = random_step(dm, graph, rng)
                if token is not None:
                    tokens.append(token)
            for token in reversed(tokens):
                dm.undo(token)
            assert (dm.matrix == matrix_before).all()
            assert (dm.totals() == totals_before).all()
            assert dm.bridges() == bridges_before
            assert dm.is_forest == forest_before
            assert sorted(map(sorted, graph.edges)) == edges_before
            assert_endpoint_arrays_consistent(dm)

    def test_disconnect_and_reconnect_sequence(self):
        """A scripted split of a cyclic graph into three pieces and back."""
        graph = clique(4)
        graph.add_edges_from([(3, 4), (4, 5), (5, 6)])
        dm = DistanceMatrix(graph, UNREACHABLE)
        script = [
            ("remove", 4, 5),  # bridge: splits off {5, 6}
            ("remove", 3, 4),  # bridge: isolates {4}
            ("remove", 0, 1),  # non-bridge inside the clique
            ("add", 0, 6),  # reconnects {5, 6} the other way around
            ("add", 1, 4),  # reconnects {4}
            ("remove", 5, 6),  # bridge again
            ("add", 2, 6),  # closes a cycle through the old far side
        ]
        for op, u, v in script:
            if op == "add":
                dm.apply_add(u, v)
            else:
                dm.apply_remove(u, v)
            fresh = apsp_matrix(graph, UNREACHABLE)
            assert (dm.matrix == fresh).all()
            assert (dm.totals() == fresh.sum(axis=1)).all()
            assert dm.bridges() == naive_bridges(graph)


# -- GameState cost trajectories --------------------------------------------


class TestCostCrossValidation:
    """Per-agent and social costs along apply chains vs naive recompute."""

    def test_costs_match_naive_along_apply_chains(self):
        for seed in range(30):
            rng = random.Random(80_000 + seed)
            graph = random_connected_gnp(rng.randint(3, 9), 0.35, rng)
            alpha = Fraction(rng.randint(1, 9), rng.choice((1, 2)))
            state = GameState(graph, alpha)
            state.dist  # materialise so apply() hands the engine off
            for _ in range(6):
                move = self._random_move(state, rng)
                if move is None:
                    break
                state = state.apply(move)
                expected_social = Fraction(0)
                for agent in range(state.n):
                    expected = naive_cost(
                        state.graph, alpha, agent, state.m_constant
                    )
                    assert state.cost(agent) == expected
                    expected_social += expected
                assert state.social_cost() == expected_social

    @staticmethod
    def _random_move(state: GameState, rng: random.Random):
        edges = list(state.graph.edges)
        non_edges = list(state.non_edges())
        kind = rng.random()
        if kind < 0.45 and non_edges:
            return AddEdge(*rng.choice(non_edges))
        if kind < 0.75 and edges:
            return RemoveEdge(*rng.choice(edges))
        if edges:
            actor, old = rng.choice(edges)
            partners = [
                w
                for w in range(state.n)
                if w not in (actor, old) and not state.graph.has_edge(actor, w)
            ]
            if partners:
                return Swap(actor=actor, old=old, new=rng.choice(partners))
        return None


# -- valued totals: one maintained aggregate per engine ----------------------


def demand_matrix(n: int, seed: int) -> np.ndarray:
    """Uniform every third seed, random integer demands otherwise.

    Random matrices include zero entries (``high`` starts at 0) so the
    zero-demand regime rides every trajectory family.
    """
    if seed % 3 == 0:
        return TrafficMatrix.uniform(n).weights
    return TrafficMatrix.random_demands(n, seed=seed, high=4).weights


MODEL_KINDS = ("linear", "concave", "convex", "max")


def cost_model_for(kind: str):
    from repro.core.costmodel import (
        ConcaveCost,
        ConvexCost,
        LinearCost,
        MaxCost,
    )

    return {
        "linear": LinearCost(),
        "concave": ConcaveCost(Fraction(1, 2)),
        "convex": ConvexCost(2),
        "max": MaxCost(),
    }[kind]


def valuation_for(kind: str, n: int, weights):
    """The valuation a ``GameState`` would bind for one model and demand
    matrix (uniform demands bind the paper's plain row sums)."""
    from repro.core.costmodel import bind_valuation

    traffic = None if weights is None else TrafficMatrix(weights)
    return bind_valuation(n, Fraction(3), traffic, cost_model_for(kind))[1]


def naive_valued_totals(graph: nx.Graph, valuation, unreachable=UNREACHABLE):
    """Per-row values (and max multiplicities) from scratch.

    Pure-Python per-entry loops over a fresh APSP — shares no vector
    code with ``Valuation.values`` or the engine's shift maintenance.
    """
    fresh = apsp_matrix(graph, unreachable)
    n = fresh.shape[0]
    table = valuation.table
    totals, counts = [], []
    for u in range(n):
        values = []
        for v in range(n):
            d = int(fresh[u, v])
            if table is None:
                f = d  # identity: the distance sentinel is its own value
            else:
                f = int(table[d]) if d < n else int(valuation.sentinel)
            w = 1 if valuation.weights is None else int(valuation.weights[u, v])
            values.append(w * f)
        if valuation.aggregate == "max":
            top = max(values)
            totals.append(top)
            counts.append(sum(1 for value in values if value == top))
        else:
            totals.append(sum(values))
            counts.append(0)
    return (
        np.array(totals, dtype=np.int64),
        np.array(counts, dtype=np.int64),
    )


VALUATION_CASES = [
    (kind, weighted) for kind in MODEL_KINDS for weighted in (False, True)
]


def assert_totals_track_naive(graph: nx.Graph, valuation, rng: random.Random):
    """Bind ``valuation`` to a fresh engine on ``graph`` and walk ``STEPS``
    random moves, checking ``totals()`` (and the max-with-counts
    multiplicities) against :func:`naive_valued_totals` after every one,
    with exactly one full pass for the engine."""
    dm = DistanceMatrix(graph, UNREACHABLE)
    dm.bind_valuation(valuation)
    rebuilds_before = distances_mod.totals_rebuild_count()
    expected, _ = naive_valued_totals(graph, valuation)
    assert (dm.totals() == expected).all()
    assert distances_mod.totals_rebuild_count() == rebuilds_before + 1
    for _ in range(STEPS):
        if random_step(dm, graph, rng) is None:
            continue
        expected, expected_counts = naive_valued_totals(graph, valuation)
        assert (dm.totals() == expected).all()
        assert dm.totals().dtype == np.int64
        if valuation.aggregate == "max":
            assert (dm.max_counts() == expected_counts).all()
    # incrementality: exactly one full pass per engine
    assert distances_mod.totals_rebuild_count() == rebuilds_before + 1


class TestValuedTotalsCrossValidation:
    """Undo under every valuation — plain, demand-weighted, the concave /
    convex / max models with and without demands — restores ``totals()``
    and the max-with-counts multiplicities."""

    @pytest.mark.parametrize("kind,weighted", VALUATION_CASES)
    def test_undo_restores_totals_and_counts(self, kind, weighted):
        for seed in range(4):
            rng = random.Random(110_000 + seed)
            graph = start_graph(FAMILIES[seed % len(FAMILIES)], rng)
            n = graph.number_of_nodes()
            weights = demand_matrix(n, seed + 1) if weighted else None
            valuation = valuation_for(kind, n, weights)
            dm = DistanceMatrix(graph, UNREACHABLE)
            dm.bind_valuation(valuation)
            before = dm.totals()
            counts_before = (
                dm.max_counts() if valuation.aggregate == "max" else None
            )
            tokens = []
            for _ in range(STEPS):
                token = random_step(dm, graph, rng)
                if token is not None:
                    tokens.append(token)
            for token in reversed(tokens):
                dm.undo(token)
            assert (dm.totals() == before).all()
            if counts_before is not None:
                assert (dm.max_counts() == counts_before).all()


class TestWeightedTotalsCrossValidation:
    """Demand-weighted linear totals vs a per-entry recompute every step."""

    def test_wtotals_match_naive_along_trajectories(self):
        from repro.core.costmodel import UNIFORM_LINEAR

        for seed in range(25):
            rng = random.Random(100_000 + seed)
            graph = start_graph(FAMILIES[seed % len(FAMILIES)], rng)
            n = graph.number_of_nodes()
            weights = demand_matrix(n, seed)
            valuation = valuation_for("linear", n, weights)
            # uniform demand binds the paper's plain row sums
            if (weights == TrafficMatrix.uniform(n).weights).all():
                assert valuation is UNIFORM_LINEAR
            else:
                assert (valuation.weights == weights).all()
            assert_totals_track_naive(graph, valuation, rng)

    def test_asymmetric_demands_stay_exact(self):
        """Only the *distance* matrix is symmetric; W need not be."""
        from repro.core.costmodel import Valuation

        rng = random.Random(7)
        graph = random_connected_gnp(9, 0.35, rng)
        weights = np.arange(81, dtype=np.int64).reshape(9, 9).copy()
        np.fill_diagonal(weights, 0)
        dm = DistanceMatrix(graph, UNREACHABLE)
        dm.bind_valuation(Valuation(weights))
        dm.totals()
        for _ in range(15):
            random_step(dm, graph, rng)
            fresh = apsp_matrix(graph, UNREACHABLE)
            assert (dm.totals() == (fresh * weights).sum(axis=1)).all()

    def test_weighted_costs_match_naive_along_apply_chains(self):
        for seed in range(20):
            rng = random.Random(120_000 + seed)
            n = rng.randint(3, 9)
            graph = random_connected_gnp(n, 0.35, rng)
            alpha = Fraction(rng.randint(1, 9), rng.choice((1, 2)))
            traffic = (
                TrafficMatrix.uniform(n)
                if seed % 3 == 0
                else TrafficMatrix.random_demands(n, seed=seed, high=4)
            )
            state = GameState(graph, alpha, traffic=traffic)
            state.dist  # materialise so apply() hands the engine off
            rebuilds_before = distances_mod.totals_rebuild_count()
            for _ in range(6):
                move = TestCostCrossValidation._random_move(state, rng)
                if move is None:
                    break
                state = state.apply(move)
                expected_social = Fraction(0)
                fresh = apsp_matrix(state.graph, state.m_constant)
                for agent in range(state.n):
                    expected = state.alpha * state.graph.degree(agent) + int(
                        (traffic.weights[agent] * fresh[agent]).sum()
                    )
                    assert state.cost(agent) == expected
                    expected_social += expected
                assert state.social_cost() == expected_social
            # a trajectory pays at most one full pass (zero if no move)
            assert distances_mod.totals_rebuild_count() <= rebuilds_before + 1


class TestModelTotalsCrossValidation:
    """Cost-model totals vs a per-entry recompute every step."""

    def test_ftotals_match_naive_along_trajectories(self):
        """Every model kind, with and without demands: sums and the max
        aggregate's multiplicities."""
        for seed in range(32):
            rng = random.Random(130_000 + seed)
            graph = start_graph(FAMILIES[seed % len(FAMILIES)], rng)
            n = graph.number_of_nodes()
            kind = MODEL_KINDS[seed % len(MODEL_KINDS)]
            weighted = (seed // len(MODEL_KINDS)) % 2 == 1
            weights = demand_matrix(n, seed) if weighted else None
            assert_totals_track_naive(
                graph, valuation_for(kind, n, weights), rng
            )

    def test_modeled_costs_match_naive_along_apply_chains(self):
        """``GameState(cost_model=...)`` costs vs per-entry recompute.

        Covers concave / convex / max with and without a demand matrix;
        one full pass per chain, zero along the moves.
        """
        for seed in range(24):
            rng = random.Random(150_000 + seed)
            n = rng.randint(3, 9)
            graph = random_connected_gnp(n, 0.35, rng)
            alpha = Fraction(rng.randint(1, 9), rng.choice((1, 2)))
            kind = ("concave", "convex", "max")[seed % 3]
            traffic = (
                None
                if seed % 2 == 0
                else TrafficMatrix.random_demands(n, seed=seed, high=4)
            )
            state = GameState(
                graph, alpha, traffic=traffic, cost_model=cost_model_for(kind)
            )
            state.dist  # materialise so apply() hands the engine off
            rebuilds_before = distances_mod.totals_rebuild_count()
            for _ in range(6):
                move = TestCostCrossValidation._random_move(state, rng)
                if move is None:
                    break
                state = state.apply(move)
                expected_totals, _ = naive_valued_totals(
                    state.graph, state.valuation
                )
                expected_social = Fraction(0)
                for agent in range(state.n):
                    expected = state.alpha * state.graph.degree(agent) + int(
                        expected_totals[agent]
                    )
                    assert state.cost(agent) == expected
                    expected_social += expected
                assert state.social_cost() == expected_social
            # modeled trajectories pay at most one full pass
            assert distances_mod.totals_rebuild_count() <= rebuilds_before + 1


# -- spy counters: the maintenance is genuinely incremental -----------------


class TestBridgeSpies:
    def test_exactly_one_build_at_materialisation(self):
        graph = random_connected_gnp(9, 0.3, random.Random(5))
        before = bridges_mod.bridge_rebuild_count()
        dm = DistanceMatrix(graph, UNREACHABLE)
        assert bridges_mod.bridge_rebuild_count() == before + 1
        rng = random.Random(6)
        for _ in range(20):
            random_step(dm, graph, rng)
        dm.bridges()
        dm.is_forest
        assert bridges_mod.bridge_rebuild_count() == before + 1

    def test_additions_and_bridge_removals_never_sweep(self):
        """Only non-bridge removals pay the component-local sweep."""
        graph = clique(4)
        graph.add_edges_from([(3, 4), (4, 5)])
        dm = DistanceMatrix(graph, UNREACHABLE)
        sweeps = bridges_mod.bridge_sweep_count()
        dm.apply_remove(4, 5)  # bridge: O(1) delta
        dm.apply_add(4, 5)  # reconnect: O(1) delta
        dm.apply_add(2, 4)  # closes a cycle: vectorised side test
        dm.apply_add(0, 5)  # another cycle
        assert bridges_mod.bridge_sweep_count() == sweeps
        dm.apply_remove(0, 1)  # non-bridge: the one sweeping case
        assert bridges_mod.bridge_sweep_count() == sweeps + 1

    def test_bridge_removal_never_enters_bfs_repair(self):
        """Regression: general-graph bridge removals take the split path."""
        graph = clique(5)  # cyclic core: is_forest shortcuts cannot apply
        graph.add_edges_from([(4, 5), (5, 6), (6, 7)])
        dm = DistanceMatrix(graph, UNREACHABLE)
        repairs = distances_mod.remove_bfs_repair_count()
        for u, v in ((6, 7), (5, 6), (4, 5)):
            dm.apply_remove(u, v)
            fresh = apsp_matrix(graph, UNREACHABLE)
            assert (dm.matrix == fresh).all()
        assert distances_mod.remove_bfs_repair_count() == repairs
        dm.apply_remove(0, 1)  # non-bridge: the counted block repair
        assert distances_mod.remove_bfs_repair_count() == repairs + 1

    def test_speculative_bridge_queries_run_no_bfs(self, monkeypatch):
        """rows_after_remove & friends on a bridge are pure matrix reads."""
        graph = clique(4)
        graph.add_edges_from([(3, 4), (4, 5)])
        dm = DistanceMatrix(graph, UNREACHABLE)
        # the reference is built first: small APSP builds run the same
        # Python BFS the stubs below forbid
        reference = graph.copy()
        reference.remove_edge(3, 4)
        fresh = apsp_matrix(reference, UNREACHABLE)

        def boom(*args, **kwargs):  # pragma: no cover - guard only
            raise AssertionError("BFS invoked for a bridge removal query")

        monkeypatch.setattr(distances_mod, "_bfs_row_py", boom)
        monkeypatch.setattr(distances_mod, "_rows_from_csr", boom)
        row_u, row_v = dm.rows_after_remove(3, 4)
        assert (row_u == fresh[3]).all() and (row_v == fresh[4]).all()
        assert (dm.remove_loss(3, 4), dm.remove_loss(4, 3)) == (
            int((fresh[3] - dm.matrix[3]).sum()),
            int((fresh[4] - dm.matrix[4]).sum()),
        )
        assert (dm.matrix_after_remove(3, 4) == fresh).all()


# -- Fold: bridge splits on general graphs ----------------------------------


class TestFoldBridgeSplits:
    def test_split_matches_fresh_apsp_on_general_bridges(self):
        checked = 0
        for seed in range(40):
            rng = random.Random(90_000 + seed)
            graph = start_graph("construction", rng)
            state = GameState(graph, 2)
            spec = SpeculativeEvaluator(state)
            bridges = [
                edge
                for edge in graph.edges
                if spec.is_bridge(*edge) and not nx.is_forest(graph)
            ]
            for u, v in bridges:
                tracked = sorted(
                    {u, v, *rng.sample(range(state.n), min(3, state.n))}
                )
                fold = spec.fold(tracked).split(u, v)
                reference = graph.copy()
                reference.remove_edge(u, v)
                fresh = apsp_matrix(reference, state.m_constant)
                for node in tracked:
                    assert fold.dist_total(node) == int(fresh[node].sum())
                checked += 1
        assert checked >= 10  # the family really produced cyclic bridges

    def test_split_then_extend_matches_swap(self):
        graph = clique(4)
        graph.add_edges_from([(3, 4), (4, 5)])
        state = GameState(graph, 2)
        spec = SpeculativeEvaluator(state)
        # swap the bridge 3-4 over to 0-4: split then extend, rows-only
        fold = spec.fold((3, 4, 0)).split(3, 4).extend(0, 4)
        reference = graph.copy()
        reference.remove_edge(3, 4)
        reference.add_edge(0, 4)
        fresh = apsp_matrix(reference, state.m_constant)
        for node in (3, 4, 0):
            assert fold.dist_total(node) == int(fresh[node].sum())


# -- the priced pool reduction -----------------------------------------------


class TestBatchSweepCrossValidation:
    """spec.best over a priced move pool must equal the per-candidate
    speculate loop over the pool's moves bit-for-bit, without mutating
    the engine."""

    def test_best_matches_per_candidate_speculation(self):
        for seed in range(40):
            rng = random.Random(60_000 + seed)
            graph = random_connected_gnp(rng.randint(4, 10), rng.random() * 0.5, rng)
            state = GameState(graph, Fraction(rng.randint(1, 7), 2))
            spec = SpeculativeEvaluator(state)
            concept = rng.choice((Concept.PS, Concept.BSWE, Concept.BGE))
            pool = move_pool(state, concept)
            version_before = state.dist._version
            chosen = spec.best(pool)
            assert state.dist._version == version_before  # prices only
            reference = None
            for move in pool:
                evaluation = spec.evaluate(move)
                if reference is None or (
                    evaluation.total_delta < reference[1].total_delta
                ):
                    reference = (move, evaluation)
            if reference is None:
                assert chosen is None
                continue
            assert chosen is not None
            assert chosen[0] == reference[0]
            assert chosen[1].cost_deltas == reference[1].cost_deltas


# -- affected-source filter for non-bridge removals ---------------------------


@pytest.fixture
def bfs_sources(monkeypatch):
    """Every source either BFS primitive is asked for, in call order."""
    seen: list[int] = []
    row_py = distances_mod._bfs_row_py
    rows_csr = distances_mod._rows_from_csr

    def count_row(adj, source, *args):
        seen.append(int(source))
        return row_py(adj, source, *args)

    def count_rows(adjacency, sources, unreachable):
        seen.extend(int(source) for source in sources)
        return rows_csr(adjacency, sources, unreachable)

    monkeypatch.setattr(distances_mod, "_bfs_row_py", count_row)
    monkeypatch.setattr(distances_mod, "_rows_from_csr", count_rows)
    return seen


def _filter_graphs():
    """Seeded graphs of every ``start_graph`` family plus G(n, p) samples
    on both sides of the Python/C-level BFS budget (a two-row probe batch
    flips arms at n = _PY_BFS_CELLS / 2), disconnected ones included."""
    for index, family in enumerate(FAMILIES):
        for seed in range(8):
            yield start_graph(family, random.Random(170_000 + 100 * index + seed))
    half = distances_mod._PY_BFS_CELLS // 2
    for seed, n in enumerate((30, 60, half - 2, half + 2)):
        rng = random.Random(171_000 + seed)
        yield random_connected_gnp(n, 3.0 / n, rng)
        yield nx.gnp_random_graph(n, 1.5 / n, seed=rng.randrange(10**6))


class TestAffectedSourceFilter:
    """Non-bridge removal queries equal a fresh APSP of ``G - uv`` bit for
    bit.  Only requests for the rows of ``u`` and ``v`` alone BFS (those
    endpoints, whose rows always change); multi-source
    ``rows_after_remove_from``, ``matrix_after_remove`` and
    ``apply_remove`` patch the changed block with no BFS at all."""

    def test_rows_match_fresh_apsp_and_bfs_only_affected(self, bfs_sources):
        checked = 0
        for graph in _filter_graphs():
            n = graph.number_of_nodes()
            dm = DistanceMatrix(graph, UNREACHABLE)
            rng = random.Random(n)
            edges = [edge for edge in graph.edges if not dm.is_bridge(*edge)]
            if n > 100:
                edges = rng.sample(edges, min(3, len(edges)))
            for u, v in edges:
                reference = graph.copy()
                reference.remove_edge(u, v)
                fresh = apsp_matrix(reference, UNREACHABLE)
                changed = set(
                    np.flatnonzero((fresh != dm.matrix).any(axis=1)).tolist()
                )
                unchanged = sorted(set(range(n)) - changed)
                elsewhere = [x for x in unchanged if dm.dist(u, x) == UNREACHABLE]
                sources = [u, v, u]
                for pool in (sorted(changed), unchanged, elsewhere):
                    sources += rng.sample(pool, min(3, len(pool)))
                sources += rng.sample(sources, 2)  # repeats
                rng.shuffle(sources)
                bfs_sources.clear()
                rows = dm.rows_after_remove_from(u, v, sources)
                assert rows.dtype == np.int64
                assert (rows == fresh[sources]).all()
                assert (dm.matrix_after_remove(u, v) == fresh).all()
                assert bfs_sources == []
                # endpoint-only requests stay one or two plain BFS
                assert (dm.row_after_remove(u, v) == fresh[u]).all()
                assert bfs_sources == [u]
                bfs_sources.clear()
                pair = dm.rows_after_remove_from(u, v, (v, u, v))
                assert (pair == fresh[[v, u, v]]).all()
                assert set(bfs_sources) == {u, v}
                checked += 1
        assert checked >= 100

    def test_apply_remove_repairs_exactly_the_affected_rows(self, bfs_sources):
        for graph in _filter_graphs():
            dm = DistanceMatrix(graph, UNREACHABLE)
            edges = [edge for edge in graph.edges if not dm.is_bridge(*edge)]
            if not edges:
                continue
            u, v = edges[0]
            before = dm.matrix.copy()
            bfs_sources.clear()
            token = dm.apply_remove(u, v)
            assert bfs_sources == []
            fresh = apsp_matrix(graph, UNREACHABLE)
            assert (dm.matrix == fresh).all()
            changed = np.flatnonzero((fresh != before).any(axis=1))
            (patch,) = token.patches
            assert sorted(patch.rows.tolist()) == changed.tolist()
            dm.undo(token)
            assert (dm.matrix == before).all()


# -- block repair of removals: fuzz against a fresh APSP ----------------------


def _theta(k: int) -> nx.Graph:
    """Edge 01 plus ``k`` paths 0-p-t-q-1: both sides of 01 hold ``k + 1``
    nodes and the ``k`` middle nodes all border them, so the min-plus
    product runs in several chunks once ``k`` passes ~9."""
    graph = nx.Graph([(0, 1)])
    for path in range(k):
        p, t, q = 2 + 3 * path, 3 + 3 * path, 4 + 3 * path
        graph.add_edges_from([(0, p), (p, t), (t, q), (q, 1)])
    return graph


def _block_graphs():
    """Families with large or lopsided sides, then G(n, p) samples with
    extra components and isolated nodes."""
    relabel = nx.convert_node_labels_to_integers
    for n in (3, 4, 5, 8, 11, 40, 151):
        yield nx.cycle_graph(n)
    for n in (3, 6, 13):
        yield nx.circular_ladder_graph(n)
    for n in (4, 7, 16):
        yield nx.wheel_graph(n)
    for rows, cols in ((2, 2), (3, 5), (6, 7)):
        yield relabel(nx.grid_2d_graph(rows, cols))
    yield nx.barbell_graph(4, 0)
    yield nx.barbell_graph(5, 3)
    yield nx.lollipop_graph(3, 6)
    yield nx.lollipop_graph(7, 2)
    for a, b in ((1, 5), (2, 2), (3, 8)):
        yield nx.complete_bipartite_graph(a, b)
    for k in (2, 12, 30):
        yield _theta(k)
    for seed in range(12):
        rng = random.Random(172_000 + seed)
        n = rng.randint(6, 45)
        graph = nx.gnp_random_graph(
            n, rng.uniform(1.2, 4.0) / n, seed=rng.randrange(10**6)
        )
        extra = nx.gnp_random_graph(rng.randint(1, 6), 0.7, seed=seed)
        yield relabel(nx.disjoint_union(graph, extra))


def _largest_sentinel() -> int:
    sentinel = 2**62 - 1
    assert fits_int64(sentinel) and not fits_int64(sentinel + 1)
    return sentinel


class TestBlockRepairFuzz:
    """``_removal_rows``, ``matrix_after_remove``, ``rows_after_remove_from``
    and ``apply_remove`` + ``undo`` agree with a fresh APSP of ``G - uv``
    bit for bit on every edge, and the sides behave as the block identity
    needs: ``A_u | A_v`` is the probe-BFS mask and ``uv`` is the only edge
    between ``A_v`` and ``A_u``."""

    @pytest.mark.parametrize("sentinel", (UNREACHABLE, _largest_sentinel()))
    def test_every_edge_matches_fresh_apsp(self, sentinel):
        checked = 0
        for graph in _block_graphs():
            n = graph.number_of_nodes()
            rng = random.Random(n * 31 + graph.number_of_edges())
            dm = DistanceMatrix(graph, sentinel)
            dm.totals()  # materialised, so apply/undo shift them
            edges = list(graph.edges)
            if n > 60:
                edges = rng.sample(edges, 8)
            for u, v in edges:
                reference = graph.copy()
                reference.remove_edge(u, v)
                fresh = apsp_matrix(reference, sentinel)
                before = dm.matrix.copy()
                changed = np.flatnonzero((fresh != before).any(axis=1))
                rows, new = dm._removal_rows(u, v)
                assert (new == fresh[rows]).all()
                if not dm.is_bridge(u, v):
                    assert sorted(rows.tolist()) == changed.tolist()
                    self._check_sides(dm, graph, u, v, fresh)
                assert (dm.matrix_after_remove(u, v) == fresh).all()
                sources = rng.choices(range(n), k=rng.randint(1, 2 * n))
                got = dm.rows_after_remove_from(u, v, sources)
                assert (got == fresh[sources]).all()
                token = dm.apply_remove(u, v)
                assert (dm.matrix == fresh).all()
                assert (dm.totals() == fresh.sum(axis=1)).all()
                dm.undo(token)
                assert (dm.matrix == before).all()
                assert (dm.totals() == before.sum(axis=1)).all()
                checked += 1
        assert checked >= 500

    @staticmethod
    def _check_sides(dm, graph, u, v, fresh):
        side_u = dm._only_via(u, v)
        side_v = dm._only_via(v, u)
        # A_u is where u's own distances grow, A_v where v's do
        assert (side_u == (fresh[u] != dm.matrix[u])).all()
        assert (side_v == (fresh[v] != dm.matrix[v])).all()
        assert not (side_u & side_v).any()
        crossing = {
            tuple(sorted((p, q)))
            for p, q in graph.edges
            if (side_v[p] and side_u[q]) or (side_u[p] and side_v[q])
        }
        assert crossing == {tuple(sorted((u, v)))}


# -- the swap scan never mutates the engine -----------------------------------


def _swap_states():
    from repro.core.costmodel import costmodel_from_spec

    for seed in range(8):
        rng = random.Random(173_000 + seed)
        n = rng.randint(8, 16)
        graph = random_connected_gnp(n, 0.25 + 0.2 * rng.random(), rng)
        alpha = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
        traffic = TrafficMatrix.random_demands(n, seed=seed, high=5)
        model = costmodel_from_spec({"model": "convex", "exponent": 2}, n)
        yield GameState(graph, alpha)
        yield GameState(graph, alpha, traffic=traffic)
        yield GameState(graph, alpha, traffic=traffic, cost_model=model)


class TestSwapScanIsMutationFree:
    def test_scan_leaves_engine_untouched_and_agrees(self):
        from repro.dynamics.movegen import improving_moves
        from repro.equilibria.swap import find_improving_swap

        found = 0
        for state in _swap_states():
            assert not nx.is_forest(state.graph)
            dm = state.dist
            dm.totals()
            before = dm.matrix.copy()
            spies = (
                dm._version,
                bridges_mod.bridge_sweep_count(),
                distances_mod.remove_bfs_repair_count(),
            )
            first = find_improving_swap(state)
            swaps = list(improving_moves(state, Concept.BSWE))
            moves = list(improving_moves(state, Concept.BGE))
            assert (
                dm._version,
                bridges_mod.bridge_sweep_count(),
                distances_mod.remove_bfs_repair_count(),
            ) == spies
            assert (dm.matrix == before).all()
            assert first == next(improving_moves(state, Concept.BSWE), None)
            assert swaps == [move for move in moves if isinstance(move, Swap)]
            found += first is not None
        assert found >= 6

# -- BFS dispatch arms --------------------------------------------------------


class TestDispatchArmsAgree:
    """Both BFS dispatch arms are bit-exact around the ``_PY_BFS_CELLS``
    budget: purely a constant-factor choice."""

    @pytest.mark.parametrize("n_offset", (-2, 2))
    def test_python_and_scipy_arms_bit_exact(self, monkeypatch, n_offset):
        # a two-row probe batch flips arms at n = _PY_BFS_CELLS / 2
        budget = distances_mod._PY_BFS_CELLS
        n = budget // 2 + n_offset
        rng = random.Random(42 + n_offset)
        graph = random_connected_gnp(n, 3.0 / n, rng)
        step_seeds = [random.Random(7).randint(0, 10**6) + i for i in range(6)]
        results = {}
        for arm, cells in (("python", 10**9), ("scipy", 0), ("default", budget)):
            monkeypatch.setattr(distances_mod, "_PY_BFS_CELLS", cells)
            work = graph.copy()
            dm = DistanceMatrix(work, UNREACHABLE)
            trace = []
            for step_seed in step_seeds:
                random_step(dm, work, random.Random(step_seed))
                trace.append(dm.matrix.copy())
            # speculative queries exercise both query arms too
            edge = next(e for e in work.edges if not dm.is_bridge(*e))
            trace.append(np.stack(dm.rows_after_remove(*edge)))
            trace.append(dm.rows_after_remove_from(*edge, range(n)))
            results[arm] = trace
        for arm in ("scipy", "default"):
            for step, (left, right) in enumerate(
                zip(results["python"], results[arm])
            ):
                assert (left == right).all(), f"{arm} arm disagrees at {step}"

    @pytest.mark.parametrize("n_offset", (0, 1))
    @pytest.mark.parametrize(
        "shape", ("connected", "disconnected", "edgeless")
    )
    def test_apsp_matrix_matches_scipy(self, bfs_sources, n_offset, shape):
        # a full n x n build flips arms at n = isqrt(_PY_BFS_CELLS)
        budget = distances_mod._PY_BFS_CELLS
        n = math.isqrt(budget) + n_offset
        rng = random.Random(43 + n_offset)
        if shape == "connected":
            graph = random_connected_gnp(n, 3.0 / n, rng)
        elif shape == "disconnected":  # two components: sentinel rows
            half = n // 2
            graph = nx.disjoint_union(
                random_connected_gnp(half, 3.0 / half, rng),
                random_connected_gnp(n - half, 3.0 / half, rng),
            )
        else:
            graph = nx.empty_graph(n)
        expected = exact_int_fill(
            shortest_path(
                distances_mod.adjacency_csr(graph), method="D", unweighted=True
            ),
            UNREACHABLE,
        )
        bfs_sources.clear()
        dist = apsp_matrix(graph, UNREACHABLE)
        assert dist.dtype == np.int64
        assert (dist == expected).all()
        in_python = n * n <= budget and graph.number_of_edges() > 0
        assert bfs_sources == (list(range(n)) if in_python else [])


# -- reservoir-sampling random scheduler ------------------------------------


def _list_based_random_scheduler(moves, rng: random.Random):
    """The pre-reservoir implementation, kept as the seeded reference."""
    pool = list(moves)
    if not pool:
        return None
    return pool[rng.randrange(len(pool))]


class TestReservoirScheduler:
    def test_empty_and_singleton_pools(self):
        rng = random.Random(0)
        assert random_improvement_scheduler(None, iter(()), rng) is None
        assert (
            random_improvement_scheduler(None, iter(("only",)), rng) == "only"
        )

    def test_deterministic_given_seed(self):
        pool = list(range(9))
        for seed in range(50):
            first = random_improvement_scheduler(
                None, iter(pool), random.Random(seed)
            )
            second = random_improvement_scheduler(
                None, iter(pool), random.Random(seed)
            )
            assert first == second

    def test_seeded_equivalence_with_list_based_reference(self):
        """Reservoir and list-based draws are equidistributed.

        Individual seeds map to different candidates (the two consume the
        rng differently), so equivalence is over the seeded ensemble: with
        3000 seeds and 8 candidates both implementations must hit every
        candidate within the same tight band around uniform — and the
        counts are deterministic, so this never flakes.
        """
        pool = list(range(8))
        draws = 3000
        reservoir = [0] * len(pool)
        reference = [0] * len(pool)
        for seed in range(draws):
            reservoir[
                random_improvement_scheduler(
                    None, iter(pool), random.Random(seed)
                )
            ] += 1
            reference[
                _list_based_random_scheduler(iter(pool), random.Random(seed))
            ] += 1
        expected = draws / len(pool)
        for counts in (reservoir, reference):
            assert sum(counts) == draws
            for count in counts:
                assert abs(count - expected) < 0.25 * expected

    def test_reservoir_consumes_stream_lazily(self):
        """The generator is drained one item at a time, never listed."""
        seen = []

        def stream():
            for item in range(100):
                seen.append(item)
                yield item

        chosen = random_improvement_scheduler(None, stream(), random.Random(3))
        assert chosen in range(100)
        assert seen == list(range(100))  # uniformity requires full drain


# -- endpoint-array cache (PR 4) ---------------------------------------------


class TestEndpointArrayCache:
    """The versioned incremental endpoint arrays of the bridge set."""

    def test_version_bumps_only_on_array_changes(self):
        graph = nx.path_graph(6)
        dm = DistanceMatrix(graph, UNREACHABLE)
        bridge_set = dm._bridges
        assert_endpoint_arrays_consistent(dm)  # materialises the arrays
        version = bridge_set.version
        dm.apply_add(0, 5)  # closes a cycle: every bridge on it dies
        assert bridge_set.version > version
        assert_endpoint_arrays_consistent(dm)
        version = bridge_set.version
        dm.apply_add(1, 4)  # second chord: no bridge status changes
        assert bridge_set.version == version
        assert_endpoint_arrays_consistent(dm)

    def test_arrays_survive_growth_and_undo(self):
        """Appends past the initial capacity, then LIFO undo to the start."""
        graph = nx.complete_graph(5)  # zero bridges: minimum capacity
        graph.add_nodes_from(range(5, 30))  # isolated, attached below
        dm = DistanceMatrix(graph, UNREACHABLE)
        assert_endpoint_arrays_consistent(dm)
        tokens = []
        for leaf in range(5, 30):  # 25 connecting adds, all new bridges
            tokens.append(dm.apply_add(leaf - 1 if leaf > 5 else 0, leaf))
            assert_endpoint_arrays_consistent(dm)
        assert len(dm.bridges()) == 25
        for token in reversed(tokens):
            dm.undo(token)
            assert_endpoint_arrays_consistent(dm)
        assert len(dm.bridges()) == 0

    def test_lazy_materialisation_after_mutations(self):
        """Deltas before the first array query are absorbed by the build."""
        graph = nx.path_graph(8)
        dm = DistanceMatrix(graph, UNREACHABLE)
        dm.apply_add(0, 7)
        dm.apply_remove(3, 4)
        assert_endpoint_arrays_consistent(dm)


# -- backend arms x batch sweep: whole-trajectory fuzz ------------------------


class TestBackendAndBatchTrajectoryFuzz:
    """Whole best-response trajectories are bit-identical across every
    registered backend arm and between the batched sweep and the
    per-candidate sequential oracle (``tests/reference.py``).

    The reference leg is (numpy arm, batched); every other
    (arm, batching) combination must reproduce its move sequence, social
    cost trace and final graph exactly — 40 uniform + 15 weighted + 15
    modeled seeded trajectories per combination (>= 140 trajectories
    with numpy alone, >= 280 when the numba arm registers), on top of
    the engine-level trajectory fuzz above."""

    SEEDS = {"uniform": 40, "weighted": 15, "modeled": 15}

    @pytest.mark.parametrize("regime", ("uniform", "weighted", "modeled"))
    def test_trajectories_bit_identical(self, regime, monkeypatch):
        from repro import _backend

        batched = SpeculativeEvaluator.best
        seeds = range(self.SEEDS[regime])
        reference = None
        for arm in _backend.available_backends():
            with _backend.use_backend(arm):
                for batching in (True, False):
                    monkeypatch.setattr(
                        SpeculativeEvaluator, "best",
                        batched if batching else best_sequential,
                    )
                    traces = [dynamics_trace(s, regime) for s in seeds]
                    if reference is None:
                        reference = (arm, batching, traces)
                        continue
                    for seed, trace in zip(seeds, traces):
                        assert trace == reference[2][seed], (
                            f"({arm}, batching={batching}) diverges from "
                            f"{reference[:2]} at seed {seed}"
                        )
