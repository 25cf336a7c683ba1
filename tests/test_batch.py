"""Batched move-pool kernels (`repro.core.batch`) and the backend
registry (`repro._backend`).

The contract under test is bit-exactness: every batch kernel entry must
equal the per-candidate speculative path's integers, `sweep_best` must
reproduce the sequential oracle's (`tests/reference.py`) chosen move,
deltas and evaluation counts, and every registered backend arm must
agree with the numpy reference to the bit.
"""

import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from repro import _backend
from repro.core import batch
from repro.core.costmodel import costmodel_from_spec
from repro.core.moves import AddEdge, CoalitionMove, RemoveEdge, Swap
from repro.core.speculative import SpeculativeEvaluator
from repro.core.state import GameState
from repro.core.traffic import TrafficMatrix
from repro.graphs.generation import random_connected_gnp

from tests.reference import add_gain_pair, best_sequential

REGIMES = ("uniform", "weighted", "modeled")


def make_state(graph: nx.Graph, alpha, regime: str, seed: int) -> GameState:
    n = graph.number_of_nodes()
    if regime == "uniform":
        return GameState(graph, alpha)
    traffic = TrafficMatrix.random_demands(n, seed=seed, high=5)
    if regime == "weighted":
        return GameState(graph, alpha, traffic=traffic)
    model = costmodel_from_spec({"model": "convex", "exponent": 2}, n)
    return GameState(graph, alpha, traffic=traffic, cost_model=model)


def random_state(seed: int, regime: str) -> GameState:
    rng = random.Random(seed)
    graph = random_connected_gnp(rng.randint(5, 11), 0.2 + rng.random() * 0.4, rng)
    alpha = Fraction(rng.randint(1, 9), rng.choice((1, 2)))
    return make_state(graph, alpha, regime, seed)


def all_swaps(state: GameState) -> list[Swap]:
    swaps = []
    for actor, old in state.graph.edges:
        for new in range(state.n):
            if new not in (actor, old) and not state.graph.has_edge(actor, new):
                swaps.append(Swap(actor=actor, old=old, new=new))
    return swaps


class TestKernelEquivalence:
    """Each kernel entry equals the per-candidate speculative integers."""

    @pytest.mark.parametrize("regime", REGIMES)
    def test_add_gains_match_per_candidate(self, regime):
        for seed in range(12):
            state = random_state(1000 + seed, regime)
            spec = SpeculativeEvaluator(state)
            pairs = list(state.non_edges())
            if not pairs:
                continue
            us = np.array([u for u, _ in pairs], dtype=np.int64)
            vs = np.array([v for _, v in pairs], dtype=np.int64)
            gains_u, gains_v = batch.batch_add_gains(spec, us, vs)
            for i, (u, v) in enumerate(pairs):
                expected = add_gain_pair(spec, u, v)
                assert (int(gains_u[i]), int(gains_v[i])) == expected

    @pytest.mark.parametrize("regime", REGIMES)
    def test_remove_losses_match_per_candidate(self, regime):
        for seed in range(12):
            state = random_state(2000 + seed, regime)
            spec = SpeculativeEvaluator(state)
            # both orientations of every edge: actor-side deltas differ
            moves = [
                RemoveEdge(a, o)
                for u, v in state.graph.edges
                for a, o in ((u, v), (v, u))
            ]
            actors = np.array([m.actor for m in moves], dtype=np.int64)
            others = np.array([m.other for m in moves], dtype=np.int64)
            deltas = batch.batch_remove_losses(spec, actors, others)
            for i, move in enumerate(moves):
                evaluation = spec.evaluate(move)
                ((_, cost_delta),) = evaluation.cost_deltas
                assert int(deltas[i]) == cost_delta + spec.alpha

    @pytest.mark.parametrize("regime", REGIMES)
    def test_swap_deltas_match_per_candidate(self, regime):
        for seed in range(12):
            state = random_state(3000 + seed, regime)
            spec = SpeculativeEvaluator(state)
            swaps = all_swaps(state)
            if not swaps:
                continue
            d_actor, d_new = batch.batch_swap_deltas(spec, swaps)
            for i, move in enumerate(swaps):
                evaluation = spec.evaluate(move)
                (_, actor_delta), (_, new_delta) = evaluation.cost_deltas
                assert int(d_actor[i]) == actor_delta
                assert int(d_new[i]) == new_delta - spec.alpha

    def test_swap_onto_existing_edge_raises(self):
        state = random_state(4000, "uniform")
        spec = SpeculativeEvaluator(state)
        actor, old = next(iter(state.graph.edges))
        partner = next(
            w for w in state.graph.neighbors(actor) if w != old
        )
        with pytest.raises(ValueError, match="already exists"):
            batch.batch_swap_deltas(
                spec, [Swap(actor=actor, old=old, new=partner)]
            )


class TestSweepBest:
    """`sweep_best` is a bit-identical drop-in for the sequential loop:
    same winner, same deltas, same evaluation counts, first-best ties."""

    @pytest.mark.parametrize("regime", REGIMES)
    def test_matches_sequential_on_mixed_pools(self, regime):
        for seed in range(15):
            state = random_state(5000 + seed, regime)
            spec = SpeculativeEvaluator(state)
            rng = random.Random(seed)
            pool = (
                [RemoveEdge(u, v) for u, v in state.graph.edges]
                + [AddEdge(u, v) for u, v in state.non_edges()]
                + all_swaps(state)
            )
            rng.shuffle(pool)
            before = spec.evaluations
            batched = batch.sweep_best(spec, iter(pool))
            batched_count = spec.evaluations - before
            before = spec.evaluations
            sequential = best_sequential(spec, iter(pool))
            sequential_count = spec.evaluations - before
            assert batched_count == sequential_count == len(pool)
            assert (batched is None) == (sequential is None)
            if batched is None:
                continue
            assert batched[0] == sequential[0]
            assert batched[1].cost_deltas == sequential[1].cost_deltas
            assert batched[1].improving == sequential[1].improving
            assert batched[1].total_delta == sequential[1].total_delta

    def test_first_best_tie_breaking_within_a_run(self):
        # a 4-cycle: every removal has the same delta; the first must win
        state = GameState(nx.cycle_graph(4), 2)
        spec = SpeculativeEvaluator(state)
        pool = [RemoveEdge(u, v) for u, v in state.graph.edges]
        chosen = batch.sweep_best(spec, iter(pool))
        reference = best_sequential(spec, iter(pool))
        assert chosen[0] == pool[0] == reference[0]

    def test_compound_moves_fall_back_per_candidate(self):
        state = GameState(nx.path_graph(6), Fraction(3, 2))
        spec = SpeculativeEvaluator(state)
        u, v = next(iter(state.non_edges()))
        compound = CoalitionMove(
            coalition=(u, v), removed_edges=(), added_edges=((u, v),)
        )
        pool = [AddEdge(*edge) for edge in state.non_edges()] + [compound]
        batched = batch.sweep_best(spec, iter(pool))
        sequential = best_sequential(spec, iter(pool))
        assert batched[0] == sequential[0]
        assert batched[1].cost_deltas == sequential[1].cost_deltas

    def test_best_always_routes_through_sweep(self, monkeypatch):
        state = GameState(nx.path_graph(5), 2)
        spec = SpeculativeEvaluator(state)
        pool = [AddEdge(u, v) for u, v in state.non_edges()]
        calls = []

        def recording(spec_, moves):
            calls.append(spec_)
            return None

        monkeypatch.setattr(batch, "sweep_best", recording)
        assert spec.best(iter(pool)) is None
        assert calls == [spec]

    def test_best_inside_speculation_scope_raises(self, monkeypatch):
        # active undo scopes invalidate the cached base totals: best must
        # not hand such a spec to the batch kernels
        state = GameState(nx.path_graph(6), 2)
        spec = SpeculativeEvaluator(state)

        def boom(*args, **kwargs):  # pragma: no cover - guard only
            raise AssertionError("sweep_best called inside an active scope")

        monkeypatch.setattr(batch, "sweep_best", boom)
        spec.push("remove", 0, 1)
        try:
            with pytest.raises(RuntimeError, match="speculation scope"):
                spec.best(iter([AddEdge(0, 2)]))
        finally:
            spec.pop()
        assert spec.depth == 0


class TestBackendRegistry:
    def test_numpy_always_registered(self):
        assert "numpy" in _backend.available_backends()

    def test_active_is_registered(self):
        assert _backend.active_name() in _backend.available_backends()
        assert _backend.active().name == _backend.active_name()

    def test_set_backend_roundtrip(self):
        previous = _backend.set_backend("numpy")
        try:
            assert _backend.active_name() == "numpy"
        finally:
            _backend.set_backend(previous)

    def test_unknown_backend_raises(self):
        with pytest.raises(RuntimeError, match="unknown backend"):
            _backend.set_backend("cuda")

    def test_use_backend_restores_on_exit(self):
        before = _backend.active_name()
        with _backend.use_backend("numpy") as arm:
            assert arm.name == "numpy"
        assert _backend.active_name() == before

    def test_env_override_selects_registered_arm(self, monkeypatch):
        monkeypatch.setenv(_backend.ENV_VAR, "numpy")
        assert _backend._select_at_import().name == "numpy"

    def test_env_override_unregistered_arm_raises(self, monkeypatch):
        monkeypatch.setenv(_backend.ENV_VAR, "not-an-arm")
        with pytest.raises(RuntimeError, match="unregistered"):
            _backend._select_at_import()

    def test_exact_int_fill_preserves_big_sentinel(self):
        sentinel = 10**17 + 3  # not representable in float64
        raw = np.array([0.0, 2.0, np.inf])
        filled = _backend.exact_int_fill(raw, sentinel)
        assert filled.dtype == np.int64
        assert filled.tolist() == [0, 2, sentinel]


NUMBA_MISSING = "numba" not in _backend.available_backends()


@pytest.mark.skipif(NUMBA_MISSING, reason="numba arm not registered")
class TestNumbaArmBitExact:
    """Direct kernel-level cross-validation: numba vs the numpy reference
    on random inputs (trajectory-level agreement is enforced in
    tests/test_cross_validation.py)."""

    def _matrix(self, seed):
        rng = random.Random(seed)
        graph = random_connected_gnp(rng.randint(8, 20), 0.3, rng)
        state = GameState(graph, 2)
        return state.dist.matrix, graph

    def test_bfs_rows_scalar_and_batch(self):
        from scipy.sparse import csr_array

        numpy_arm = _backend._REGISTRY["numpy"]
        numba_arm = _backend._REGISTRY["numba"]
        for seed in range(8):
            rng = random.Random(seed)
            n = rng.randint(6, 18)
            graph = nx.gnp_random_graph(n, 0.25, seed=seed)  # may disconnect
            adjacency = csr_array(nx.to_scipy_sparse_array(graph, dtype=np.int64))
            sentinel = 10**15 + 7
            sources = list(range(0, n, 2))
            batch_np = numpy_arm.bfs_rows(adjacency, sources, sentinel)
            batch_nb = numba_arm.bfs_rows(adjacency, sources, sentinel)
            assert batch_nb.shape == batch_np.shape
            assert (batch_nb == batch_np).all()
            row_np = numpy_arm.bfs_rows(adjacency, 0, sentinel)
            row_nb = numba_arm.bfs_rows(adjacency, 0, sentinel)
            assert row_nb.ndim == row_np.ndim == 1
            assert (row_nb == row_np).all()
