"""Priced move pools (`repro.core.batch`) and the exact sentinel fill of
scipy's APSP (`repro.graphs.distances.exact_int_fill`).

The contract under test is bit-exactness: every pricing kernel entry and
every priced entry of a move pool must equal the per-candidate
apply/undo evaluation, `best` over a pool must reproduce the sequential
oracle's (`tests/reference.py`) winner, deltas and evaluation count, and
the float-to-int64 fill must keep a big-M sentinel exact.
"""

import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from repro import _backend
from repro._alpha import strict_gt_threshold
from repro.core import batch
from repro.core.concepts import Concept
from repro.core.costmodel import costmodel_from_spec
from repro.core.moves import AddEdge, CoalitionMove, RemoveEdge, Swap
from repro.core.speculative import SpeculativeEvaluator
from repro.core.state import GameState
from repro.core.traffic import TrafficMatrix
from repro.dynamics.movegen import move_pool
from repro.graphs.distances import exact_int_fill
from repro.graphs.generation import random_connected_gnp, random_tree

from tests.reference import add_gain_pair, best_sequential

REGIMES = ("uniform", "weighted", "modeled", "max", "max-disconnected")
POOL_CONCEPTS = (Concept.RE, Concept.BAE, Concept.PS, Concept.BSWE, Concept.BGE)
#: edge prices per state: the first two fill the addition and swap pools,
#: the last two the removal pools
ALPHAS = (Fraction(1, 2), Fraction(2), Fraction(7, 2), Fraction(9))


def make_state(graph: nx.Graph, alpha, regime: str, seed: int) -> GameState:
    n = graph.number_of_nodes()
    if regime == "uniform":
        return GameState(graph, alpha)
    if regime == "max-disconnected":
        # agent 0 cut off: a max aggregate already sits at the sentinel
        graph = graph.copy()
        graph.remove_edges_from(list(graph.edges(0)))
        model = costmodel_from_spec({"model": "max"}, n)
        return GameState(graph, alpha, cost_model=model)
    if regime == "sparse":
        # about half the pairs at zero demand
        traffic = TrafficMatrix.random_demands(n, seed, high=5, density=0.5)
        return GameState(graph, alpha, traffic=traffic)
    traffic = TrafficMatrix.random_demands(n, seed=seed, high=5)
    if regime == "weighted":
        return GameState(graph, alpha, traffic=traffic)
    spec = {"model": "max"} if regime == "max" else {
        "model": "convex", "exponent": 2,
    }
    model = costmodel_from_spec(spec, n)
    return GameState(graph, alpha, traffic=traffic, cost_model=model)


def random_state(seed: int, regime: str, alpha=None) -> GameState:
    rng = random.Random(seed)
    graph = random_connected_gnp(rng.randint(5, 11), 0.2 + rng.random() * 0.4, rng)
    drawn = Fraction(rng.randint(1, 9), rng.choice((1, 2)))
    return make_state(graph, drawn if alpha is None else alpha, regime, seed)


def free_partners(state: GameState, actor: int) -> np.ndarray:
    """Every node ``actor`` could swap an edge onto, ascending."""
    return np.array([
        w for w in range(state.n)
        if w != actor and not state.graph.has_edge(actor, w)
    ], dtype=np.intp)


def every_swap(state: GameState) -> list[Swap]:
    """Every swap, both directions of every edge."""
    return [
        Swap(actor=actor, old=old, new=new)
        for u, v in state.graph.edges
        for actor, old in ((u, v), (v, u))
        for new in free_partners(state, actor).tolist()
    ]


def all_swaps(state: GameState) -> list[Swap]:
    swaps = []
    for actor, old in state.graph.edges:
        for new in range(state.n):
            if new not in (actor, old) and not state.graph.has_edge(actor, new):
                swaps.append(Swap(actor=actor, old=old, new=new))
    return swaps


def assert_pool_priced_exactly(state: GameState, concept: Concept) -> int:
    """Every entry of ``concept``'s pool carries the apply/undo deltas;
    returns how many entries were checked."""
    spec = SpeculativeEvaluator(state)
    checked = 0
    for run in move_pool(state, concept).runs():
        assert isinstance(run, batch.PricedRun)
        for index, move in enumerate(run):
            assert run.move(index) == move
            priced = run.evaluation(index, state.alpha)
            expected = spec.evaluate(move)
            assert priced.move == move
            assert priced.cost_deltas == expected.cost_deltas, (concept, move)
            assert priced.improving and expected.improving
            checked += 1
    return checked


class TestKernelEquivalence:
    """Each kernel entry, and each priced pool entry, equals the
    per-candidate speculative numbers."""

    @pytest.mark.parametrize("regime", REGIMES)
    def test_add_gains_match_per_candidate(self, regime):
        checked = 0
        for seed in range(12):
            state = random_state(1000 + seed, regime)
            spec = SpeculativeEvaluator(state)
            gains = batch.batch_add_gains(state.valuation, state.dist.matrix)
            for u, v in state.non_edges():
                expected = add_gain_pair(spec, u, v)
                assert (int(gains[u, v]), int(gains[v, u])) == expected
            for alpha in ALPHAS[:2]:
                state = random_state(1000 + seed, regime, alpha)
                checked += assert_pool_priced_exactly(state, Concept.BAE)
        assert checked

    @pytest.mark.parametrize("regime", REGIMES)
    def test_remove_losses_match_per_candidate(self, regime):
        checked = 0
        for seed in range(12):
            state = random_state(2000 + seed, regime)
            spec = SpeculativeEvaluator(state)
            base = state.totals().tolist()
            for u, v in state.graph.edges:
                rows = state.dist.rows_after_remove_from(u, v, (u, v))
                losses = batch.batch_remove_losses(
                    state.valuation, rows, (u, v), base
                )
                # both orientations: actor-side deltas differ
                for (actor, other), loss in zip(((u, v), (v, u)), losses):
                    evaluation = spec.evaluate(RemoveEdge(actor, other))
                    ((_, cost_delta),) = evaluation.cost_deltas
                    assert loss == cost_delta + spec.alpha
            for alpha in ALPHAS[2:]:
                state = random_state(2000 + seed, regime, alpha)
                checked += assert_pool_priced_exactly(state, Concept.RE)
        assert checked

    @pytest.mark.parametrize("regime", REGIMES)
    def test_swap_deltas_match_per_candidate(self, regime):
        """Handed every free partner, the kernel keeps exactly those the
        actor gains from, with the per-candidate gains, and the kept
        partners at the threshold are the improving swaps; the BSwE pool,
        priced only where the add-gain bound admits, lists every
        improving swap."""
        checked = 0
        for seed in range(12):
            state = random_state(3000 + seed, regime)
            spec = SpeculativeEvaluator(state)
            totals = state.totals()
            threshold = strict_gt_threshold(state.alpha)
            for u, v in state.graph.edges:
                removed = state.dist.matrix_after_remove(u, v)
                # both directions: the actor keeps one end, drops the other
                ends = ((u, v), (v, u))
                free = [free_partners(state, actor) for actor, _ in ends]
                priced = batch.batch_swap_deltas(
                    state.valuation, removed, totals, (u, v), free
                )
                for (actor, old), ws, (kept, gain_actor, gain_new) in zip(
                    ends, free, priced
                ):
                    expected, improving = {}, set()
                    for new in ws.tolist():
                        evaluation = spec.evaluate(
                            Swap(actor=actor, old=old, new=new)
                        )
                        (_, actor_delta), (_, new_delta) = (
                            evaluation.cost_deltas
                        )
                        if actor_delta <= -1:
                            expected[new] = (
                                -actor_delta, spec.alpha - new_delta
                            )
                        if evaluation.improving:
                            improving.add(new)
                    assert kept.tolist() == sorted(expected)
                    assert [
                        (int(a), int(w)) for a, w in zip(gain_actor, gain_new)
                    ] == [expected[new] for new in kept.tolist()]
                    viable = kept[gain_new >= threshold]
                    assert set(viable.tolist()) == improving
            for alpha in ALPHAS[:2]:
                state = random_state(3000 + seed, regime, alpha)
                checked += assert_pool_priced_exactly(state, Concept.BSWE)
                spec = SpeculativeEvaluator(state)
                improving = [
                    move for move in every_swap(state)
                    if spec.evaluate(move).improving
                ]
                assert sorted(move_pool(state, Concept.BSWE), key=repr) == (
                    sorted(improving, key=repr)
                )
        assert checked

    @pytest.mark.parametrize("regime", REGIMES + ("sparse",))
    def test_swap_gains_bounded_by_add_gains(self, regime):
        """A swap gains each of its two agents at most what adding the
        new edge to the current graph gains them (the bound the swap scan
        admits partners by), in every regime, zero demands included."""
        checked = 0
        for seed in range(12):
            state = random_state(3200 + seed, regime)
            spec = SpeculativeEvaluator(state)
            for swap in every_swap(state):
                actor, new = swap.actor, swap.new
                add_actor, add_new = add_gain_pair(spec, actor, new)
                (_, actor_delta), (_, new_delta) = spec.evaluate(
                    swap
                ).cost_deltas
                assert -actor_delta <= add_actor, swap
                assert spec.alpha - new_delta <= add_new, swap
                checked += 1
        assert checked

    @pytest.mark.parametrize("regime", REGIMES)
    def test_folded_pools_match_per_candidate(self, regime):
        """The PS and BGE pools (BGE prices removals off the swap scan's
        post-removal matrices) carry exact deltas in every regime."""
        checked = 0
        for seed in range(5):
            for alpha in ALPHAS:
                state = random_state(3500 + seed, regime, alpha)
                for concept in (Concept.PS, Concept.BGE):
                    checked += assert_pool_priced_exactly(state, concept)
        assert checked

    def test_tree_pools_match_per_candidate(self):
        """Trees of the paper's game price swaps in closed form."""
        for seed in range(10):
            rng = random.Random(seed)
            tree = random_tree(rng.randint(5, 12), rng)
            for alpha in ALPHAS[:2]:
                state = GameState(tree, alpha)
                assert_pool_priced_exactly(state, Concept.BSWE)
                assert_pool_priced_exactly(state, Concept.BGE)

    def test_tree_closed_form_matches_the_engine_scan(self):
        """The closed form's side split (``d(x, a) < d(x, b)``) gives the
        same runs as pricing each edge on its post-removal matrix."""
        from repro.equilibria.swap import SwapPricer, _tree_runs

        def flat(runs):
            return [
                (run.actor, run.old, run.partners.tolist(),
                 run.gains_actor.tolist(), run.gains_partner.tolist())
                for run in runs
            ]

        found = 0
        for seed in range(20):
            rng = random.Random(4500 + seed)
            tree = random_tree(rng.randint(2, 16), rng)
            for alpha in (Fraction(1, 2), 1, 2, 5):
                state = GameState(tree, alpha)
                pricer = SwapPricer(state)
                engine = [
                    run
                    for a, b in state.graph.edges
                    for run in pricer.runs(
                        a, b, state.dist.matrix_after_remove(a, b)
                    )
                ]
                assert flat(_tree_runs(state)) == flat(engine)
                found += len(engine)
        assert found

    def test_swap_onto_existing_edge_raises(self):
        # an explicit list is priced per candidate, by apply/undo
        state = random_state(4000, "uniform")
        spec = SpeculativeEvaluator(state)
        matrix = state.dist.matrix.copy()
        actor, old = next(iter(state.graph.edges))
        partner = next(
            w for w in state.graph.neighbors(actor) if w != old
        )
        with pytest.raises(ValueError, match="already exists"):
            spec.best([Swap(actor=actor, old=old, new=partner)])
        assert spec.depth == 0
        assert (state.dist.matrix == matrix).all()


class TestSweepBest:
    """`best` over a priced pool is a bit-identical drop-in for the
    sequential loop: same winner, same deltas, same evaluation counts,
    first-best ties."""

    @staticmethod
    def _reduce(spec, moves, sweep):
        before = spec.evaluations
        chosen = sweep(spec, moves)
        return chosen, spec.evaluations - before

    @pytest.mark.parametrize("regime", REGIMES)
    def test_matches_sequential_on_mixed_pools(self, regime):
        for seed in range(8):
            for alpha in ALPHAS:
                state = random_state(5000 + seed, regime, alpha)
                spec = SpeculativeEvaluator(state)
                for concept in POOL_CONCEPTS:
                    pool = move_pool(state, concept)
                    listed = list(pool)
                    batched, batched_count = self._reduce(
                        spec, pool, SpeculativeEvaluator.best
                    )
                    sequential, sequential_count = self._reduce(
                        spec, iter(listed), best_sequential
                    )
                    assert batched_count == sequential_count == len(listed)
                    assert (batched is None) == (sequential is None)
                    if batched is None:
                        continue
                    assert batched[0] == sequential[0]
                    assert batched[1].cost_deltas == sequential[1].cost_deltas
                    assert batched[1].improving == sequential[1].improving
                    assert batched[1].total_delta == sequential[1].total_delta

    @pytest.mark.parametrize(
        "family", ["gnp_bge", "lollipop_bge", "tree_ps", "gnp_bge_weighted"]
    )
    def test_matches_sequential_along_rounds(self, family):
        """Six best-improvement rounds at n = 24..30, the winner applied
        after each: the pool reduction and the sequential sweep agree on
        the move and its deltas every round."""
        graph, alpha, concept, traffic = {
            "gnp_bge": (
                random_connected_gnp(30, 0.1, random.Random(23)), 3,
                Concept.BGE, None,
            ),
            # a clique with a pendant path: cyclic, with real bridges
            "lollipop_bge": (nx.lollipop_graph(12, 12), 2, Concept.BGE, None),
            "tree_ps": (
                random_tree(30, random.Random(29)), 2, Concept.PS, None,
            ),
            "gnp_bge_weighted": (
                random_connected_gnp(30, 0.1, random.Random(23)), 3,
                Concept.BGE, TrafficMatrix.random_demands(30, seed=23, high=5),
            ),
        }[family]
        state = GameState(graph, alpha, traffic=traffic)
        for _ in range(6):
            pool = move_pool(state, concept)
            spec = SpeculativeEvaluator(state)
            batched = spec.best(pool)
            sequential = best_sequential(spec, list(pool))
            assert batched is not None and sequential is not None
            assert batched[0] == sequential[0]
            assert batched[1].cost_deltas == sequential[1].cost_deltas
            state = state.apply(batched[0])

    def test_explicit_lists_price_per_candidate(self):
        rng = random.Random(5)
        state = random_state(5100, "weighted")
        spec = SpeculativeEvaluator(state)
        pool = (
            [RemoveEdge(u, v) for u, v in state.graph.edges]
            + [AddEdge(u, v) for u, v in state.non_edges()]
            + all_swaps(state)
        )
        rng.shuffle(pool)
        chosen, count = self._reduce(spec, iter(pool), SpeculativeEvaluator.best)
        reference, ref_count = self._reduce(spec, iter(pool), best_sequential)
        assert count == ref_count == len(pool)
        assert chosen[0] == reference[0]
        assert chosen[1].cost_deltas == reference[1].cost_deltas

    def test_first_best_tie_breaking_within_a_run(self):
        # a 4-cycle: every removal loses 2 and both chords gain 1 per
        # endpoint; the first of each tie must win
        state = GameState(nx.cycle_graph(4), 3)
        spec = SpeculativeEvaluator(state)
        pool = move_pool(state, Concept.RE)
        removals = list(pool)
        assert len(removals) == 4
        chosen = spec.best(pool)
        assert chosen[0] == removals[0] == best_sequential(spec, removals)[0]
        state = GameState(nx.cycle_graph(4), Fraction(1, 2))
        spec = SpeculativeEvaluator(state)
        pool = move_pool(state, Concept.BAE)
        (run,) = pool.runs()
        assert len(run) == 2 and run.best(state.alpha)[0] == 0
        assert spec.best(pool)[0] == AddEdge(0, 2)
        assert best_sequential(spec, list(pool))[0] == AddEdge(0, 2)

    def test_compound_moves_fall_back_per_candidate(self):
        state = GameState(nx.path_graph(6), Fraction(3, 2))
        spec = SpeculativeEvaluator(state)
        u, v = next(iter(state.non_edges()))
        compound = CoalitionMove(
            coalition=(u, v), removed_edges=(), added_edges=((u, v),)
        )
        pool = [AddEdge(*edge) for edge in state.non_edges()] + [compound]
        batched = spec.best(iter(pool))
        sequential = best_sequential(spec, iter(pool))
        assert batched[0] == sequential[0]
        assert batched[1].cost_deltas == sequential[1].cost_deltas

    def test_best_always_routes_through_sweep(self, monkeypatch):
        state = GameState(nx.path_graph(5), 2)
        spec = SpeculativeEvaluator(state)
        pool = move_pool(state, Concept.BAE)
        calls = []

        def recording(spec_, moves):
            calls.append((spec_, moves))
            return None

        monkeypatch.setattr(batch, "sweep_best", recording)
        assert spec.best(pool) is None
        assert calls == [(spec, pool)]

    def test_best_inside_speculation_scope_raises(self, monkeypatch):
        # active undo scopes invalidate the cached base totals: best must
        # not reduce a pool against them
        state = GameState(nx.path_graph(6), 2)
        spec = SpeculativeEvaluator(state)

        def boom(*args, **kwargs):  # pragma: no cover - guard only
            raise AssertionError("sweep_best called inside an active scope")

        monkeypatch.setattr(batch, "sweep_best", boom)
        spec.push("remove", 0, 1)
        try:
            with pytest.raises(RuntimeError, match="speculation scope"):
                spec.best(move_pool(state, Concept.BAE))
        finally:
            spec.pop()
        assert spec.depth == 0

    def test_best_refuses_a_pool_from_another_state(self):
        graph = nx.path_graph(6)
        state = GameState(graph, 2)
        other = GameState(graph, 2)
        spec = SpeculativeEvaluator(state)
        with pytest.raises(ValueError, match="another state"):
            spec.best(move_pool(other, Concept.BGE))
        assert spec.best(move_pool(state, Concept.BGE)) is not None


class TestActorArgmin:
    """`for_actor` (serve's best response) equals the per-candidate
    argmin of the actor's own apply/undo delta over the moves it
    initiates."""

    @staticmethod
    def _initiates(move, actor):
        if isinstance(move, AddEdge):
            return actor in (move.u, move.v)
        return move.actor == actor

    @pytest.mark.parametrize("regime", REGIMES)
    def test_matches_per_candidate(self, regime):
        for seed in range(4):
            for alpha in ALPHAS:
                state = random_state(6000 + seed, regime, alpha)
                spec = SpeculativeEvaluator(state)
                for concept in POOL_CONCEPTS:
                    pool = move_pool(state, concept)
                    runs = list(pool.runs())
                    priced = [
                        (move, spec.evaluate(move))
                        for run in runs for move in run
                    ]
                    for actor in range(state.n):
                        count, best, best_delta = 0, None, None
                        for run in runs:
                            size, index, delta = run.for_actor(
                                actor, state.alpha
                            )
                            count += size
                            if size and (
                                best_delta is None or delta < best_delta
                            ):
                                best, best_delta = run.move(index), delta
                        reference = reference_delta = None
                        own = 0
                        for move, evaluation in priced:
                            if not self._initiates(move, actor):
                                continue
                            own += 1
                            delta = evaluation.delta(actor)
                            if reference_delta is None or (
                                delta < reference_delta
                            ):
                                reference, reference_delta = move, delta
                        assert count == own
                        assert best == reference
                        assert best_delta == reference_delta


class TestBackendRegistry:
    def test_active_name_is_numpy(self):
        # the BFS name benchmark metadata reports
        assert _backend.active_name() == "numpy"

    def test_exact_int_fill_preserves_big_sentinel(self):
        sentinel = 10**17 + 3  # not representable in float64
        raw = np.array([0.0, 2.0, np.inf])
        filled = exact_int_fill(raw, sentinel)
        assert filled.dtype == np.int64
        assert filled.tolist() == [0, 2, sentinel]
