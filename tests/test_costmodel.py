"""Pluggable distance-cost models: equivalence, exactness and guards.

Four arms lock the generalized engine down:

* **Linear byte-equivalence** — ``GameState(..., cost_model=LinearCost())``
  is the *same game* as the default path: identical per-agent costs,
  identical seeded dynamics trajectories (move lists and social-cost
  traces), identical BNE / 3-BSE verdicts.  ``LinearCost`` dispatches to
  today's code, so this is equality of behaviour, not approximation.
* **Kernel-vs-naive deltas** — the speculative kernel's per-agent cost
  deltas for concave / convex / max models (with and without demand
  matrices) match a pure-Python per-entry recomputation on 200+ seeded
  trajectory steps, for ``evaluate`` and the rows-only sweep alike.
* **Pruning soundness** — the generalized ``dist_floor`` really is a
  lower bound for monotone ``f`` (and tight on the star center).
* **Guards** — every linear-by-definition quantity raises on modeled
  states instead of silently comparing against the wrong optimum, and
  malformed models / bindings fail fast.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from repro.analysis.poa import re_upper_bound_via_prop_3_1
from repro.constructions.basic import star
from repro.core.concepts import Concept
from repro.core.costmodel import (
    ConcaveCost,
    ConvexCost,
    CostModel,
    LinearCost,
    MaxCost,
    TableCost,
    UNIFORM_LINEAR,
    Valuation,
    costmodel_from_spec,
    integer_root,
)
from repro.core.moves import AddEdge, RemoveEdge, Swap
from repro.core.speculative import SpeculativeEvaluator
from repro.core.state import GameState
from repro.core.traffic import TrafficMatrix
from repro.dynamics.engine import run_dynamics
from repro.dynamics.movegen import improving_moves
from repro.dynamics.schedulers import random_improvement_scheduler
from repro.equilibria.registry import check
from repro.graphs.distances import DistanceMatrix, apsp_matrix
from repro.graphs.generation import random_connected_gnp, random_tree

from tests.reference import evaluate_rows_only

UNREACHABLE = 10**6

NONLINEAR_MODELS = (
    ConcaveCost(Fraction(1, 2)),
    ConcaveCost(Fraction(2, 3), scale=3),
    ConvexCost(2),
    ConvexCost(3, scale=2),
    MaxCost(),
)


def naive_agent_value(graph: nx.Graph, state: GameState, agent: int) -> int:
    """``sum_v W[a, v] * f(d)`` (or the max) per-entry from a fresh APSP
    (``f`` the identity, ``M`` included, without a table)."""
    valuation = state.valuation
    fresh = apsp_matrix(graph, state.m_constant)
    n = fresh.shape[0]
    values = []
    for v in range(n):
        d = int(fresh[agent, v])
        if valuation.table is None:
            f = d
        else:
            f = int(valuation.table[d]) if d < n else int(valuation.sentinel)
        w = 1 if valuation.weights is None else int(valuation.weights[agent, v])
        values.append(w * f)
    return max(values) if valuation.aggregate == "max" else sum(values)


def naive_agent_cost(graph: nx.Graph, state: GameState, agent: int):
    return state.alpha * graph.degree(agent) + naive_agent_value(
        graph, state, agent
    )


def move_pool(state: GameState, rng: random.Random, cap: int = 12):
    pool = [RemoveEdge(actor=u, other=v) for u, v in state.graph.edges]
    pool += [AddEdge(u, v) for u, v in state.non_edges()]
    for actor, old in list(state.graph.edges):
        for new in range(state.n):
            if new not in (actor, old) and not state.graph.has_edge(
                actor, new
            ):
                pool.append(Swap(actor=actor, old=old, new=new))
    rng.shuffle(pool)
    return pool[:cap]


# -- model arithmetic ---------------------------------------------------------


class TestModelArithmetic:
    def test_integer_root_exact(self):
        for k in (1, 2, 3, 5):
            for value in list(range(200)) + [10**12, 10**15 + 7]:
                root = integer_root(value, k)
                assert root**k <= value < (root + 1) ** k

    def test_integer_root_matches_isqrt_at_any_magnitude(self):
        rng = random.Random(16)
        values = list(range(1000)) + [10**80 * 7, 10**400 + 1]
        values += [rng.getrandbits(rng.randint(1, 2000)) for _ in range(500)]
        for value in values:
            assert integer_root(value, 2) == math.isqrt(value)
        # higher roots past float range stay exact
        for k in (3, 7):
            for value in (10**400 + 3, 2**3000 - 1):
                root = integer_root(value, k)
                assert root**k <= value < (root + 1) ** k

    def test_tables_monotone_from_zero(self):
        for model in (LinearCost(),) + NONLINEAR_MODELS:
            table = model.table(9)
            assert table.dtype == np.int64
            assert int(table[0]) == 0
            assert (np.diff(table) >= 0).all()

    def test_concave_matches_floor_of_power(self):
        model = ConcaveCost(Fraction(1, 2))
        table = model.table(50)
        for d in range(50):
            assert int(table[d]) == int(d**0.5)

    def test_spec_round_trips_losslessly(self):
        for model in (
            LinearCost(),
            MaxCost(),
            TableCost([0, 2, 3, 3, 7]),
        ) + NONLINEAR_MODELS:
            clone = costmodel_from_spec(model.spec, 4)
            assert clone == model
            assert hash(clone) == hash(model)
            assert clone.spec == model.spec
            assert (clone.table(4) == model.table(4)).all()
        assert costmodel_from_spec(None, 5) is None

    def test_value_semantics(self):
        assert ConcaveCost(Fraction(1, 2)) == ConcaveCost(Fraction(2, 4))
        assert ConvexCost(2) != ConvexCost(3)
        assert LinearCost() != MaxCost()

    def test_malformed_models_fail_fast(self):
        with pytest.raises(ValueError):
            ConcaveCost(Fraction(3, 2))
        with pytest.raises(ValueError):
            ConcaveCost(Fraction(1, 2), scale=0)
        with pytest.raises(ValueError):
            ConvexCost(0)
        with pytest.raises(ValueError):
            TableCost([1, 2, 3])  # f(0) != 0
        with pytest.raises(ValueError):
            TableCost([0, 3, 2])  # not monotone
        with pytest.raises(ValueError):
            costmodel_from_spec({"model": "polynomial"}, 5)
        with pytest.raises(ValueError):
            costmodel_from_spec({"model": "linear", "scale": 2}, 5)
        with pytest.raises(TypeError):
            costmodel_from_spec("linear", 5)
        with pytest.raises(ValueError):
            # explicit tables must cover every distance of the game
            costmodel_from_spec({"model": "table", "values": [0, 1]}, 5)
        # tables past int64 raise ValueError, never OverflowError
        with pytest.raises(ValueError, match="int64"):
            ConvexCost(60).table(4)
        with pytest.raises(ValueError, match="int64"):
            TableCost([0, 1, 2**63])


# -- linear byte-equivalence --------------------------------------------------


class TestLinearByteEquivalence:
    def test_costs_identical_to_default_path(self):
        for seed in range(10):
            rng = random.Random(200_000 + seed)
            graph = random_connected_gnp(rng.randint(3, 9), 0.4, rng)
            alpha = Fraction(rng.randint(1, 9), rng.choice((1, 2)))
            traffic = (
                None
                if seed % 2 == 0
                else TrafficMatrix.random_demands(
                    graph.number_of_nodes(), seed=seed, high=4
                )
            )
            plain = GameState(graph.copy(), alpha, traffic=traffic)
            modeled = GameState(
                graph.copy(), alpha, traffic=traffic, cost_model=LinearCost()
            )
            assert modeled.valuation.table is None  # linear binds no table
            for agent in range(plain.n):
                assert plain.cost(agent) == modeled.cost(agent)
            assert plain.social_cost() == modeled.social_cost()
            if traffic is None:  # rho guards weighted states itself
                assert plain.rho() == modeled.rho()  # no modeled guard here

    @pytest.mark.parametrize("concept", (Concept.PS, Concept.BGE))
    def test_dynamics_trajectories_identical(self, concept):
        for seed in range(6):
            rng = random.Random(210_000 + seed)
            graph = random_tree(rng.randint(4, 8), rng)
            alpha = Fraction(rng.randint(1, 7))
            runs = [
                run_dynamics(
                    graph.copy(),
                    alpha,
                    concept,
                    scheduler=random_improvement_scheduler,
                    max_rounds=40,
                    rng=random.Random(seed),
                    cost_model=model,
                )
                for model in (None, LinearCost())
            ]
            assert runs[0].moves == runs[1].moves
            assert runs[0].social_costs == runs[1].social_costs
            assert runs[0].converged == runs[1].converged
            assert runs[0].cycled == runs[1].cycled
            assert sorted(map(sorted, runs[0].final.graph.edges)) == sorted(
                map(sorted, runs[1].final.graph.edges)
            )

    def test_exponential_checkers_identical(self):
        for seed in range(8):
            rng = random.Random(220_000 + seed)
            graph = random_connected_gnp(6, 0.4, rng)
            alpha = Fraction(rng.randint(1, 9), rng.choice((1, 2)))
            plain = GameState(graph.copy(), alpha)
            modeled = GameState(graph.copy(), alpha, cost_model=LinearCost())
            assert check(plain, Concept.BNE) == check(modeled, Concept.BNE)
            assert check(plain, Concept.BSE, k=3) == check(
                modeled, Concept.BSE, k=3
            )


# -- kernel vs naive deltas ---------------------------------------------------


class TestKernelDeltasMatchNaive:
    def test_per_agent_deltas_on_seeded_trajectory_steps(self):
        """evaluate + rows-only sweep vs per-entry recompute, 200+ steps."""
        steps = 0
        for seed in range(24):
            rng = random.Random(230_000 + seed)
            n = rng.randint(4, 9)
            graph = random_connected_gnp(n, 0.4, rng)
            alpha = Fraction(rng.randint(1, 9), rng.choice((1, 2)))
            model = NONLINEAR_MODELS[seed % len(NONLINEAR_MODELS)]
            traffic = (
                None
                if seed % 2 == 0
                else TrafficMatrix.random_demands(n, seed=seed, high=4)
            )
            state = GameState(
                graph, alpha, traffic=traffic, cost_model=model
            )
            spec = SpeculativeEvaluator(state)
            for move in move_pool(state, rng):
                graph_after = move.apply(state.graph)
                evaluation = spec.evaluate(move)
                for agent, delta in evaluation.cost_deltas:
                    expected = naive_agent_cost(
                        graph_after, state, agent
                    ) - naive_agent_cost(state.graph, state, agent)
                    assert delta == expected, (seed, move, agent)
                rows_only = evaluate_rows_only(spec, move)
                if rows_only is not None:
                    assert rows_only.cost_deltas == evaluation.cost_deltas
                    assert rows_only.improving == evaluation.improving
                steps += 1
        assert steps >= 200

    def test_deltas_exact_along_apply_chains(self):
        """The kernel stays exact on states that already moved (the undo
        stack and totals maintenance compose with the model)."""
        for seed in range(8):
            rng = random.Random(240_000 + seed)
            n = rng.randint(4, 8)
            graph = random_connected_gnp(n, 0.45, rng)
            model = NONLINEAR_MODELS[seed % len(NONLINEAR_MODELS)]
            state = GameState(graph, Fraction(3), cost_model=model)
            state.dist  # materialise so apply() hands the engine off
            for _ in range(4):
                pool = move_pool(state, rng, cap=4)
                if not pool:
                    break
                spec = SpeculativeEvaluator(state)
                for move in pool:
                    graph_after = move.apply(state.graph)
                    for agent, delta in spec.evaluate(move).cost_deltas:
                        expected = naive_agent_cost(
                            graph_after, state, agent
                        ) - naive_agent_cost(state.graph, state, agent)
                        assert delta == expected
                state = state.apply(pool[0])


# -- removals on disconnected graphs ------------------------------------------


def disconnected_graphs():
    """Every disconnected graph with an edge on 2..6 nodes (atlas order)."""
    return [
        graph
        for graph in nx.graph_atlas_g()
        if 2 <= graph.number_of_nodes() <= 6
        and graph.number_of_edges()
        and not nx.is_connected(graph)
    ]


class TestDisconnectedRemovalsMatchNaive:
    """With every demand positive a bridge removal never pays under a
    sum, but on a disconnected graph a max aggregate may already sit at
    the sentinel, so dropping a bridge can cost an agent nothing: RE, PS
    and the removal move pool must match a per-entry recompute there."""

    @pytest.mark.parametrize("gravity", [False, True], ids=["plain", "gravity"])
    @pytest.mark.parametrize(
        "model", [MaxCost(), ConvexCost(2), None], ids=["max", "convex", "linear"]
    )
    def test_re_ps_and_removal_pool(self, model, gravity):
        graphs = disconnected_graphs()
        assert len(graphs) == 60
        free_drops = 0
        for graph in graphs:
            n = graph.number_of_nodes()
            traffic = (
                TrafficMatrix.gravity(range(1, n + 1)) if gravity else None
            )
            for alpha in (Fraction(1, 2), Fraction(2), Fraction(7)):
                state = GameState(
                    graph, alpha, traffic=traffic, cost_model=model
                )
                before = [
                    naive_agent_cost(state.graph, state, a) for a in range(n)
                ]

                def improves(graph_after, agent):
                    cost = naive_agent_cost(graph_after, state, agent)
                    return cost < before[agent]

                expected = []
                for u, v in state.graph.edges:
                    after = state.graph.copy()
                    after.remove_edge(u, v)
                    if improves(after, u):
                        expected.append((u, v))
                    elif improves(after, v):
                        expected.append((v, u))
                joinable = False
                for u, v in state.non_edges():
                    after = state.graph.copy()
                    after.add_edge(u, v)
                    joinable = joinable or (
                        improves(after, u) and improves(after, v)
                    )
                pool = [
                    (move.actor, move.other)
                    for move in improving_moves(state, Concept.RE)
                ]
                assert pool == expected, (graph.edges, alpha)
                assert check(state, Concept.RE) == (not expected)
                assert check(state, Concept.PS) == (not expected and not joinable)
                bridges = {frozenset(edge) for edge in nx.bridges(state.graph)}
                free_drops += sum(frozenset(edge) in bridges for edge in expected)
        if model is not None and model.aggregate == "max":
            assert free_drops > 0  # the case bridge skipping must not hide
        else:
            assert free_drops == 0  # a sum never lets a bridge go


# -- pruning soundness --------------------------------------------------------


class TestDistFloorSoundness:
    def test_floor_bounds_every_reachable_value(self):
        """No graph on the same nodes can beat the floor (monotone f)."""
        for seed in range(12):
            rng = random.Random(250_000 + seed)
            n = rng.randint(3, 9)
            model = NONLINEAR_MODELS[seed % len(NONLINEAR_MODELS)]
            traffic = (
                None
                if seed % 2 == 0
                else TrafficMatrix.random_demands(n, seed=seed, high=4)
            )
            floors = None
            for trial in range(6):
                graph = random_connected_gnp(
                    n, 0.3 + 0.1 * (trial % 4), rng
                )
                state = GameState(
                    graph, Fraction(2), traffic=traffic, cost_model=model
                )
                spec = SpeculativeEvaluator(state)
                if floors is None:
                    floors = [spec.dist_floor(a) for a in range(n)]
                # the floor is a graph-independent bound per agent
                assert floors == [spec.dist_floor(a) for a in range(n)]
                for agent in range(n):
                    assert floors[agent] <= spec.current_dist(agent)

    def test_floor_tight_on_star_center(self):
        """The star center realises the all-distance-1 bound exactly."""
        n = 7
        for model in NONLINEAR_MODELS:
            state = GameState(star(n - 1), Fraction(2), cost_model=model)
            spec = SpeculativeEvaluator(state)
            assert spec.current_dist(0) == spec.dist_floor(0)


# -- guards -------------------------------------------------------------------


class TestModeledGuards:
    def _modeled_state(self, model=None):
        return GameState(
            nx.path_graph(5), Fraction(2), cost_model=model or ConvexCost(2)
        )

    def test_rho_raises_on_modeled_states(self):
        with pytest.raises(ValueError, match="linear"):
            self._modeled_state().rho()

    def test_rho_trace_raises_on_modeled_trajectories(self):
        result = run_dynamics(
            nx.path_graph(4),
            Fraction(2),
            Concept.PS,
            max_rounds=3,
            cost_model=MaxCost(),
        )
        with pytest.raises(ValueError, match="linear"):
            result.rho_trace

    def test_prop_3_1_bound_raises_on_modeled_states(self):
        with pytest.raises(ValueError, match="linear"):
            re_upper_bound_via_prop_3_1(self._modeled_state())

    def test_prop_3_1_bound_raises_on_weighted_states(self):
        """Its arithmetic is over unweighted distance totals: on C5 with
        gravity demands it would bound the wrong game."""
        state = GameState(
            nx.cycle_graph(5), Fraction(2),
            traffic=TrafficMatrix.gravity([1, 2, 3, 4, 5]),
        )
        with pytest.raises(ValueError, match="linear"):
            state.rho()
        with pytest.raises(ValueError, match="linear"):
            re_upper_bound_via_prop_3_1(state)

    def test_paper_game_binds_the_shared_uniform_linear_valuation(self):
        n = 4
        for traffic in (None, TrafficMatrix.uniform(n)):
            for cost_model in (None, LinearCost()):
                state = GameState(
                    nx.path_graph(n), Fraction(2), traffic=traffic,
                    cost_model=cost_model,
                )
                assert state.valuation is UNIFORM_LINEAR
        weighted = GameState(
            nx.path_graph(n), Fraction(2),
            traffic=TrafficMatrix.gravity([1, 2, 3, 4]),
        )
        assert not weighted.valuation.uniform_linear
        assert weighted.valuation.table is None

    def test_cost_model_type_checked(self):
        with pytest.raises(TypeError):
            GameState(nx.path_graph(4), Fraction(2), cost_model="concave")

    def test_bind_mismatches_fail_fast(self):
        dm = DistanceMatrix(nx.path_graph(5), UNREACHABLE)
        model = ConvexCost(2)
        with pytest.raises(ValueError, match="n=5"):
            dm.bind_valuation(Valuation(table=model.table(4), sentinel=10**9))
        with pytest.raises(ValueError, match="n=5"):
            dm.bind_valuation(
                Valuation(weights=TrafficMatrix.uniform(4).weights)
            )
        dm.bind_valuation(Valuation(table=model.table(5), sentinel=10**9))
        with pytest.raises(RuntimeError):
            dm.max_counts()  # sum aggregate maintains no counts

    def test_valuation_validates_table_sentinel_and_aggregate(self):
        model = ConvexCost(2)
        with pytest.raises(ValueError):
            Valuation(table=model.table(5))  # a table needs a sentinel
        with pytest.raises(ValueError):
            # sentinel must clear the largest real value
            Valuation(table=model.table(5), sentinel=int(model.table(5)[-1]))
        with pytest.raises(ValueError):
            Valuation(aggregate="mean")
        with pytest.raises(ValueError, match="covers"):
            GameState(
                nx.path_graph(5), Fraction(2), cost_model=TableCost([0, 1, 2])
            )

    def test_costmodel_is_a_cost_model_subclass_contract(self):
        for model in (LinearCost(),) + NONLINEAR_MODELS:
            assert isinstance(model, CostModel)
            assert model.aggregate in ("sum", "max")
