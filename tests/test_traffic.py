"""Heterogeneous-traffic cost model: the weighted engine stack.

Three pillars:

* **uniform equivalence** — ``TrafficMatrix.uniform(n)`` (and no traffic
  model at all) produce identical equilibrium verdicts, costs, move
  pools and dynamics trajectories: the uniform dispatch keeps every
  layer on the original code paths;
* **weighted exactness** — kernel evaluations, move generators and all
  checkers agree with naive from-scratch recomputation
  (``agent_cost_after`` on a mutated copy) for random, hub-spoke,
  broadcast and gravity demand matrices, including the zero-demand
  regime where bridge removals become profitable;
* **plumbing** — constructors validate, specs round-trip, weighted
  states refuse the uniform-only ``rho()``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from repro.analysis.poa import empirical_tree_poa, family_poa
from repro.core.concepts import Concept
from repro.core.costs import (
    agent_cost,
    agent_cost_after,
    max_agent_cost,
    strictly_improves,
)
from repro.core.moves import (
    AddEdge,
    CoalitionMove,
    NeighborhoodMove,
    RemoveEdge,
    Swap,
    normalize_edge,
)
from repro.core.speculative import SpeculativeEvaluator
from repro.core.state import GameState
from repro.core.traffic import TrafficMatrix, traffic_from_spec
from repro.dynamics.engine import run_dynamics
from repro.dynamics.movegen import improving_moves, move_pool
from repro.dynamics.schedulers import best_improvement_scheduler
from repro.equilibria.neighborhood import find_improving_neighborhood_move
from repro.equilibria.registry import check
from repro.equilibria.remove import is_remove_equilibrium, removal_loss
from repro.equilibria.strong import find_improving_coalition_move
from repro.graphs.generation import random_connected_gnp, random_tree

POLYNOMIAL_CONCEPTS = (
    Concept.RE,
    Concept.BAE,
    Concept.PS,
    Concept.BSWE,
    Concept.BGE,
)


def sample_traffic(n: int, trial: int, rng: random.Random) -> TrafficMatrix:
    """A rotating family of demand regimes for the randomized suites.

    Includes the asymmetric ``per_agent`` model — the weighted formulas
    only assume the *distance* matrix is symmetric.
    """
    kind = trial % 6
    if kind == 0:
        return TrafficMatrix.random_demands(n, seed=trial, high=4)
    if kind == 1:
        return TrafficMatrix.hub_spoke(
            n, [0], hub_demand=5, spoke_demand=rng.choice((0, 1))
        )
    if kind == 2:
        return TrafficMatrix.broadcast(n, sources=[0, n - 1])
    if kind == 3:
        return TrafficMatrix.gravity([rng.randint(1, 3) for _ in range(n)])
    if kind == 4:
        return TrafficMatrix.per_agent(
            [rng.randint(0, 3) for _ in range(n)]
        )
    return TrafficMatrix.random_demands(n, seed=trial, high=3, density=0.6)


def naive_improves(state: GameState, move) -> bool:
    """From-scratch verdict: fresh BFS costs on a mutated graph copy."""
    after = move.apply(state.graph)
    return all(
        agent_cost_after(state, after, agent) < agent_cost(state, agent)
        for agent in move.beneficiaries()
    )


# -- plumbing ----------------------------------------------------------------


class TestTrafficMatrix:
    def test_uniform_detection(self):
        assert TrafficMatrix.uniform(5).is_uniform
        assert not TrafficMatrix.hub_spoke(5, [0]).is_uniform
        explicit = TrafficMatrix.from_pairs(
            np.ones((4, 4), dtype=np.int64)
        )
        assert explicit.is_uniform  # diagonal is zeroed, rest is 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficMatrix.from_pairs([[0, -1], [1, 0]])
        with pytest.raises(ValueError):
            TrafficMatrix.from_pairs([[0, 1, 2], [1, 0, 1]])
        with pytest.raises(ValueError):
            TrafficMatrix.from_pairs([[0.0, 0.5], [0.5, 0.0]])
        # integer-valued floats are accepted exactly
        exact = TrafficMatrix.from_pairs([[0.0, 2.0], [2.0, 0.0]])
        assert exact.weights[0, 1] == 2

    def test_named_generators_refuse_to_truncate(self):
        """``gravity([1.5, 2, 3])`` must not build the game of
        ``[1, 2, 3]``: every named generator runs the same integrality
        check as ``from_pairs``.  Integral values past int64 (``1e19``,
        or ``2**63``, which numpy infers as uint64) and gravity products
        past int64 raise instead of wrapping into another game, and
        negative weights instead of squaring away in a product."""
        for build, match in (
            (lambda: TrafficMatrix.gravity([1.5, 2, 3]), "integers"),
            (lambda: TrafficMatrix.gravity([1, 2, 3, 4.25]), "integers"),
            (lambda: TrafficMatrix.per_agent([2, 0.5, 1]), "integers"),
            (lambda: TrafficMatrix.hub_spoke(4, [0], hub_demand=2.5), "integers"),
            (
                lambda: TrafficMatrix.hub_spoke(4, [0], spoke_demand=0.5),
                "integers",
            ),
            (
                lambda: traffic_from_spec(
                    {"model": "gravity", "weights": [1.5, 2, 3, 4]}, 4
                ),
                "integers",
            ),
            (lambda: TrafficMatrix.gravity([float("nan"), 1]), "integers"),
            (lambda: TrafficMatrix.gravity([float("inf"), 1]), "integers"),
            (
                lambda: traffic_from_spec(
                    {"model": "random", "seed": 1, "high": 2.5}, 4
                ),
                "integers",
            ),
            (lambda: TrafficMatrix.gravity([1e19, 2, 4]), "int64"),
            (lambda: TrafficMatrix.gravity([2**63, 2, 4]), "int64"),
            (lambda: TrafficMatrix.gravity([2**70, 1]), "int64"),
            (lambda: TrafficMatrix.gravity([2**32, 2**32, 1]), "int64"),
            (lambda: TrafficMatrix.per_agent([2**63, 1, 1]), "int64"),
            (lambda: TrafficMatrix.hub_spoke(4, [0], hub_demand=2**63), "int64"),
            (
                lambda: TrafficMatrix.from_pairs(
                    np.array([[0, 2**63], [1, 0]], dtype=np.uint64)
                ),
                "int64",
            ),
            (
                lambda: traffic_from_spec(
                    {"model": "random", "seed": 1, "high": 2**70}, 4
                ),
                "int64",
            ),
            (lambda: TrafficMatrix.gravity([-1, -2, 3]), "non-negative"),
            (lambda: TrafficMatrix.gravity([-1, -2]), "non-negative"),
            (lambda: TrafficMatrix.per_agent([1, -2, 3]), "non-negative"),
        ):
            with pytest.raises(ValueError, match=match):
                build()
        # integer-valued floats are accepted exactly, as in from_pairs
        assert TrafficMatrix.gravity([1.0, 2, 3]) == TrafficMatrix.gravity(
            [1, 2, 3]
        )
        assert TrafficMatrix.gravity([1.0, 2, 3]).spec["weights"] == [1, 2, 3]
        # the largest exact gravity weights still build
        top = 2**31 - 1
        assert int(TrafficMatrix.gravity([top, top]).weights[0, 1]) == top * top

    def test_diagonal_zeroed_and_masses(self):
        traffic = TrafficMatrix.from_pairs([[7, 2], [3, 9]])
        assert traffic.weights[0, 0] == 0 and traffic.weights[1, 1] == 0
        assert traffic.mass(0) == 2 and traffic.mass(1) == 3
        assert traffic.max_row_mass == 3
        assert (traffic.masses() == np.array([2, 3])).all()

    def test_weights_are_read_only(self):
        traffic = TrafficMatrix.uniform(4)
        with pytest.raises(ValueError):
            traffic.weights[0, 1] = 5

    def test_generators_shapes(self):
        hub = TrafficMatrix.hub_spoke(5, [1], hub_demand=9, spoke_demand=2)
        assert hub.weights[1, 3] == 9 and hub.weights[0, 3] == 2
        broadcast = TrafficMatrix.broadcast(5, sources=[2])
        assert broadcast.weights[2, 0] == 1 and broadcast.weights[0, 1] == 0
        gravity = TrafficMatrix.gravity([2, 3, 1])
        assert gravity.weights[0, 1] == 6 and gravity.weights[0, 2] == 2
        per_agent = TrafficMatrix.per_agent([5, 1, 2])
        assert per_agent.weights[1, 0] == 5 and per_agent.weights[0, 1] == 1
        random_t = TrafficMatrix.random_demands(6, seed=3, high=4)
        assert (random_t.weights == random_t.weights.T).all()

    def test_spec_round_trip(self):
        for traffic in (
            TrafficMatrix.uniform(5),
            TrafficMatrix.hub_spoke(5, [0, 2], hub_demand=3, spoke_demand=1),
            TrafficMatrix.broadcast(5, sources=[1]),
            TrafficMatrix.gravity([1, 2, 3, 4, 5]),
            TrafficMatrix.per_agent([2, 0, 1, 1, 3]),
            TrafficMatrix.random_demands(5, seed=9, high=3, density=0.5),
            TrafficMatrix.from_pairs(np.arange(25).reshape(5, 5)),
        ):
            assert traffic_from_spec(traffic.spec, 5) == traffic
        assert traffic_from_spec(None, 5) is None
        with pytest.raises(ValueError):
            traffic_from_spec({"model": "nope"}, 5)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            GameState(nx.path_graph(4), 2, traffic=TrafficMatrix.uniform(5))
        weighted = GameState(
            nx.path_graph(4), 2, traffic=TrafficMatrix.gravity([2, 1, 1, 1])
        )
        assert not weighted.valuation.uniform_linear
        with pytest.raises(ValueError):
            weighted.rho()
        uniform = GameState(
            nx.path_graph(4), 2, traffic=TrafficMatrix.uniform(4)
        )
        assert uniform.valuation.uniform_linear
        assert uniform.rho() == GameState(nx.path_graph(4), 2).rho()


# -- uniform equivalence -----------------------------------------------------


class TestUniformEquivalence:
    """``TrafficMatrix.uniform`` must be indistinguishable from no traffic."""

    def test_costs_and_verdicts_identical(self):
        rng = random.Random(2)
        for trial in range(12):
            n = rng.randint(3, 8)
            graph = random_connected_gnp(n, 0.45, rng)
            alpha = Fraction(rng.randint(1, 9), rng.choice((1, 2)))
            plain = GameState(graph, alpha)
            uniform = GameState(
                graph, alpha, traffic=TrafficMatrix.uniform(n)
            )
            assert plain.m_constant == uniform.m_constant
            for agent in range(n):
                assert plain.cost(agent) == uniform.cost(agent)
            assert plain.social_cost() == uniform.social_cost()
            for concept in POLYNOMIAL_CONCEPTS:
                assert check(plain, concept) == check(uniform, concept)

    def test_dynamics_trajectories_identical(self):
        rng = random.Random(5)
        for trial in range(6):
            n = rng.randint(5, 9)
            start = random_tree(n, rng)
            alpha = rng.randint(2, 6)
            concept = (Concept.PS, Concept.BGE)[trial % 2]
            plain = run_dynamics(
                start, alpha, concept, max_rounds=300,
                rng=random.Random(trial),
            )
            uniform = run_dynamics(
                start, alpha, concept, max_rounds=300,
                rng=random.Random(trial),
                traffic=TrafficMatrix.uniform(n),
            )
            assert plain.moves == uniform.moves
            assert plain.social_costs == uniform.social_costs
            assert plain.converged == uniform.converged

    def test_weighted_poa_uniform_matches_tree_poa(self):
        for alpha in (2, Fraction(9, 2), 8):
            reference = empirical_tree_poa(6, alpha, Concept.PS)
            weighted = family_poa(
                "trees", 6, alpha, Concept.PS,
                traffic=TrafficMatrix.uniform(6),
            )
            assert weighted.poa == reference.poa
            assert weighted.equilibria == reference.equilibria
            assert weighted.candidates == reference.candidates


# -- weighted kernel exactness ----------------------------------------------


class TestWeightedKernel:
    def _move_pool(self, state: GameState, rng: random.Random):
        pool = []
        for u, v in state.graph.edges:
            pool.append(RemoveEdge(u, v))
        for u, v in state.non_edges():
            pool.append(AddEdge(u, v))
        for actor, old in list(state.graph.edges):
            for new in range(state.n):
                if new not in (actor, old) and not state.graph.has_edge(
                    actor, new
                ):
                    pool.append(Swap(actor=actor, old=old, new=new))
        rng.shuffle(pool)
        return pool[:20]

    def test_evaluate_matches_naive_costs(self):
        rng = random.Random(11)
        for trial in range(20):
            n = rng.randint(4, 9)
            graph = random_connected_gnp(n, 0.5, rng)
            traffic = sample_traffic(n, trial, rng)
            state = GameState(
                graph, Fraction(rng.randint(1, 9), 2), traffic=traffic
            )
            spec = SpeculativeEvaluator(state)
            for move in self._move_pool(state, rng):
                evaluation = spec.evaluate(move)
                after = move.apply(state.graph)
                for agent, delta in evaluation.cost_deltas:
                    naive_delta = agent_cost_after(
                        state, after, agent
                    ) - agent_cost(state, agent)
                    assert delta == naive_delta, (trial, move)

    def test_rows_only_matches_speculation(self):
        """Weighted priced pools reduce bit-identically to apply/undo."""
        rng = random.Random(13)
        for trial in range(20):
            n = rng.randint(4, 9)
            graph = random_connected_gnp(n, 0.5, rng)
            traffic = sample_traffic(n, trial, rng)
            state = GameState(
                graph, Fraction(rng.randint(1, 9), 2), traffic=traffic
            )
            spec = SpeculativeEvaluator(state)
            concept = rng.choice((Concept.PS, Concept.BSWE, Concept.BGE))
            pool = move_pool(state, concept)
            version_before = state.dist._version
            chosen = spec.best(pool)
            assert state.dist._version == version_before
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
            assert chosen[0] == reference[0]
            assert chosen[1].cost_deltas == reference[1].cost_deltas

    def test_best_scheduler_picks_weighted_optimum(self):
        rng = random.Random(17)
        graph = random_connected_gnp(8, 0.4, rng)
        traffic = TrafficMatrix.hub_spoke(8, [0], hub_demand=6)
        state = GameState(graph, 3, traffic=traffic)
        moves = list(improving_moves(state, Concept.BGE, rng))
        if moves:
            chosen = best_improvement_scheduler(state, iter(moves), rng)
            assert chosen in moves

    def test_cost_helpers_are_traffic_aware(self):
        rng = random.Random(19)
        graph = random_connected_gnp(6, 0.5, rng)
        traffic = TrafficMatrix.gravity([3, 1, 2, 1, 1, 2])
        state = GameState(graph, 2, traffic=traffic)
        mutated = graph.copy()
        edge = next(iter(state.non_edges()))
        mutated.add_edge(*edge)
        reference = GameState(mutated, 2, traffic=traffic)
        for agent in range(6):
            assert strictly_improves(state, mutated, agent) == (
                reference.cost(agent) < state.cost(agent)
            )
        assert max_agent_cost(state) == max(
            state.cost(agent) for agent in range(6)
        )


# -- weighted checkers vs naive ----------------------------------------------


class TestWeightedCheckersVsNaive:
    def naive_re(self, state):
        return all(
            not naive_improves(state, RemoveEdge(actor=actor, other=other))
            for u, v in state.graph.edges
            for actor, other in ((u, v), (v, u))
        )

    def naive_bae(self, state):
        return all(
            not naive_improves(state, AddEdge(u, v))
            for u, v in state.non_edges()
        )

    def naive_bswe(self, state):
        for u, v in state.graph.edges:
            for actor, old in ((u, v), (v, u)):
                for new in range(state.n):
                    if new in (actor, old) or state.graph.has_edge(
                        actor, new
                    ):
                        continue
                    if naive_improves(
                        state, Swap(actor=actor, old=old, new=new)
                    ):
                        return False
        return True

    def test_polynomial_checkers_match_naive(self):
        rng = random.Random(23)
        for trial in range(30):
            n = rng.randint(3, 8)
            graph = (
                random_tree(n, rng)
                if trial % 3 == 0
                else random_connected_gnp(n, 0.45, rng)
            )
            traffic = sample_traffic(n, trial, rng)
            state = GameState(
                graph, Fraction(rng.randint(1, 9), rng.choice((1, 2))),
                traffic=traffic,
            )
            assert check(state, Concept.RE) == self.naive_re(state)
            assert check(state, Concept.BAE) == self.naive_bae(state)
            assert check(state, Concept.BSWE) == self.naive_bswe(state)
            assert check(state, Concept.PS) == (
                self.naive_re(state) and self.naive_bae(state)
            )
            assert check(state, Concept.BGE) == (
                self.naive_re(state)
                and self.naive_bae(state)
                and self.naive_bswe(state)
            )

    def naive_bne(self, state):
        for center in range(state.n):
            neighbors = sorted(state.graph.neighbors(center))
            others = [
                v
                for v in range(state.n)
                if v != center and v not in state.graph[center]
            ]
            for r in range(len(neighbors) + 1):
                for removed in itertools.combinations(neighbors, r):
                    for a in range(len(others) + 1):
                        for added in itertools.combinations(others, a):
                            if not removed and not added:
                                continue
                            move = NeighborhoodMove(
                                center=center,
                                removed=removed,
                                added=added,
                            )
                            if naive_improves(state, move):
                                return False
        return True

    def naive_kbse(self, state, k):
        for size in range(1, k + 1):
            for coalition in itertools.combinations(range(state.n), size):
                members = set(coalition)
                removable = sorted(
                    normalize_edge(u, v)
                    for u, v in state.graph.edges
                    if u in members or v in members
                )
                addable = sorted(
                    normalize_edge(u, v)
                    for u, v in itertools.combinations(sorted(members), 2)
                    if not state.graph.has_edge(u, v)
                )
                for r in range(len(removable) + 1):
                    for removed in itertools.combinations(removable, r):
                        for a in range(len(addable) + 1):
                            for added in itertools.combinations(addable, a):
                                if not removed and not added:
                                    continue
                                move = CoalitionMove(
                                    coalition=coalition,
                                    removed_edges=removed,
                                    added_edges=added,
                                )
                                if naive_improves(state, move):
                                    return False
        return True

    def test_exponential_searches_match_naive(self):
        rng = random.Random(29)
        for trial in range(12):
            n = rng.randint(3, 6)
            graph = (
                random_tree(n, rng)
                if trial % 2 == 0
                else random_connected_gnp(n, 0.5, rng)
            )
            traffic = sample_traffic(n, trial, rng)
            state = GameState(
                graph, Fraction(rng.randint(1, 7), rng.choice((1, 2))),
                traffic=traffic,
            )
            assert (
                find_improving_neighborhood_move(state) is None
            ) == self.naive_bne(state)
            assert (
                find_improving_coalition_move(state, 3) is None
            ) == self.naive_kbse(state, 3)

    def test_zero_demand_bridge_drop_is_found(self):
        """Broadcast demand: a spoke serving no source gets dropped.

        Under uniform traffic every tree is RE (bridges cost >= M); with
        zero demand across the cut the removal is free and saves alpha —
        the weighted checker must find it where the uniform shortcut
        would skip it.
        """
        # path 0-1-2-3; only pairs touching source 0 carry demand, so
        # agent 2 has zero demand toward leaf 3 and gains by dropping
        # the bridge 2-3 (agent 3 itself must keep it to reach 0)
        state = GameState(
            nx.path_graph(4), 2, traffic=TrafficMatrix.broadcast(4, [0])
        )
        assert not is_remove_equilibrium(state)
        move = RemoveEdge(actor=2, other=3)
        assert naive_improves(state, move)
        assert removal_loss(state, 2, 3) == 0
        assert removal_loss(state, 3, 2) > state.alpha  # 3 needs the source
        # the same graph under uniform traffic is trivially RE
        assert is_remove_equilibrium(GameState(nx.path_graph(4), 2))

    def test_movegen_pools_are_certified_and_exhaustive(self):
        rng = random.Random(31)
        for trial in range(10):
            n = rng.randint(4, 7)
            graph = random_connected_gnp(n, 0.5, rng)
            traffic = sample_traffic(n, trial, rng)
            state = GameState(
                graph, Fraction(rng.randint(1, 7), 2), traffic=traffic
            )
            for concept in POLYNOMIAL_CONCEPTS:
                pool = list(improving_moves(state, concept, rng))
                for move in pool:
                    assert naive_improves(state, move), (trial, concept)
                # exhaustive: an empty pool means the checker agrees
                assert (len(pool) == 0) == check(state, concept)

    def test_unilateral_game_uses_weighted_costs(self):
        """The unilateral NCG checkers read the traffic model too.

        Regression: ``strategy_cost`` / ``is_unilateral_remove_equilibrium``
        once read unweighted totals on weighted states, judging
        deviations by the wrong cost function.
        """
        from repro.equilibria.nash import (
            EdgeAssignment,
            is_unilateral_remove_equilibrium,
            strategy_cost,
        )

        state = GameState(
            nx.path_graph(3), 2, traffic=TrafficMatrix.broadcast(3, [0])
        )
        assignment = EdgeAssignment.from_pairs([(0, 1), (1, 2)])
        # agent 2 buys nothing (edge 1-2 is owned by agent 1); its cost
        # is the weighted distance total alone — demand only toward
        # source 0 at d = 2 — not the unweighted row sum of 3
        assert strategy_cost(
            state, assignment, 2, frozenset()
        ) == state.dist_cost(2) == 2
        # agent 1 owns edge 1-2 and has zero demand toward 2: dropping
        # it saves alpha at zero weighted distance cost
        assert not is_unilateral_remove_equilibrium(state, assignment)
        # the same graph/assignment under uniform demand is stable
        assert is_unilateral_remove_equilibrium(
            GameState(nx.path_graph(3), 2), assignment
        )

    def test_weighted_dynamics_converge_to_weighted_equilibria(self):
        rng = random.Random(37)
        for trial in range(5):
            n = rng.randint(5, 8)
            start = random_tree(n, rng)
            traffic = sample_traffic(n, trial, rng)
            result = run_dynamics(
                start, 3, Concept.PS, max_rounds=400,
                rng=random.Random(trial), traffic=traffic,
            )
            if result.converged:
                assert check(result.final, Concept.PS)
                assert result.final.valuation.uniform_linear == (
                    traffic.is_uniform
                )
