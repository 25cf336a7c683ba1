"""Byte-identity pins of the one-edge move pools and of their reduction.

Three SHA-256 digests per input family freeze what every consumer of a
polynomial concept's move pool observes:

* **pools** — ``repr(list(improving_moves(state, concept)))`` for RE,
  BAE, PS, BSwE and BGE: the moves, their order and their count;
* **best** — the best-improvement reduction of each pool, exactly as
  :func:`~repro.dynamics.engine.run_dynamics` hands the pool to a
  scheduler: the winner, its ``MoveEvaluation`` (``cost_deltas`` with
  their exact types, ``improving``) and how many evaluations the
  reduction charged.  On the small states the same pool is also reduced
  as an explicit list, the per-candidate path;
* **schedulers** — whole ``first`` and ``random`` scheduler
  trajectories (40 rounds) on the small states.

The small family is 15 seeds of each trace regime of
``tests/reference.py`` (n = 6..11, disconnected starts included).  The
n = 120 family is seeds 1-3 of the dynamics benchmark inputs:
``G(120, 0.05)`` redrawn to 465-475 edges at ``alpha = 3``, once in the
paper's game and once under gravity weights 1..4 with a max aggregate.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.concepts import Concept
from repro.core.costmodel import MaxCost
from repro.core.speculative import SpeculativeEvaluator
from repro.core.state import GameState
from repro.core.traffic import TrafficMatrix
from repro.dynamics.engine import run_dynamics
from repro.dynamics.movegen import improving_moves
from repro.dynamics.schedulers import (
    first_improvement_scheduler,
    random_improvement_scheduler,
)
from repro.graphs.generation import random_connected_gnp

from tests.meters import meter
from tests.reference import trace_start
from tests.test_regime_digests import TRACE_REGIMES, TRACE_SEEDS

CONCEPTS = (Concept.RE, Concept.BAE, Concept.PS, Concept.BSWE, Concept.BGE)


def small_inputs():
    """``(graph, alpha, traffic, cost_model)`` of every small start."""
    for regime in TRACE_REGIMES:
        for seed in range(TRACE_SEEDS):
            graph, alpha, _, traffic, cost_model = trace_start(seed, regime)
            yield graph, alpha, traffic, cost_model


def n120_inputs():
    """The dynamics benchmark starts at seeds 1-3, both regimes."""
    for seed in (1, 2, 3):
        for modeled in (False, True):
            rng = random.Random(seed)
            graph = random_connected_gnp(120, 0.05, rng)
            while abs(graph.number_of_edges() - 470) > 5:
                graph = random_connected_gnp(120, 0.05, rng)
            traffic = cost_model = None
            if modeled:
                weights = [rng.randint(1, 4) for _ in range(120)]
                traffic = TrafficMatrix.gravity(weights)
                cost_model = MaxCost()
            yield graph, 3, traffic, cost_model


FAMILIES = {"small": small_inputs, "n120": n120_inputs}


def _reduce(spec, moves):
    """``((move, cost_deltas, improving), evaluations)`` of ``spec.best``."""
    before = meter("repro_engine_evaluations_total")
    before_spec = spec.evaluations
    chosen = spec.best(moves)
    counted = meter("repro_engine_evaluations_total") - before
    assert counted == spec.evaluations - before_spec
    if chosen is None:
        return None, counted
    move, evaluation = chosen
    assert evaluation.move == move
    return (move, evaluation.cost_deltas, evaluation.improving), counted


def _scheduled_best(graph, alpha, traffic, cost_model, concept):
    """``spec.best`` over the pool that ``run_dynamics`` schedules."""
    seen = []

    def scheduler(state, moves, rng):
        seen.append(_reduce(SpeculativeEvaluator(state), moves))
        return None

    run_dynamics(
        graph, alpha, concept, scheduler=scheduler, max_rounds=1,
        rng=random.Random(0), traffic=traffic, cost_model=cost_model,
    )
    (reduced,) = seen
    return reduced


def pool_digest(family: str) -> str:
    digest = hashlib.sha256()
    for graph, alpha, traffic, cost_model in FAMILIES[family]():
        state = GameState(graph, alpha, traffic=traffic, cost_model=cost_model)
        for concept in CONCEPTS:
            pool = list(improving_moves(state, concept))
            digest.update(repr((concept.name, pool)).encode())
    return digest.hexdigest()


def best_digest(family: str) -> str:
    digest = hashlib.sha256()
    for graph, alpha, traffic, cost_model in FAMILIES[family]():
        for concept in CONCEPTS:
            record = [
                concept.name,
                _scheduled_best(graph, alpha, traffic, cost_model, concept),
            ]
            if family == "small":
                state = GameState(
                    graph, alpha, traffic=traffic, cost_model=cost_model
                )
                listed = list(improving_moves(state, concept))
                record.append(
                    _reduce(SpeculativeEvaluator(state), iter(listed))
                )
            digest.update(repr(record).encode())
    return digest.hexdigest()


def scheduler_digest() -> str:
    digest = hashlib.sha256()
    for index, (graph, alpha, traffic, cost_model) in enumerate(
        small_inputs()
    ):
        concept = CONCEPTS[index % len(CONCEPTS)]
        for scheduler in (
            first_improvement_scheduler, random_improvement_scheduler,
        ):
            result = run_dynamics(
                graph, alpha, concept, scheduler=scheduler, max_rounds=40,
                rng=random.Random(index), traffic=traffic,
                cost_model=cost_model,
            )
            digest.update(
                repr(
                    (
                        concept.name,
                        scheduler.__name__,
                        result.moves,
                        result.social_costs,
                        result.converged,
                        result.cycled,
                        result.rounds,
                    )
                ).encode()
            )
    return digest.hexdigest()


POOL_DIGESTS = {
    "small": (
        "826a6824b4ca0bab177881122e5bc69423f18124906f9136c8e0ca49298db239"
    ),
    "n120": (
        "cf495164989bffad3bd732aad5613dd19d14abc9c4e6344abee6584f347a2130"
    ),
}

BEST_DIGESTS = {
    "small": (
        "46ba2279a6060f1012ab64ad1d0d2d31df3f7ae6d5d45ee0f027f0378b722694"
    ),
    "n120": (
        "d6c54985316a82d8db49bd558fd5a8ecb7fde5e4e9058012f8a58fe5a2706203"
    ),
}

SCHEDULER_DIGEST = (
    "72719b38d1df970c5753a8ce939a92e70320072b53a52e44f9dd4ccd23c7e526"
)


def test_small_family_size():
    assert sum(1 for _ in small_inputs()) == len(TRACE_REGIMES) * 15 == 120
    edges = [graph.number_of_edges() for graph, *_ in n120_inputs()]
    assert len(edges) == 6 and all(465 <= m <= 475 for m in edges)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pools_pinned(family):
    assert pool_digest(family) == POOL_DIGESTS[family]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_best_pinned(family):
    assert best_digest(family) == BEST_DIGESTS[family]


def test_scheduler_trajectories_pinned():
    assert scheduler_digest() == SCHEDULER_DIGEST
