"""The dynamics loop: apply improving moves until stability or a cap.

Improving dynamics in the BNCG need not converge in general (states can
cycle), so the engine records the full trajectory, detects revisited states,
and reports whether it stopped at an equilibrium, in a cycle, or at the
round cap.  When it stops because no improving move exists, the final state
*is* an equilibrium of the concept by construction — the tests double-check
this against the exact checkers.

Cost model: a trajectory performs **one** full APSP build total.  The first
``social_cost`` call materialises the start state's distance matrix; every
``state.apply(move)`` after that hands the matrix to the successor and
updates it in place through the incremental engine (``apply_add`` outer
minimum, ``apply_remove`` bridge split or affected-rows repair — see
:mod:`repro.graphs.distances`; the maintained bridge set rides along).
Each round hands the scheduler the concept's priced move pool
(:func:`~repro.dynamics.movegen.move_pool`): the one-edge scans read the
cached matrix without mutating it and keep every candidate's exact
deltas, which a best-improvement round only reduces.  Only compound
moves speculate via raw **undo tokens**
(``token = dm.apply_remove(u, v)`` … read the repaired matrix …
``dm.undo(token)``).  Tokens are strictly LIFO, and scans must close
every token *before* yielding, so a scheduler that abandons a
half-drained pool can never leave the shared matrix speculative.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import networkx as nx

from repro.core.concepts import Concept
from repro.core.costmodel import CostModel
from repro.core.state import GameState
from repro.core.traffic import TrafficMatrix
# perfbench's tracer wraps improving_moves here; rounds schedule the pool
from repro.dynamics.movegen import improving_moves, move_pool  # noqa: F401
from repro.dynamics.schedulers import Scheduler, first_improvement_scheduler

__all__ = ["DynamicsResult", "run_dynamics"]


@dataclass
class DynamicsResult:
    """Trajectory of one dynamics run."""

    final: GameState
    moves: list = field(default_factory=list)
    social_costs: list[Fraction] = field(default_factory=list)
    converged: bool = False
    cycled: bool = False
    rounds: int = 0

    @property
    def rho_trace(self) -> list[Fraction]:
        from repro.core.optimum import optimum_cost

        if not self.final.valuation.uniform_linear:
            raise ValueError(
                "rho_trace compares against the linear uniform optimum; "
                "weighted/modeled trajectories compare social_costs directly"
            )
        opt = optimum_cost(self.final.n, self.final.alpha)
        return [cost / opt for cost in self.social_costs]


def _graph_key(graph: nx.Graph) -> frozenset:
    return frozenset(frozenset(edge) for edge in graph.edges)


def run_dynamics(
    graph: nx.Graph,
    alpha,
    concept: Concept,
    scheduler: Scheduler = first_improvement_scheduler,
    max_rounds: int = 10_000,
    rng: random.Random | None = None,
    traffic: TrafficMatrix | None = None,
    cost_model: CostModel | None = None,
) -> DynamicsResult:
    """Run improving-move dynamics under ``concept`` from ``graph``.

    Returns a :class:`DynamicsResult`; ``converged`` means the final state
    admits no improving move of the concept's move space (within the
    generator's documented budget for BNE/BSE).  Pass ``traffic`` to run
    the dynamics under a heterogeneous demand matrix — move generation,
    scheduling and convergence all use the weighted costs.  Pass
    ``cost_model`` to run the generalized game: all costs route through
    the model's ``f``/aggregate (``LinearCost`` stays byte-identical to
    the default path).
    """
    if rng is None:
        rng = random.Random(0)
    state = GameState(graph, alpha, traffic=traffic, cost_model=cost_model)
    result = DynamicsResult(final=state)
    result.social_costs.append(state.social_cost())
    seen = {_graph_key(state.graph)}
    for _ in range(max_rounds):
        move = scheduler(state, move_pool(state, concept, rng), rng)
        if move is None:
            result.converged = True
            break
        state = state.apply(move)
        result.moves.append(move)
        result.social_costs.append(state.social_cost())
        result.rounds += 1
        key = _graph_key(state.graph)
        if key in seen:
            result.cycled = True
            break
        seen.add(key)
    result.final = state
    return result
