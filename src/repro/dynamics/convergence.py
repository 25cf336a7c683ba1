"""Convergence statistics for improving-move dynamics.

The convergence behaviour of network creation dynamics is its own line of
work (Kawald and Lenzner, SPAA 2013); the paper's conclusion asks how
agents *reach* the good equilibria its bounds promise.  This module runs
seeded ensembles of dynamics and aggregates: convergence rate, path
lengths, final quality, and the approximate-stability factor of the
starting states.

Final quality is reported on two scales.  ``mean/worst_final_rho`` is
the paper's uniform-linear ``cost / cost(OPT)`` (``None`` under weighted
traffic or a non-linear cost model, where the closed-form optimum does
not apply); ``mean/worst_final_quality`` is
:func:`repro.core.optimum.quality_ratio` — identical to rho in the
uniform-linear regime and anchored to the best clique/star cost
otherwise, so every regime gets a headline on the same scale.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import networkx as nx

from repro._alpha import AlphaLike
from repro._rng import coerce_rng, trial_seed
from repro.core.concepts import Concept
from repro.core.costmodel import CostModel
from repro.core.optimum import quality_ratio
from repro.core.state import GameState
from repro.core.traffic import TrafficMatrix
from repro.dynamics.engine import run_dynamics
from repro.dynamics.schedulers import Scheduler, first_improvement_scheduler

__all__ = ["ConvergenceStats", "convergence_study"]


@dataclass(frozen=True)
class ConvergenceStats:
    """Aggregate of one dynamics ensemble."""

    concept: Concept
    runs: int
    converged: int
    cycled: int
    mean_rounds: float
    mean_final_rho: float | None
    worst_final_rho: float | None
    mean_start_instability: float  # smallest stabilising beta at the start
    # regime-aware quality (== rho for uniform-linear; clique/star-relative
    # otherwise); defaulted so pre-quality constructors keep working
    mean_final_quality: float | None = None
    worst_final_quality: float | None = None

    @property
    def convergence_rate(self) -> float:
        return self.converged / self.runs


def convergence_study(
    concept: Concept,
    n: int,
    alpha: AlphaLike,
    runs: int = 20,
    seed: int = 0,
    max_rounds: int = 2000,
    scheduler: Scheduler = first_improvement_scheduler,
    start_factory: Callable[[random.Random], nx.Graph] | None = None,
    traffic: TrafficMatrix | None = None,
    cost_model: CostModel | None = None,
) -> ConvergenceStats:
    """Run ``runs`` seeded dynamics from random trees (or a custom start
    factory) and aggregate convergence statistics.

    ``traffic`` / ``cost_model`` run the weighted or generalized game;
    the rho fields are then ``None`` and the quality fields carry the
    clique/star-relative headline instead.
    """
    # imported here to avoid the dynamics <-> equilibria package cycle
    from repro.equilibria.approximate import stability_factor
    from repro.graphs.generation import random_tree

    if start_factory is None:
        start_factory = lambda rng: random_tree(n, rng)  # noqa: E731
    converged = 0
    cycled = 0
    rounds: list[int] = []
    rhos: list[Fraction] = []
    qualities: list[Fraction] = []
    instabilities: list[float] = []
    for index in range(runs):
        # the shared per-run seed formula (repro._rng.trial_seed) keeps
        # campaign-sharded dynamics trials bit-identical to this loop
        rng = coerce_rng(trial_seed(seed, index))
        start = start_factory(rng)
        start_state = GameState(
            start, alpha, traffic=traffic, cost_model=cost_model
        )
        instabilities.append(
            float(stability_factor(start_state, concept))
        )
        result = run_dynamics(
            start, alpha, concept,
            scheduler=scheduler, max_rounds=max_rounds, rng=rng,
            traffic=traffic, cost_model=cost_model,
        )
        converged += result.converged
        cycled += result.cycled
        rounds.append(result.rounds)
        qualities.append(quality_ratio(result.final))
        if result.final.valuation.uniform_linear:
            rhos.append(result.final.rho())
    return ConvergenceStats(
        concept=concept,
        runs=runs,
        converged=converged,
        cycled=cycled,
        mean_rounds=statistics.fmean(rounds),
        mean_final_rho=(
            statistics.fmean(float(r) for r in rhos) if rhos else None
        ),
        worst_final_rho=float(max(rhos)) if rhos else None,
        mean_start_instability=statistics.fmean(instabilities),
        mean_final_quality=statistics.fmean(float(q) for q in qualities),
        worst_final_quality=float(max(qualities)),
    )
