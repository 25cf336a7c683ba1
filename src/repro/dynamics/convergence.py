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
from typing import Any, Callable, Mapping, Sequence

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

__all__ = ["ConvergenceStats", "convergence_run", "convergence_study"]


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

    @classmethod
    def from_runs(
        cls, concept: Concept, runs: Sequence[Mapping[str, Any]]
    ) -> "ConvergenceStats":
        """The aggregate of :func:`convergence_run` results, in index order.

        ``final_rho`` is present only for uniform-linear runs; a record
        without ``final_quality`` (written before that column existed,
        uniform only, where the two are bit-identical) falls back to its
        ``final_rho``.
        """
        rhos = [run["final_rho"] for run in runs if "final_rho" in run]
        qualities = [
            run.get("final_quality", run.get("final_rho")) for run in runs
        ]
        return cls(
            concept=concept,
            runs=len(runs),
            converged=sum(run["converged"] for run in runs),
            cycled=sum(run["cycled"] for run in runs),
            mean_rounds=statistics.fmean(run["rounds"] for run in runs),
            mean_final_rho=(
                statistics.fmean(float(rho) for rho in rhos) if rhos else None
            ),
            worst_final_rho=float(max(rhos)) if rhos else None,
            mean_start_instability=statistics.fmean(
                float(run["start_instability"]) for run in runs
            ),
            mean_final_quality=statistics.fmean(float(q) for q in qualities),
            worst_final_quality=float(max(qualities)),
        )


def convergence_run(
    concept: Concept,
    n: int,
    alpha: AlphaLike,
    seed: int,
    index: int,
    max_rounds: int = 2000,
    scheduler: Scheduler = first_improvement_scheduler,
    start_factory: Callable[[random.Random], nx.Graph] | None = None,
    traffic: TrafficMatrix | None = None,
    cost_model: CostModel | None = None,
) -> dict[str, Any]:
    """Run ``index`` of a seeded dynamics ensemble.

    The per-run rng is ``coerce_rng(trial_seed(seed, index))``; the start
    (a random tree unless ``start_factory`` draws another) is drawn
    first, then the stability factor of the start is measured, then the
    dynamics run.  The campaign ``dynamics`` runner returns this dict, so
    a campaign over ``index: range(runs)`` aggregates to the very same
    :class:`ConvergenceStats` as :func:`convergence_study`.

    Every run reports ``final_quality``
    (:func:`repro.core.optimum.quality_ratio`) and ``final_social_cost``;
    ``final_rho`` only in the uniform-linear regime, where the
    closed-form optimum applies.
    """
    # imported here to avoid the dynamics <-> equilibria package cycle
    from repro.equilibria.approximate import stability_factor
    from repro.graphs.generation import random_tree

    rng = coerce_rng(trial_seed(seed, index))
    start = start_factory(rng) if start_factory else random_tree(n, rng)
    start_state = GameState(
        start, alpha, traffic=traffic, cost_model=cost_model
    )
    instability = stability_factor(start_state, concept)
    result = run_dynamics(
        start, alpha, concept,
        scheduler=scheduler, max_rounds=max_rounds, rng=rng,
        traffic=traffic, cost_model=cost_model,
    )
    final = result.final
    out = {
        "converged": bool(result.converged),
        "cycled": bool(result.cycled),
        "rounds": int(result.rounds),
        "final_social_cost": final.social_cost(),
        "final_quality": quality_ratio(final),
        "start_instability": instability,
    }
    if final.valuation.uniform_linear:
        out["final_rho"] = final.rho()
    return out


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
    return ConvergenceStats.from_runs(
        concept,
        [
            convergence_run(
                concept, n, alpha, seed, index,
                max_rounds=max_rounds, scheduler=scheduler,
                start_factory=start_factory,
                traffic=traffic, cost_model=cost_model,
            )
            for index in range(runs)
        ],
    )
