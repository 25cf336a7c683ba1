"""Trial runners: how one cell of a campaign grid is executed.

Each runner is a plain function ``(params, base_seed) -> result dict``
registered under a *kind* name; :func:`execute_trial` dispatches a
:class:`~repro.campaigns.spec.Trial` to its runner inside a worker
process.  Results must be exact (``Fraction`` where the quantity is
exact) and JSON-encodable through
:func:`repro.campaigns.spec.to_jsonable`.

Determinism contract: a runner's randomness, if any, is derived from the
campaign's base seed and the trial's own parameters through
:mod:`repro._rng` — never from ambient state — so a sharded pool
reproduces the serial run bit-for-bit at any worker count.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Mapping

from repro._rng import coerce_rng, derive_seed, trial_seed
from repro.core.concepts import Concept

__all__ = ["RUNNERS", "execute_trial", "runner", "scheduler_by_name"]

Runner = Callable[[Mapping[str, Any], int], dict[str, Any]]

RUNNERS: dict[str, Runner] = {}


def runner(kind: str) -> Callable[[Runner], Runner]:
    """Register a trial runner under ``kind``."""

    def register(fn: Runner) -> Runner:
        if kind in RUNNERS:
            raise ValueError(f"duplicate runner kind {kind!r}")
        RUNNERS[kind] = fn
        return fn

    return register


def execute_trial(
    kind: str, params: Mapping[str, Any], base_seed: int
) -> dict[str, Any]:
    """Run one trial and return its result dict (raises on failure)."""
    try:
        run = RUNNERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown trial kind {kind!r}; known: {sorted(RUNNERS)}"
        ) from None
    return run(params, base_seed)


def scheduler_by_name(name: str):
    """Dynamics scheduler lookup by short name (first / random / best)."""
    from repro.dynamics.schedulers import (
        best_improvement_scheduler,
        first_improvement_scheduler,
        random_improvement_scheduler,
    )

    table = {
        "first": first_improvement_scheduler,
        "random": random_improvement_scheduler,
        "best": best_improvement_scheduler,
    }
    try:
        return table[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; known: {sorted(table)}"
        ) from None


def _concept(params: Mapping[str, Any]) -> Concept:
    concept = params["concept"]
    if not isinstance(concept, Concept):
        raise TypeError(f"concept param must be a Concept, got {concept!r}")
    return concept


#: PoA kind -> (default family, required axis, reports the witness);
#: every kind runs :func:`run_poa` and reads the same axes
POA_KINDS: dict[str, tuple[str, str | None, bool]] = {
    "tree_poa": ("trees", None, False),
    "graph_poa": ("graphs", None, False),
    "weighted_poa": ("trees", "traffic", False),
    "generalized_poa": ("trees", "costmodel", False),
    "exact_poa": ("graphs", None, True),
}
POA_AXES = frozenset(
    {"n", "alpha", "concept", "k", "family", "m", "traffic", "costmodel"}
)


def _witness_payload(witness, traffic=None) -> dict[str, Any]:
    """Content-addressed witness certificate: canonical-key digest + edges.

    The digest is the BLAKE2b of the (joint, when ``traffic`` is given)
    canonical key, so two campaigns that find isomorphic worst cases
    report byte-identical certificates; the edge list makes the witness
    replayable without the store.
    """
    from hashlib import blake2b

    from repro.graphs.canonical import canonical_key

    if witness is None:
        return {"witness_key": None, "witness_edges": None}
    return {
        "witness_key": blake2b(
            canonical_key(witness, traffic), digest_size=16
        ).hexdigest(),
        "witness_edges": sorted(
            [int(u), int(v)] if u < v else [int(v), int(u)]
            for u, v in witness.edges
        ),
    }


def run_poa(
    kind: str, params: Mapping[str, Any], base_seed: int
) -> dict[str, Any]:
    """Exact worst-case PoA over an enumerated family (one cell of
    Table 1 and its generalisations), through
    :func:`repro.analysis.poa.family_poa`.

    ``family`` is ``"trees"``, ``"graphs"`` (optionally one edge-count
    layer ``m``: the campaign resume unit, the full PoA being the max
    over the ``m`` axis) or ``"labelled_trees"`` (needs ``traffic``);
    it defaults per kind (:data:`POA_KINDS`).  ``traffic`` and
    ``costmodel`` are JSON-able specs
    (:func:`repro.core.traffic.traffic_from_spec`,
    :func:`repro.core.costmodel.costmodel_from_spec`); with either one
    the ratio is family-relative and the result also carries
    ``worst_cost`` / ``best_cost``.  ``weighted_poa`` requires
    ``traffic`` and ``generalized_poa`` requires ``costmodel``, so each
    of their trials has exactly one spelling (``{"model": "uniform"}`` /
    ``{"model": "linear"}`` for the paper's game).  ``exact_poa``
    results carry the worst witness as a canonical-key digest plus edge
    list.  Any other parameter raises.  Deterministic; the base seed is
    unused.
    """
    from repro.analysis.poa import family_poa
    from repro.core.costmodel import costmodel_from_spec
    from repro.core.traffic import traffic_from_spec

    family, required, certified = POA_KINDS[kind]
    unknown = sorted(set(params) - POA_AXES)
    if unknown:
        raise ValueError(
            f"{kind} trials take no {unknown} axis; "
            f"known: {sorted(POA_AXES)}"
        )
    if required is not None and params.get(required) is None:
        raise ValueError(
            f"{kind} trials need an explicit {required!r} spec "
            '({"model": "uniform"} / {"model": "linear"} is the paper\'s game)'
        )
    n = int(params["n"])
    m = params.get("m")
    traffic = traffic_from_spec(params.get("traffic"), n)
    result = family_poa(
        params.get("family", family),
        n,
        params["alpha"],
        _concept(params),
        params.get("k"),
        m=None if m is None else int(m),
        traffic=traffic,
        cost_model=costmodel_from_spec(params.get("costmodel"), n),
    )
    out: dict[str, Any] = {"poa": result.poa}
    if result.best_cost is not None:
        out.update(worst_cost=result.worst_cost, best_cost=result.best_cost)
    out.update(equilibria=result.equilibria, candidates=result.candidates)
    if certified:
        out.update(_witness_payload(result.witness, traffic))
    return out


for _kind in POA_KINDS:
    runner(_kind)(functools.partial(run_poa, _kind))


@runner("conjecture_hunt")
def run_conjecture_hunt(
    params: Mapping[str, Any], base_seed: int
) -> dict[str, Any]:
    """One exhaustive Corbo–Parkes cell: every NE on every connected
    graph at ``(n, alpha)``, each checked for pairwise stability
    (:func:`repro.analysis.search.exhaustive_conjecture_sweep`), with
    replayable refutation certificates.  Deterministic — no sampling —
    so the sweep shards and resumes like any other campaign."""
    from repro.analysis.search import exhaustive_conjecture_sweep

    sweep = exhaustive_conjecture_sweep(
        int(params["n"]),
        params["alpha"],
        max_certificates=int(params.get("max_certificates", 5)),
    )
    return {
        "candidates": sweep.candidates,
        "feasible_graphs": sweep.feasible_graphs,
        "ne_graphs": sweep.ne_graphs,
        "ne_assignments": sweep.ne_assignments,
        "counterexample_graphs": sweep.counterexample_graphs,
        "certificates": list(sweep.certificates),
    }


def _figure_registry():
    from repro.constructions.figures import (
        figure2_nash_not_pairwise_stable,
        figure5_bae_bge_not_bne,
        figure6_bne_not_2bse,
        figure7_kbse_not_bne,
        figure8_bae_not_unilateral_ae,
    )

    return {
        "figure2": figure2_nash_not_pairwise_stable,
        "figure5": figure5_bae_bge_not_bne,
        "figure6": figure6_bne_not_2bse,
        "figure7": figure7_kbse_not_bne,
        "figure8": figure8_bae_not_unilateral_ae,
    }


@runner("constructions")
def run_constructions(
    params: Mapping[str, Any], base_seed: int
) -> dict[str, Any]:
    """One paper figure as a campaign trial.

    Rebuilds the named construction
    (:mod:`repro.constructions.figures`; ``figure7`` accepts ``k`` /
    ``i``) and reports its exact polynomial-ladder memberships plus the
    headline quantities — deterministic, so figure sweeps shard and
    resume like any other campaign.
    """
    from repro.analysis.search import classify_re_bae_bswe
    from repro.core.state import GameState

    registry = _figure_registry()
    name = params["figure"]
    try:
        build = registry[name]
    except KeyError:
        raise ValueError(
            f"unknown figure {name!r}; known: {sorted(registry)}"
        ) from None
    if name == "figure7":
        kwargs = {}
        if params.get("k") is not None:
            kwargs["k"] = int(params["k"])
        if params.get("i") is not None:
            kwargs["i"] = int(params["i"])
        fig = build(**kwargs)
    else:
        fig = build()
    state = GameState(fig.graph, fig.alpha)
    re_ok, bae_ok, bswe_ok = classify_re_bae_bswe(state)
    return {
        "n": state.n,
        "alpha": fig.alpha,
        "re": re_ok,
        "bae": bae_ok,
        "bswe": bswe_ok,
        "ps": re_ok and bae_ok,
        "bge": re_ok and bae_ok and bswe_ok,
        "rho": state.rho(),
    }


@runner("ladder_classify")
def run_ladder_classify(
    params: Mapping[str, Any], base_seed: int
) -> dict[str, Any]:
    """Full-ladder stability profile of one seeded random instance.

    Draws the start graph from ``(base_seed, n, alpha, start, index)``
    through :func:`repro._rng.derive_seed` and runs
    :func:`repro.analysis.search.classify_full_ladder` with a second
    derived seed for the exponential concepts' probe fallbacks — fully
    reproducible at any worker count.  Results carry per-concept
    ``stable`` / ``exhaustive`` flags.

    An optional ``costmodel`` spec re-classifies the same seeded
    instance under a generalized cost regime (the start graph draw does
    not depend on the model, so linear-vs-concave-vs-max rows of a sweep
    see identical instances).  Modeled trials report the exact
    ``social_cost`` instead of ``rho`` (no linear optimum to divide by);
    trials without the axis are byte-identical to the historical result.
    """
    from repro.analysis.search import classify_full_ladder
    from repro.core.costmodel import costmodel_from_spec
    from repro.core.state import GameState
    from repro.graphs.generation import random_connected_gnp, random_tree

    n = int(params["n"])
    index = int(params["index"])
    start = params.get("start", "tree")
    alpha = params["alpha"]
    cost_model = costmodel_from_spec(params.get("costmodel"), n)
    rng = coerce_rng(derive_seed(base_seed, "ladder", n, str(alpha), start, index))
    if start == "tree":
        graph = random_tree(n, rng)
    elif start == "gnp":
        graph = random_connected_gnp(n, float(params.get("p", 0.3)), rng)
    else:
        raise ValueError(f"unknown start family {start!r}")
    state = GameState(graph, alpha, cost_model=cost_model)
    reports = classify_full_ladder(
        state,
        max_coalition_size=int(params.get("max_coalition_size", 3)),
        seed=derive_seed(base_seed, "ladder-probe", n, str(alpha), start, index),
        probe_samples=int(params.get("probe_samples", 2000)),
    )
    headline = (
        {"rho": state.rho()}
        if state.valuation.uniform_linear
        else {"social_cost": state.social_cost()}
    )
    return {
        **headline,
        "ladder": {
            concept.name: {
                "stable": bool(report.stable),
                "exhaustive": bool(report.exhaustive),
            }
            for concept, report in sorted(
                reports.items(), key=lambda item: item[0].name
            )
        },
    }


@runner("dynamics")
def run_dynamics_trial(
    params: Mapping[str, Any], base_seed: int
) -> dict[str, Any]:
    """One seeded improving-move dynamics run from a random tree.

    Mirrors one index of
    :func:`repro.dynamics.convergence.convergence_study` exactly: the
    per-run rng is ``coerce_rng(trial_seed(base_seed, index))`` (the
    study's historical formula), the start tree is drawn first, then the
    stability factor of the start is measured, then the dynamics run —
    so a campaign over ``index: range(runs)`` aggregates to the very
    same :class:`~repro.dynamics.convergence.ConvergenceStats`.

    ``traffic`` / ``costmodel`` spec params run the weighted or
    generalized game.  Every trial reports ``final_quality``
    (:func:`repro.core.optimum.quality_ratio` — clique/star-relative,
    == rho for uniform-linear) and ``final_social_cost``; ``final_rho``
    is only present in the uniform-linear regime, where the closed-form
    optimum applies.
    """
    from repro.core.costmodel import costmodel_from_spec
    from repro.core.optimum import quality_ratio
    from repro.core.state import GameState
    from repro.core.traffic import traffic_from_spec
    from repro.dynamics.engine import run_dynamics
    from repro.equilibria.approximate import stability_factor
    from repro.graphs.generation import random_tree

    concept = _concept(params)
    n = int(params["n"])
    index = int(params["index"])
    max_rounds = int(params.get("max_rounds", 2000))
    scheduler = scheduler_by_name(params.get("scheduler", "first"))
    traffic = traffic_from_spec(params.get("traffic"), n)
    cost_model = costmodel_from_spec(params.get("costmodel"), n)

    rng = coerce_rng(trial_seed(base_seed, index))
    start = random_tree(n, rng)
    start_state = GameState(
        start, params["alpha"], traffic=traffic, cost_model=cost_model
    )
    instability = stability_factor(start_state, concept)
    result = run_dynamics(
        start,
        params["alpha"],
        concept,
        scheduler=scheduler,
        max_rounds=max_rounds,
        rng=rng,
        traffic=traffic,
        cost_model=cost_model,
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
