"""Trial runners: how one cell of a campaign grid is executed.

Each runner is a plain function ``(params, base_seed) -> result dict``
registered under a *kind* name with the axes it reads; :func:`execute_trial`
checks a :class:`~repro.campaigns.spec.Trial` against that registration
and dispatches it to its runner inside a worker process.  Results must
be exact (``Fraction`` where the quantity is exact) and JSON-encodable
through :func:`repro.campaigns.spec.to_jsonable`.

Determinism contract: a runner's randomness, if any, is derived from the
campaign's base seed and the trial's own parameters through
:mod:`repro._rng` — never from ambient state — so a sharded pool
reproduces the serial run bit-for-bit at any worker count.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Mapping

from repro._rng import coerce_rng, derive_seed
from repro.campaigns.spec import (
    INT_AXES, CampaignSpec, Trial, _normalise_param, check_fields, check_int,
)
from repro.core.concepts import Concept
from repro.core.costmodel import regime_from_spec

__all__ = [
    "RUNNERS", "check_trial", "execute_trial", "runnable_trials", "runner",
    "scheduler_by_name",
]

Runner = Callable[[Mapping[str, Any], int], dict[str, Any]]

#: kind -> (runner, the axes it reads)
RUNNERS: dict[str, tuple[Runner, frozenset[str]]] = {}


def runner(kind: str, axes: str) -> Callable[[Runner], Runner]:
    """Register ``kind``'s runner; it reads only ``axes`` (space-separated)."""

    def register(fn: Runner) -> Runner:
        if kind in RUNNERS:
            raise ValueError(f"duplicate runner kind {kind!r}")
        RUNNERS[kind] = (fn, frozenset(axes.split()))
        return fn

    return register


def check_trial(kind: str, params: Mapping[str, Any]) -> Runner:
    """The runner of ``kind``; ``ValueError`` for an unknown kind, an axis
    it does not read, an integer axis (``INT_AXES``) that is not an int
    or falls below its minimum, or a ``traffic`` / ``costmodel`` that
    :func:`~repro.core.costmodel.regime_from_spec` refuses.

    The one trial check: campaign specs and serve's ``poa`` queries both
    go through it."""
    if kind not in RUNNERS:
        raise ValueError(
            f"unknown trial kind {kind!r}; known: {sorted(RUNNERS)}"
        )
    run, axes = RUNNERS[kind]
    check_fields(params, axes, f"{kind} axes")
    for axis in sorted(INT_AXES.keys() & params.keys()):
        if params[axis] is not None:
            try:
                check_int(axis, params[axis])
            except ValueError as exc:
                raise ValueError(f"{kind} axis {exc}") from None
    traffic, costmodel = params.get("traffic"), params.get("costmodel")
    if traffic is not None or costmodel is not None:
        try:
            alpha = _normalise_param("alpha", params.get("alpha"))
            regime_from_spec(params.get("n"), alpha, traffic, costmodel)
        except (ValueError, TypeError, KeyError, ArithmeticError) as exc:
            raise ValueError(f"{kind} traffic/costmodel: {exc}") from None
    return run


def runnable_trials(spec: CampaignSpec) -> list[Trial]:
    """``spec``'s trials, each checked against its runner."""
    trials = spec.trials()
    for trial in trials:
        check_trial(trial.kind, trial.params)
    return trials


def execute_trial(
    kind: str, params: Mapping[str, Any], base_seed: int
) -> dict[str, Any]:
    """Run one trial and return its result dict (raises on failure)."""
    return check_trial(kind, params)(params, base_seed)


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
    list.  Deterministic; the base seed is unused.
    """
    from repro.analysis.poa import family_poa
    from repro.core.costmodel import costmodel_from_spec
    from repro.core.traffic import traffic_from_spec

    family, required, certified = POA_KINDS[kind]
    if required is not None and params.get(required) is None:
        raise ValueError(
            f"{kind} trials need an explicit {required!r} spec "
            '({"model": "uniform"} / {"model": "linear"} is the paper\'s game)'
        )
    n = params["n"]
    traffic = traffic_from_spec(params.get("traffic"), n)
    result = family_poa(
        params.get("family", family),
        n,
        params["alpha"],
        _concept(params),
        params.get("k"),
        m=params.get("m"),
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
    runner(_kind, "n alpha concept k family m traffic costmodel")(
        functools.partial(run_poa, _kind)
    )


@runner("conjecture_hunt", "n alpha max_certificates")
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
        params["n"],
        params["alpha"],
        max_certificates=params.get("max_certificates", 5),
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


@runner("constructions", "figure k i")
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
            kwargs["k"] = params["k"]
        if params.get("i") is not None:
            kwargs["i"] = params["i"]
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


@runner(
    "ladder_classify",
    "n alpha index start p costmodel max_coalition_size probe_samples",
)
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

    n = params["n"]
    index = params["index"]
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
        max_coalition_size=params.get("max_coalition_size", 3),
        seed=derive_seed(base_seed, "ladder-probe", n, str(alpha), start, index),
        probe_samples=params.get("probe_samples", 2000),
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


@runner(
    "dynamics", "n alpha concept index scheduler max_rounds traffic costmodel"
)
def run_dynamics_trial(
    params: Mapping[str, Any], base_seed: int
) -> dict[str, Any]:
    """One seeded improving-move dynamics run from a random tree: index
    ``index`` of :func:`repro.dynamics.convergence.convergence_study`
    (:func:`~repro.dynamics.convergence.convergence_run`), so a campaign
    over ``index: range(runs)`` aggregates to the very same
    :class:`~repro.dynamics.convergence.ConvergenceStats`.

    ``traffic`` / ``costmodel`` spec params run the weighted or
    generalized game.
    """
    from repro.core.costmodel import costmodel_from_spec
    from repro.core.traffic import traffic_from_spec
    from repro.dynamics.convergence import convergence_run

    n = params["n"]
    return convergence_run(
        _concept(params), n, params["alpha"], base_seed, params["index"],
        max_rounds=params.get("max_rounds", 2000),
        scheduler=scheduler_by_name(params.get("scheduler", "first")),
        traffic=traffic_from_spec(params.get("traffic"), n),
        cost_model=costmodel_from_spec(params.get("costmodel"), n),
    )
