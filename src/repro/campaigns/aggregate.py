"""Reducers: roll a campaign's trial records up into paper tables.

A reducer maps ``(spec, store, options)`` to the rendered report text,
reusing :mod:`repro.analysis.tables` so campaign reports read exactly
like the hand-rolled benchmark output they replace.  Reducers iterate in
*spec expansion order* (never store insertion order), so the report is
byte-identical no matter how many workers produced the records or in
which order they landed.

Built-in reducers:

``poa_table`` and its aliases
    One reducer (:func:`reduce_poa_table`): alpha rows against concept
    columns, cells the exact worst-case PoA of the matching PoA trials.
    ``exact_poa_table`` is the same table, ``weighted_poa_table``
    repeats the rows per traffic regime (``traffics``) and
    ``costmodel_poa_table`` per cost model (``models``); the names
    differ only in that row axis and their default title.  A cell may be
    one whole-family trial *or* sharded across an ``m`` (edge-count
    layer) axis; layered cells aggregate exactly (:func:`roll_up`) —
    PoA is the max over layers, equilibria/candidates the sum — so the
    table is byte-identical whether the campaign ran layered or whole.
``poa_fit``
    PoA-vs-alpha scaling fits (:mod:`repro.analysis.fitting`) over the
    same cells: one row per concept column with the ``rho ~ log2(alpha)``
    slope, the log-log power-law exponent and the relative spread — the
    shape comparison behind the paper's Theta claims, computed from
    campaign records instead of a hand-rolled benchmark loop.
``convergence``
    Groups ``dynamics`` trials by everything but their seed ``index``
    and reduces each group to a
    :class:`~repro.dynamics.convergence.ConvergenceStats` — numerically
    identical to an in-process
    :func:`~repro.dynamics.convergence.convergence_study` with the same
    parameters.
``trial_table``
    A flat listing of every trial and its status — the fallback report
    for any campaign shape.
``conjecture_table``
    One row per ``conjecture_hunt`` cell: graphs scanned, NE counts,
    refutations, and the first replayable certificate.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Any, Callable, Mapping

from repro._alpha import as_alpha
from repro.analysis.tables import render_table
from repro.campaigns.spec import CampaignSpec, Trial, trial_key
from repro.campaigns.store import CampaignStore
from repro.core.concepts import Concept
from repro.dynamics.convergence import ConvergenceStats

__all__ = [
    "REDUCERS",
    "convergence_stats",
    "layer_groups",
    "layer_key",
    "reduce_conjecture_table",
    "reduce_convergence",
    "reduce_poa_fit",
    "reduce_poa_table",
    "reduce_trial_table",
    "render_report",
    "roll_up",
]

Reducer = Callable[[CampaignSpec, CampaignStore, Mapping[str, Any]], str]


def layer_key(kind: str, params: Mapping[str, Any]) -> str:
    """A trial's key with the edge-count layer axis ``m`` stripped: every
    layer of one PoA cell shares it with the cell's unlayered trial."""
    return trial_key(
        kind, {name: value for name, value in params.items() if name != "m"}
    )


def layer_groups(spec: CampaignSpec) -> dict[str, list[Trial]]:
    """The spec's trials by :func:`layer_key`, each group in spec order."""
    groups: dict[str, list[Trial]] = {}
    for trial in spec.trials():
        groups.setdefault(layer_key(trial.kind, trial.params), []).append(
            trial
        )
    return groups


def roll_up(results: list[Mapping[str, Any]]) -> dict[str, Any]:
    """One PoA cell from its trials' results: the PoA is the max over
    layers, equilibria and candidates the sums.

    A family-relative PoA (results with ``best_cost``) is not the max of
    the layers' ratios: it is the worst equilibrium cost over every
    layer divided by the cheapest cost over every layer.
    """
    poas = [r["poa"] for r in results if r.get("poa") is not None]
    cell: dict[str, Any] = {"poa": max(poas) if poas else None}
    if any("best_cost" in r for r in results):
        worst = max(
            (r["worst_cost"] for r in results if r["worst_cost"] is not None),
            default=None,
        )
        best = min(r["best_cost"] for r in results)
        cell = {
            "poa": None if worst is None else worst / best,
            "worst_cost": worst,
            "best_cost": best,
        }
    cell["equilibria"] = sum(r.get("equilibria", 0) for r in results)
    cell["candidates"] = sum(r.get("candidates", 0) for r in results)
    return cell


class _PoAGrid:
    """The options every PoA reducer shares, and its cell lookup.

    Options: ``n``, ``alphas``, ``columns`` (``{"header", "concept",
    "k"?, "params"?}``), optional ``family`` (merged into every cell
    unless the column pins one), ``kind`` (defaults to the campaign
    kind) and ``title`` (may reference ``{n}``).  A cell's trials are
    the spec trials whose parameters, with ``m`` stripped, match the
    cell: one whole-family trial or many layered ones.  Either way the
    cell is their :func:`roll_up`, so layered and whole campaigns render
    byte-identically.
    """

    def __init__(self, spec, store, options, title: str):
        self.n = int(options["n"])
        self.alphas = [as_alpha(a) for a in options["alphas"]]
        self.columns = list(options["columns"])
        self.title = options.get("title", title).format(n=self.n)
        self._family = options.get("family")
        self._kind = options.get("kind", spec.kind)
        self._store = store
        self._groups = layer_groups(spec)

    def result(self, alpha, column, regime=None) -> dict[str, Any] | None:
        """The cell at ``alpha`` in ``column`` (and a row ``regime``,
        whose keys but ``label`` are trial parameters); ``None`` while any
        of its trials is pending."""
        params: dict[str, Any] = {
            "n": self.n,
            "alpha": alpha,
            "concept": Concept.parse(column["concept"]),
        }
        if column.get("k") is not None:
            params["k"] = int(column["k"])
        params.update(column.get("params") or {})
        if self._family is not None:
            params.setdefault("family", self._family)
        for name, value in (regime or {}).items():
            if name != "label" and value is not None:
                params[name] = value
        trials = self._groups.get(trial_key(self._kind, params), [])
        results = [self._store.result(trial.key) for trial in trials]
        if not results or any(result is None for result in results):
            return None
        return roll_up(results)


def reduce_poa_table(
    spec: CampaignSpec,
    store: CampaignStore,
    options: Mapping[str, Any],
    rows: tuple[str, str] | None = None,
    title: str = "Exact tree PoA by cooperation level (all trees, n={n})",
) -> str:
    """Alpha-by-concept PoA table, optionally one block per row regime.

    Options as for every PoA reducer (:class:`_PoAGrid`).  ``rows`` is
    the ``(option, header)`` of a regime axis: ``weighted_poa_table``
    reads ``traffics`` (``{"label", "traffic"}``) and
    ``costmodel_poa_table`` reads ``models`` (``{"label", "costmodel",
    "traffic"?}``), with the same spec dicts the grid used.  Pending
    cells render ``?``, equilibrium-free ones ``-``.
    """
    grid = _PoAGrid(spec, store, options, title)
    regimes = [None] if rows is None else list(options[rows[0]])
    table = []
    for regime in regimes:
        for alpha in grid.alphas:
            row: list[Any] = [] if regime is None else [regime["label"]]
            row.append(alpha)
            for column in grid.columns:
                result = grid.result(alpha, column, regime)
                if result is None:
                    row.append("?")
                else:
                    row.append(float(result["poa"]) if result["poa"] else "-")
            table.append(row)
    headers = [] if rows is None else [rows[1]]
    headers += ["alpha"] + [column["header"] for column in grid.columns]
    return render_table(headers, table, title=grid.title)


def reduce_poa_fit(
    spec: CampaignSpec, store: CampaignStore, options: Mapping[str, Any]
) -> str:
    """PoA-vs-alpha scaling fits per concept column.

    Options as for every PoA reducer (:class:`_PoAGrid`).  Each column's
    ``(alpha, poa)`` points (completed cells with an equilibrium) feed
    :func:`repro.analysis.fitting.fit_log_slope` and
    :func:`~repro.analysis.fitting.fit_power_law`; rows report both
    slopes, their r-squared and the relative spread, so a
    ``Theta(log alpha)`` family shows a stable positive log slope and a
    ``Theta(sqrt alpha)`` family a power exponent near 1/2.
    Deterministic: points aggregate in the listed alpha order.
    """
    from repro.analysis.fitting import (
        fit_log_slope,
        fit_power_law,
        relative_spread,
    )

    grid = _PoAGrid(spec, store, options, "PoA-vs-alpha scaling fits (n={n})")
    rows = []
    for column in grid.columns:
        points: list[tuple[Fraction, Fraction]] = []
        for alpha in grid.alphas:
            result = grid.result(alpha, column)
            if result is None or not result["poa"]:
                continue
            points.append((alpha, result["poa"]))
        if len(points) < 2:
            rows.append(
                [column["header"], len(points), "-", "-", "-", "-", "-"]
            )
            continue
        xs = [point[0] for point in points]
        ys = [point[1] for point in points]
        log_fit = fit_log_slope(xs, ys)
        power_fit = fit_power_law(xs, ys)
        rows.append(
            [
                column["header"],
                len(points),
                log_fit.slope,
                log_fit.r_squared,
                power_fit.slope,
                power_fit.r_squared,
                relative_spread(ys),
            ]
        )
    headers = [
        "column", "points", "log2 slope", "r2(log)",
        "power exp", "r2(power)", "spread",
    ]
    return render_table(headers, rows, title=grid.title)


def reduce_conjecture_table(
    spec: CampaignSpec, store: CampaignStore, options: Mapping[str, Any]
) -> str:
    """Per-cell Corbo–Parkes sweep summary with the first certificate.

    One row per ``conjecture_hunt`` trial in spec order: graphs scanned,
    graphs passing the NE pre-filters, NE-supporting graphs, total NE
    assignments, refuting graphs, and the first refutation certificate
    (break move at the witness's canonical-key digest).  Pending trials
    render ``?``.
    """
    rows = []
    for trial in spec.trials():
        if trial.kind != "conjecture_hunt":
            continue
        params = trial.params
        result = store.result(trial.key)
        if result is None:
            rows.append(
                [params["n"], params["alpha"], "?", "?", "?", "?", "?", "?"]
            )
            continue
        certificates = result.get("certificates") or []
        first = (
            f"{certificates[0]['break']} @ "
            f"{certificates[0]['witness_key'][:12]}"
            if certificates
            else "-"
        )
        rows.append(
            [
                params["n"],
                params["alpha"],
                result["candidates"],
                result["feasible_graphs"],
                result["ne_graphs"],
                result["ne_assignments"],
                result["counterexample_graphs"],
                first,
            ]
        )
    headers = [
        "n", "alpha", "graphs", "feasible", "NE graphs",
        "NE assignments", "refuted", "first certificate",
    ]
    title = options.get(
        "title",
        "Corbo-Parkes conjecture, exhaustively: all NE vs pairwise "
        "stability",
    )
    return render_table(headers, rows, title=title)


def _group_identity(trial: Trial) -> tuple:
    return tuple(
        (name, value) for name, value in trial.items if name != "index"
    )


def convergence_stats(
    spec: CampaignSpec, store: CampaignStore
) -> list[tuple[dict[str, Any], ConvergenceStats]]:
    """Per-group :class:`ConvergenceStats` of a campaign's dynamics trials.

    Groups by every parameter except the seed ``index``; within a group,
    runs aggregate in index order, which makes the float means identical
    to :func:`repro.dynamics.convergence.convergence_study` on the same
    parameters.  Trials without an ``ok`` record are left out (their
    group's ``runs`` shrinks accordingly); a group with no records is
    dropped.
    """
    groups: dict[tuple, list[tuple[int, dict[str, Any]]]] = {}
    order: list[tuple] = []
    for trial in spec.trials():
        if trial.kind != "dynamics":
            continue
        identity = _group_identity(trial)
        if identity not in groups:
            groups[identity] = []
            order.append(identity)
        result = store.result(trial.key)
        if result is not None:
            groups[identity].append((int(trial.params["index"]), result))

    out = []
    for identity in order:
        runs = sorted(groups[identity])
        if not runs:
            continue
        params = dict(identity)
        stats = ConvergenceStats.from_runs(
            Concept.parse(params["concept"]), [result for _, result in runs]
        )
        out.append((params, stats))
    return out


def reduce_convergence(
    spec: CampaignSpec, store: CampaignStore, options: Mapping[str, Any]
) -> str:
    """Convergence-stats table, one row per dynamics group."""
    title = options.get(
        "title", f"Dynamics convergence — campaign {spec.name}"
    )
    rows = []
    for params, stats in convergence_stats(spec, store):
        rows.append(
            [
                str(Concept.parse(params["concept"])),
                params.get("n", "-"),
                params.get("alpha", "-"),
                params.get("scheduler", "first"),
                stats.runs,
                stats.converged,
                stats.cycled,
                stats.mean_rounds,
                # rho is uniform-linear only; weighted/modeled groups
                # report on the regime-aware quality scale instead
                stats.mean_final_rho if stats.mean_final_rho is not None
                else "-",
                stats.worst_final_rho if stats.worst_final_rho is not None
                else "-",
                stats.mean_final_quality,
                stats.worst_final_quality,
                stats.mean_start_instability,
            ]
        )
    headers = [
        "concept", "n", "alpha", "scheduler", "runs", "conv", "cyc",
        "mean rounds", "mean rho", "worst rho", "mean quality",
        "worst quality", "start beta",
    ]
    return render_table(headers, rows, title=title)


def reduce_trial_table(
    spec: CampaignSpec, store: CampaignStore, options: Mapping[str, Any]
) -> str:
    """Flat per-trial listing: parameters, status, headline result."""
    rows = []
    for trial in spec.trials():
        record = store.record_for(trial.key)
        status = "pending" if record is None else record["status"]
        headline = ""
        if record is not None and record["status"] == "ok":
            result = store.result(trial.key)
            # sort: live records carry runner insertion order, reopened
            # ones the JSONL's sorted keys — the report must not differ
            headline = "  ".join(
                f"{name}={_fmt(value)}"
                for name, value in sorted(result.items())
            )
        elif record is not None:
            lines = (record.get("error") or "").strip().splitlines()
            headline = lines[-1] if lines else "error"
        rows.append(
            [
                trial.kind,
                " ".join(f"{k}={_fmt(v)}" for k, v in trial.items),
                status,
                headline,
            ]
        )
    title = options.get("title", f"Campaign {spec.name}: trials")
    return render_table(["kind", "params", "status", "result"], rows, title)


def _fmt(value) -> str:
    if isinstance(value, Concept):
        return value.name
    if isinstance(value, Fraction) and value.denominator == 1:
        return str(value.numerator)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


REDUCERS: dict[str, Reducer] = {
    "poa_table": reduce_poa_table,
    "poa_fit": reduce_poa_fit,
    "convergence": reduce_convergence,
    "trial_table": reduce_trial_table,
    "weighted_poa_table": functools.partial(
        reduce_poa_table,
        rows=("traffics", "traffic"),
        title="Family-relative weighted PoA by traffic regime (n={n})",
    ),
    "costmodel_poa_table": functools.partial(
        reduce_poa_table,
        rows=("models", "model"),
        title="Family-relative PoA by cost model (n={n})",
    ),
    "exact_poa_table": functools.partial(
        reduce_poa_table, title="Exact PoA over all connected graphs (n={n})"
    ),
    "conjecture_table": reduce_conjecture_table,
}


def render_report(spec: CampaignSpec, store: CampaignStore) -> str:
    """Render the campaign's configured report (``spec.report``)."""
    reducer_name = spec.report.get("reducer", "trial_table")
    try:
        reducer = REDUCERS[reducer_name]
    except KeyError:
        raise ValueError(
            f"unknown reducer {reducer_name!r}; known: {sorted(REDUCERS)}"
        ) from None
    text = reducer(spec, store, spec.report.get("options", {}))
    footer = spec.report.get("footer")
    if footer:
        text += "\n\n" + footer
    return text
