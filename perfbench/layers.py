"""The per-layer metrics of a traced run, assembled from spans and counters.

Times and counts are per timed unit (one repetition for the dynamics and
exact-PoA workloads, one block of requests for ``serve-mix``), so a
workload's layer self times add up, with ``other.self_s``, to its traced
``wall_s`` (on ``serve-mix``: to the summed client latency of a block).
Ratios are taken over the whole traced phase.
"""

from __future__ import annotations

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("distances.rows_after_remove_from.self_s", "s", "lower"),
    ("distances.rows_after_remove_from.calls", "count", "lower"),
    ("distances.rows_after_remove_from.rows", "count", "lower"),
    ("distances.rows_after_remove_from.changed_rows_frac", "ratio", "higher"),
    ("distances.apsp_matrix.self_s", "s", "lower"),
    ("distances.apsp_matrix.calls", "count", "lower"),
    ("distances.apply.self_s", "s", "lower"),
    ("distances.bfs_repair_rows", "count", "lower"),
    ("bridges.component_bridges.self_s", "s", "lower"),
    ("bridges.sweeps", "count", "lower"),
    ("canonical.key_of_masks.self_s", "s", "lower"),
    ("canonical.key_of_masks.calls", "count", "lower"),
    ("canonical.canonical_labelling.self_s", "s", "lower"),
    ("canonical.canonical_labelling.calls", "count", "lower"),
    ("canonical.memo_hit_ratio", "ratio", "higher"),
    ("enumerate.connected_graph_layer.self_s", "s", "lower"),
    ("enumerate.distinct_per_key", "ratio", "higher"),
    ("state.GameState.self_s", "s", "lower"),
    ("state.GameState.calls", "count", "lower"),
    ("speculative.best.self_s", "s", "lower"),
    ("speculative.evaluations", "count", "lower"),
    ("batch.add_gains.self_s", "s", "lower"),
    ("batch.remove_losses.self_s", "s", "lower"),
    ("batch.swap_deltas.self_s", "s", "lower"),
    ("batch.dispatch.add", "count", "lower"),
    ("batch.dispatch.remove", "count", "lower"),
    ("batch.dispatch.swap", "count", "lower"),
    ("batch.dispatch.fallback", "count", "lower"),
    ("movegen.improving_moves.self_s", "s", "lower"),
    ("movegen.candidates", "count", "lower"),
    ("equilibria.check.self_s", "s", "lower"),
    ("equilibria.check.PS.self_s", "s", "lower"),
    ("equilibria.diagnose.self_s", "s", "lower"),
    ("campaigns.execute_trial.self_s", "s", "lower"),
    ("campaigns.store_append.self_s", "s", "lower"),
    ("campaigns.render_report.self_s", "s", "lower"),
    ("campaigns.trials_failed", "count", "lower"),
    ("serve.handle.self_s", "s", "lower"),
    ("serve.transport_s", "s", "lower"),
    ("serve.engine_hit_ratio", "ratio", "higher"),
    ("serve.response_hit_ratio", "ratio", "higher"),
    ("serve.engine_builds", "count", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

#: registry series (``repro.obs``) behind the counter metrics
_COUNTERS = {
    "distances.bfs_repair_rows": "repro_engine_bfs_repair_rows_total",
    "bridges.sweeps": "repro_engine_bridge_sweeps_total",
    "speculative.evaluations": "repro_engine_evaluations_total",
    "batch.dispatch.add": 'repro_batch_dispatch_total{arm="add"}',
    "batch.dispatch.remove": 'repro_batch_dispatch_total{arm="remove"}',
    "batch.dispatch.swap": 'repro_batch_dispatch_total{arm="swap"}',
    "batch.dispatch.fallback": 'repro_batch_dispatch_total{arm="fallback"}',
    "campaigns.trials_failed": 'repro_campaign_trials_total{status="error"}',
    "serve.engine_builds": "repro_serve_engine_builds_total",
}

#: (hits series, misses series) behind the hit ratios
_RATIOS = {
    "canonical.memo_hit_ratio": (
        "repro_canonical_cache_hits_total",
        "repro_canonical_cache_misses_total",
    ),
    "serve.engine_hit_ratio": (
        "repro_serve_engine_cache_hits_total",
        "repro_serve_engine_cache_misses_total",
    ),
    "serve.response_hit_ratio": (
        "repro_serve_response_cache_hits_total",
        "repro_serve_response_cache_misses_total",
    ),
}


def counter_delta(before: dict, after: dict) -> dict:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def parse_exposition(text: str) -> dict:
    """``series -> value`` from a Prometheus text exposition (``/metricsz``)."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            values[series] = float(value)
    return values


def per_unit_table(table: dict, units: float, scale: float) -> dict:
    """:func:`tracing.self_times` rows per unit, times calibrated."""
    return {
        name: {
            "self_s": row["self_s"] * scale / units,
            "total_s": row["total_s"] * scale / units,
            "calls": row["calls"] / units,
        }
        for name, row in table.items()
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    table: dict,
    counts: dict,
    deltas: dict,
    units: int,
    wall_s: float,
    root_s: float,
    overhead_s: float,
    scale: float,
    transport_s: float = 0.0,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced phase.

    ``table`` is :func:`tracing.self_times` over the phase's spans,
    ``counts`` the totals of their marks, ``deltas`` the registry counter
    deltas over the phase, ``units`` the number of timed units in it,
    ``wall_s`` their summed wall time and ``root_s`` the part of it the
    outermost spans cover.  Times are multiplied by the phase's
    calibration ``scale``, except ``overhead_s``, which comes scaled.
    """

    def row(name: str) -> dict:
        return table.get(name, {"self_s": 0.0, "calls": 0, "parents": {}})

    checks = [name for name in table if name.startswith("equilibria.check.")]
    rows = counts.get("rows", 0)
    keys_in_layers = row("canonical.key_of_masks")["parents"].get(
        "enumerate.connected_graph_layer", 0
    )
    out: dict[str, float] = {
        "distances.rows_after_remove_from.rows": rows,
        "distances.rows_after_remove_from.changed_rows_frac": _ratio(
            counts.get("changed_rows", 0), rows
        ),
        "enumerate.distinct_per_key": _ratio(
            counts.get("kept", 0), keys_in_layers
        ),
        "movegen.candidates": counts.get("candidates", 0),
        "equilibria.check.self_s": sum(table[name]["self_s"] for name in checks),
        "serve.transport_s": transport_s,
        "other.self_s": wall_s - root_s,
        "trace.overhead_s": overhead_s,
    }
    for name, series in _COUNTERS.items():
        out[name] = deltas.get(series, 0)
    for name, (hits, misses) in _RATIOS.items():
        got = deltas.get(hits, 0)
        out[name] = _ratio(got, got + deltas.get(misses, 0))
    for name, _, _ in PER_LAYER:
        if name in out:
            continue
        layer, _, stat = name.rpartition(".")
        out[name] = row(layer)["self_s" if stat == "self_s" else "calls"]
    factors = {
        name: (scale if unit == "s" else 1.0) / units
        for name, unit, _ in PER_LAYER if unit != "ratio"
    }
    factors["trace.overhead_s"] = 1.0
    return {name: value * factors.get(name, 1.0) for name, value in out.items()}
