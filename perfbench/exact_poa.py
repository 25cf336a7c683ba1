"""``exact-poa-n8``: exact PoA over all 11117 connected graphs at n = 8.

One timed unit is a whole campaign in a fresh interpreter, so the layer
memos and the canonical memo start cold as they do in a campaign worker:
PS at alpha = 2, one layered ``exact_poa`` trial per edge count m = 7..28,
run by ``run_campaign`` into an on-disk store, then ``render_report``.
The inputs are the whole family, so the seed only becomes the campaign's
base seed (which the ``exact_poa`` runner does not use).

Run as a script, this file is the worker: it prints one JSON line with
its timings and outputs.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time

import layers
import tracing
from common import (
    BENCH_DIR, CALIBRATION_REF_S, WORK, Calibrator, Outcome, child_env,
    percentile, repeat_within,
)

#: connected graphs on 8 nodes (OEIS A001349)
CLASSES = 11117
#: SHA-256 of the rendered report, and of the per-trial results, as the
#: seed code produces them
REPORT_SHA256 = (
    "9f22709f2b628f7745bf41a631d4d088714c76d88279dcb2de7570ca6974a0b6"
)
RESULTS_SHA256 = (
    "d1168bddae001eec85f03d7d09e9e0d3eed2cf26345f7d7ca6811f7badd7e68e"
)
SETUP_SAMPLES = 3
CALIBRATION_REPEATS = 3
TIMEOUT_S = 170


def campaign_spec(seed: int):
    from repro.campaigns import CampaignSpec

    return CampaignSpec(
        name="exact-poa-n8",
        kind="exact_poa",
        seed=seed,
        grids=(
            {
                "family": "graphs",
                "n": 8,
                "m": {"$range": [7, 29]},
                "alpha": [2],
                "concept": ["PS"],
            },
        ),
        report={
            "reducer": "exact_poa_table",
            "options": {
                "n": 8,
                "alphas": [2],
                "columns": [
                    {
                        "header": "PoA(PS) graphs",
                        "concept": "PS",
                        "params": {"family": "graphs"},
                    }
                ],
            },
        },
    )


def _worker(argv) -> None:
    """Times are scaled to the reference machine here, in the process that
    does the work: by a calibration after setup, and per trial by the
    calibrations just before and after it (run between trials from the
    campaign's progress hook, and left out of ``wall_s``)."""
    t0_ns, store_dir, seed, mode = int(argv[0]), argv[1], int(argv[2]), argv[3]
    import resource

    from repro import campaigns
    from repro.campaigns import CampaignStore, run_campaign
    from repro.campaigns.spec import to_jsonable

    store = CampaignStore(store_dir)
    setup_s = (time.monotonic_ns() - t0_ns) / 1e9
    calibrator = Calibrator(CALIBRATION_REPEATS)
    out = {"setup_s": setup_s * CALIBRATION_REF_S / calibrator.first}
    if mode != "setup":
        tracer = None
        if mode != "plain":
            from repro.obs.metrics import REGISTRY

            tracer = tracing.Tracer()
            tracing.install(tracer)
            before = REGISTRY.snapshot()
        spec = campaign_spec(seed)
        scales: list[float] = []
        calibrating = [0.0]

        def calibrate(*_) -> None:
            begun = time.perf_counter()
            scales.append(calibrator.mark())
            calibrating[0] += time.perf_counter() - begun

        window_start = time.monotonic_ns()
        begun = time.perf_counter()
        stats = run_campaign(spec, store, progress=calibrate)
        report = campaigns.render_report(spec, store)
        raw_wall_s = time.perf_counter() - begun - calibrating[0]
        window = (window_start, time.monotonic_ns())
        calibrate()
        trial_s = [
            outcome.elapsed * scale
            for outcome, scale in zip(stats.outcomes, scales)
        ]
        rest_s = raw_wall_s - sum(outcome.elapsed for outcome in stats.outcomes)
        results = [
            [outcome.key, to_jsonable(outcome.result)]
            for outcome in stats.outcomes
        ]
        out.update(
            wall_s=sum(trial_s) + rest_s * statistics.median(scales),
            raw_wall_s=raw_wall_s,
            scale=statistics.median(scales),
            trial_s=trial_s,
            trials=stats.executed,
            trials_failed=stats.failed,
            candidates=sum(
                outcome.result["candidates"]
                for outcome in stats.outcomes
                if outcome.result is not None
            ),
            report_sha256=hashlib.sha256(report.encode()).hexdigest(),
            results_sha256=hashlib.sha256(
                json.dumps(sorted(results), sort_keys=True).encode()
            ).hexdigest(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        )
        if tracer is not None:
            deltas = layers.counter_delta(before, REGISTRY.snapshot())
            tracer.write(mode)
            out.update(window=window, deltas=deltas)
    print(json.dumps(out))


def _spawn(seed: int, mode: str) -> dict:
    """One fresh interpreter; ``mode`` is ``setup``, ``plain`` or the path
    the traced worker writes its spans to."""
    with tempfile.TemporaryDirectory(prefix="run-", dir=WORK) as store_dir:
        t0_ns = time.monotonic_ns()
        completed = subprocess.run(
            [sys.executable, str(BENCH_DIR / "exact_poa.py"), str(t0_ns),
             store_dir, str(seed), mode],
            env=child_env(), capture_output=True, text=True,
            timeout=TIMEOUT_S, check=False,
        )
    if completed.returncode != 0:
        raise RuntimeError(
            f"exact-poa worker failed ({completed.returncode}):\n"
            + completed.stderr[-4000:]
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _failures(unit: dict) -> int:
    return (
        unit["trials_failed"]
        + (unit["candidates"] != CLASSES)
        + (unit["report_sha256"] != REPORT_SHA256)
        + (unit["results_sha256"] != RESULTS_SHA256)
    )


def run(workload, seed, seconds, trace) -> Outcome:
    """Times are calibrated inside the worker."""
    if not trace:
        units = [
            unit for unit, _ in repeat_within(
                seconds, lambda: _spawn(seed, "plain"), None
            )
        ]
        setups = [unit["setup_s"] for unit in units]
        setups += [
            _spawn(seed, "setup")["setup_s"]
            for _ in range(max(0, SETUP_SAMPLES - len(units)))
        ]
        trial_s = [value for unit in units for value in unit["trial_s"]]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(unit["wall_s"] for unit in units),
            "req_per_s": statistics.median(
                unit["candidates"] / unit["wall_s"] for unit in units
            ),
            "p50_ms": 1000 * statistics.median(trial_s),
            "p99_ms": 1000 * percentile(trial_s, 99),
            "peak_rss_mb": statistics.median(
                unit["peak_rss_mb"] for unit in units
            ),
        }
        notes = {
            "units": len(units), "trial_samples": len(trial_s),
            "scale": statistics.median(unit["scale"] for unit in units),
        }
        attempted = sum(unit["trials"] + 3 for unit in units)
        failed = sum(_failures(unit) for unit in units)
        return Outcome(metrics, attempted, failed, notes)

    plain = _spawn(seed, "plain")
    trace_path = WORK / f"trace-{workload}.txt"
    traced = _spawn(seed, str(trace_path))
    spans, marks = tracing.read_trace(trace_path)
    spans = tracing.in_windows(spans, [traced["window"]])
    table = tracing.self_times(spans)
    metrics = layers.layer_metrics(
        table, tracing.mark_counts(spans, marks), traced["deltas"], 1,
        wall_s=traced["raw_wall_s"],
        root_s=tracing.root_time_s(spans),
        overhead_s=traced["wall_s"] - plain["wall_s"],
        scale=traced["scale"],
    )
    # the traced run must reproduce the untraced outputs exactly
    failed = _failures(plain) + _failures(traced)
    failed += traced["results_sha256"] != plain["results_sha256"]
    notes = {"untraced_units": 1, "traced_units": 1}
    attempted = plain["trials"] + traced["trials"] + 7
    return Outcome(
        metrics, attempted, failed, notes,
        table=layers.per_unit_table(table, 1, traced["scale"]),
        basis_s=traced["raw_wall_s"] * traced["scale"],
    )


if __name__ == "__main__":
    _worker(sys.argv[1:])
