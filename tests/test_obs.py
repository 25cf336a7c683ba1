"""The telemetry layer: registry semantics, spy aliases, traces, /metricsz.

The load-bearing guarantees under test:

* the :mod:`repro.obs.metrics` registry has Prometheus-shaped semantics
  — monotone counters, settable gauges (callback-backed or not),
  histograms with the fixed log-spaced bucket edges, deterministic
  exposition text, and a hard error on re-registering a name as a
  different kind;
* every engine spy is read by its registry series name
  (``repro_engine_apsp_builds_total`` & co), the one read path that
  ``/metricsz`` and perfbench share, and every series perfbench reads
  is registered;
* telemetry never alters result bytes: a campaign run with tracing on
  produces records and a report byte-identical to a run with tracing
  off, and a :class:`ServeApp` answers byte-identically under both
  arms — the hard constraint of the observability PR;
* ``/metricsz`` renders valid exposition text over the JSON-only HTTP
  transport (``text/plain; version=0.0.4``) and carries both the
  process-wide engine spies and the per-app serve metrics;
* the ``campaigns status`` ETA/shard lines and the new ``campaigns
  profile`` subcommand summarise a real store and a real trace sink.
"""

from __future__ import annotations

import http.client
import importlib.util
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import networkx as nx
import pytest

from repro.campaigns import CampaignSpec, CampaignStore, run_campaign
from repro.campaigns.aggregate import render_report
from repro.campaigns.cli import main as cli_main
from repro.campaigns.store import _record_identity, merge_shards
from repro.core import speculative
from repro.core.concepts import Concept
from repro.core.state import GameState
from repro.equilibria import strong
from repro.graphs import bridges, canonical, distances
from repro.graphs.distances import DistanceMatrix
from repro.graphs.generation import random_connected_gnp
from repro.obs import metrics, trace
from repro.serve import ServeApp
from repro.serve import cache as serve_cache
from repro.serve.http import start_server_in_thread

from tests.meters import meter

PATH_5 = [[0, 1], [1, 2], [2, 3], [3, 4]]


def fresh_registry():
    return metrics.MetricRegistry()


# -- registry semantics ------------------------------------------------------


class TestCounter:
    def test_monotone_and_reset(self):
        reg = fresh_registry()
        c = reg.counter("t_total", "help")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(ValueError):
            c.inc(-1)
        c.reset()
        assert c.value == 0

    def test_same_name_same_object(self):
        reg = fresh_registry()
        assert reg.counter("t_total", "help") is reg.counter("t_total", "x")

    def test_labels_key_distinct_series(self):
        reg = fresh_registry()
        a = reg.counter("t_total", "help", {"arm": "add"})
        b = reg.counter("t_total", "help", {"arm": "remove"})
        assert a is not b
        a.inc(2)
        b.inc(3)
        assert (a.value, b.value) == (2, 3)

    def test_kind_conflict_raises(self):
        reg = fresh_registry()
        reg.counter("t_total", "help")
        with pytest.raises(ValueError):
            reg.gauge("t_total", "help")

    def test_thread_safe_increments(self):
        reg = fresh_registry()
        c = reg.counter("t_total", "help")

        def spin():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 80_000


class TestGauge:
    def test_set_inc_dec(self):
        reg = fresh_registry()
        g = reg.gauge("t_gauge", "help")
        g.set(10.0)
        g.inc(2.5)
        g.dec(0.5)
        assert g.value == 12.0

    def test_callback_read_at_collection(self):
        reg = fresh_registry()
        box = {"v": 1}
        reg.gauge("t_gauge", "help", fn=lambda: box["v"])
        assert "t_gauge 1" in metrics.render(reg)
        box["v"] = 7
        assert "t_gauge 7" in metrics.render(reg)


class TestHistogram:
    def test_log_bucket_edges(self):
        # half-decade log spacing from 1 microsecond to ~31.6 seconds
        edges = metrics.LOG_BUCKETS
        assert edges == tuple(10.0 ** (k / 2.0) for k in range(-12, 4))
        assert edges[0] == pytest.approx(1e-6)
        assert edges[-1] == pytest.approx(10.0**1.5)
        assert all(b > a for a, b in zip(edges, edges[1:]))

    def test_observe_and_cumulative_samples(self):
        reg = fresh_registry()
        h = reg.histogram("t_seconds", "help", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        samples = dict(
            ((name, dict(labels).get("le")), value)
            for name, labels, value in h.samples()
            if name.endswith("_bucket")
        )
        assert samples[("t_seconds_bucket", "0.1")] == 1
        assert samples[("t_seconds_bucket", "1.0")] == 3
        assert samples[("t_seconds_bucket", "10.0")] == 4
        assert samples[("t_seconds_bucket", "+Inf")] == 5
        flat = {name: value for name, labels, value in h.samples()}
        assert flat["t_seconds_count"] == 5
        assert flat["t_seconds_sum"] == pytest.approx(56.05)

    def test_quantile_returns_upper_edge(self):
        reg = fresh_registry()
        h = reg.histogram("t_seconds", "help", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.05, 0.05, 5.0):
            h.observe(v)
        assert h.quantile(0.5) == 0.1
        assert h.quantile(0.99) == 10.0


class TestRender:
    def test_exposition_format(self):
        reg = fresh_registry()
        reg.counter("t_total", "requests served", {"arm": "add"}).inc(3)
        reg.gauge("t_gauge", "resident").set(2)
        text = metrics.render(reg)
        assert "# HELP t_total requests served\n" in text
        assert "# TYPE t_total counter\n" in text
        assert 't_total{arm="add"} 3\n' in text
        assert "# TYPE t_gauge gauge\n" in text
        assert text.endswith("\n")
        # HELP/TYPE emitted once per family even with many series
        reg.counter("t_total", "requests served", {"arm": "remove"}).inc(1)
        text = metrics.render(reg)
        assert text.count("# TYPE t_total counter") == 1

    def test_deterministic_and_multi_registry(self):
        a, b = fresh_registry(), fresh_registry()
        a.counter("zz_total", "z").inc()
        a.counter("aa_total", "a").inc()
        b.counter("mm_total", "m").inc()
        once = metrics.render(a, b)
        again = metrics.render(a, b)
        assert once == again
        assert once.index("aa_total") < once.index("mm_total")
        assert once.index("mm_total") < once.index("zz_total")

    def test_snapshot_excludes_histograms(self):
        reg = fresh_registry()
        reg.counter("t_total", "help").inc(4)
        reg.histogram("t_seconds", "help").observe(0.5)
        snap = reg.snapshot()
        assert snap["t_total"] == 4
        assert not any(k.startswith("t_seconds") for k in snap)


# -- spies by series name ----------------------------------------------------


class TestSpyAliases:
    """Every engine spy moves its registry series, the one read path."""

    def test_distance_engine_spies(self):
        graph = random_connected_gnp(10, 0.3, __import__("random").Random(1))
        before = meter("repro_engine_apsp_builds_total")
        DistanceMatrix(graph, 10**7)
        assert meter("repro_engine_apsp_builds_total") >= before + 1
        assert meter("repro_engine_remove_bfs_repairs_total") >= 0

    def test_bridge_spies(self):
        from repro.graphs import bridges

        graph = random_connected_gnp(8, 0.4, __import__("random").Random(2))
        before = meter("repro_engine_bridge_sweeps_total")
        bridges.component_bridges(graph._adj, range(8))
        assert meter("repro_engine_bridge_sweeps_total") >= before + 1

    def test_canonical_cache_spies(self):
        import networkx as nx

        canonical.canonical_cache_clear()
        hits0, misses0, size0 = canonical.canonical_cache_info()
        assert (hits0, misses0, size0) == (0, 0, 0)
        g = nx.path_graph(5)
        canonical.canonical_key(g)
        canonical.canonical_key(g)
        hits, misses, size = canonical.canonical_cache_info()
        assert misses == 1 and hits == 1 and size == 1

    def test_strong_dfs_spies(self):
        series = (
            "repro_strong_fold_dfs_runs_total",
            "repro_strong_engine_dfs_runs_total",
        )
        before = sum(meter(name) for name in series)
        strong.is_k_strong_equilibrium(GameState(nx.cycle_graph(5), 2), 2)
        assert sum(meter(name) for name in series) > before

    def test_speculative_evaluations_spy(self):
        graph = random_connected_gnp(6, 0.4, __import__("random").Random(3))
        spec = speculative.SpeculativeEvaluator(GameState(graph, 2))
        before = meter("repro_engine_evaluations_total")
        spec.note_evaluations(3)
        spec.note_evaluation()
        assert meter("repro_engine_evaluations_total") == before + 4

    def test_serve_engine_builds_spy(self):
        before = meter("repro_serve_engine_builds_total")
        ServeApp().handle("classify", {"edges": PATH_5, "alpha": 2})
        assert meter("repro_serve_engine_builds_total") == before + 1

    def test_unknown_attribute_still_raises(self):
        for module in (distances, bridges, strong, speculative, serve_cache):
            with pytest.raises(AttributeError):
                module.NOT_A_SPY

    def test_mistyped_series_raises(self):
        with pytest.raises(KeyError):
            meter("repro_engine_apsp_build_total")


class TestBenchmarkSeries:
    """perfbench reads its per-layer counters by series name, so a
    renamed series would read 0 there without any error."""

    def test_every_series_perfbench_reads_is_registered(self):
        path = Path(__file__).parent.parent / "perfbench" / "layers.py"
        loader = importlib.util.spec_from_file_location("_layers", path)
        layers = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(layers)  # imports nothing from repro
        import repro.campaigns  # noqa: F401
        import repro.dynamics  # noqa: F401
        import repro.serve  # noqa: F401

        series = list(layers._COUNTERS.values()) + [
            name for pair in layers._RATIOS.values() for name in pair
        ]
        assert len(series) == 15
        registered = set(metrics.REGISTRY.snapshot())
        registered |= set(ServeApp().registry.snapshot())
        assert [name for name in series if name not in registered] == []

    def test_every_name_the_tracer_wraps_exists(self):
        """perfbench's traced runs look their wrap points up with
        ``getattr``, so a deleted or renamed one would crash every traced
        workload; install them all in a fresh interpreter."""
        root = Path(__file__).parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")]
        )
        done = subprocess.run(
            [sys.executable, "-c",
             "import tracing; tracing.install(tracing.Tracer())"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


# -- trace spans -------------------------------------------------------------


class TestTraceSpans:
    def test_disabled_span_is_shared_noop(self):
        trace.disable_trace()
        assert not trace.trace_enabled()
        first = trace.span("a", x=1)
        second = trace.span("b")
        assert first is second  # one shared null object, no allocation
        with first:
            pass

    def test_enabled_span_emits_jsonl(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        trace.enable_trace(sink)
        try:
            assert trace.trace_enabled()
            assert trace.trace_path() == str(sink)
            with trace.span("unit.test", n=5) as sp:
                sp.set(status=200)
        finally:
            trace.disable_trace()
        lines = sink.read_text().splitlines()
        record = json.loads(lines[-1])
        assert record["span"] == "unit.test"
        assert record["n"] == 5
        assert record["status"] == 200
        assert record["dur_ns"] >= 0
        assert {"pid", "tid", "ts"} <= set(record)

    def test_spans_counted_in_registry(self, tmp_path):
        counter = metrics.REGISTRY.counter(
            "repro_trace_spans_total", "spans emitted"
        )
        before = counter.value
        trace.enable_trace(tmp_path / "t.jsonl")
        try:
            with trace.span("unit.count"):
                pass
        finally:
            trace.disable_trace()
        assert counter.value == before + 1


# -- byte-identity: telemetry never alters results ---------------------------


def tiny_campaign_spec() -> CampaignSpec:
    return CampaignSpec(
        name="obs-identity",
        kind="tree_poa",
        seed=11,
        grids=({"n": 5, "alpha": [2, "9/2"], "concept": ["PS", "BGE"]},),
    )


class TestByteIdentity:
    def test_campaign_records_and_report_identical(self, tmp_path):
        spec = tiny_campaign_spec()

        def run(root):
            with CampaignStore(root) as store:
                run_campaign(spec, store)
                identities = sorted(
                    json.dumps(
                        _record_identity(store.record_for(t.key)),
                        sort_keys=True,
                    )
                    for t in spec.trials()
                )
                return identities, render_report(spec, store)

        trace.disable_trace()
        plain_ids, plain_report = run(tmp_path / "off")
        trace.enable_trace(tmp_path / "trace.jsonl")
        try:
            traced_ids, traced_report = run(tmp_path / "on")
        finally:
            trace.disable_trace()
        assert traced_ids == plain_ids
        assert traced_report == plain_report
        # and the trace sink actually saw the campaign run
        sink = (tmp_path / "trace.jsonl").read_text()
        assert '"span":"campaign.trial"' in sink

    def test_claim_merge_report_identical(self, tmp_path):
        # the acceptance path end to end: run --claim -> merge -> report
        # must be byte-identical with tracing on vs off
        spec = tiny_campaign_spec()

        def run(root):
            with CampaignStore(root, host_id="h0") as store:
                run_campaign(spec, store, claim=True)
            merge_shards(root, prune=True)
            with CampaignStore(root) as store:
                return (
                    (root / "results.jsonl").read_bytes().count(b"\n"),
                    render_report(spec, store),
                )

        trace.disable_trace()
        plain_lines, plain_report = run(tmp_path / "off")
        trace.enable_trace(tmp_path / "merge-trace.jsonl")
        try:
            traced_lines, traced_report = run(tmp_path / "on")
        finally:
            trace.disable_trace()
        assert traced_lines == plain_lines
        assert traced_report == plain_report
        sink = (tmp_path / "merge-trace.jsonl").read_text()
        assert '"span":"campaign.lease.claim"' in sink

    def test_serve_bodies_identical(self, tmp_path):
        payload = {"edges": PATH_5, "alpha": 2}

        def answer():
            app = ServeApp()
            status, body = app.handle("classify", dict(payload))
            assert status == 200
            return json.dumps(body, sort_keys=True)

        trace.disable_trace()
        plain = answer()
        trace.enable_trace(tmp_path / "serve.jsonl")
        try:
            traced = answer()
        finally:
            trace.disable_trace()
        assert traced == plain
        sink = (tmp_path / "serve.jsonl").read_text()
        assert '"span":"serve.request"' in sink


# -- /metricsz ---------------------------------------------------------------


class TestMetricsz:
    def test_handle_returns_exposition_text(self):
        app = ServeApp()
        app.handle("classify", {"edges": PATH_5, "alpha": 2})
        status, body = app.handle("metricsz", {})
        assert status == 200
        text = body["_raw_text"]
        assert "# TYPE repro_serve_requests_total counter\n" in text
        assert 'repro_serve_requests_total{endpoint="classify"} 1\n' in text
        # process-wide engine spies ride along in the same scrape
        assert "# TYPE repro_engine_apsp_builds_total counter\n" in text
        assert "repro_serve_engines_resident" in text
        assert "repro_serve_latency_seconds_bucket" in text

    def test_http_scrape_is_text_plain(self):
        port, stop = start_server_in_thread(ServeApp())
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request(
                "POST",
                "/classify",
                json.dumps({"edges": PATH_5, "alpha": 2}),
                {"Content-Type": "application/json"},
            )
            conn.getresponse().read()
            conn.request("GET", "/metricsz")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "text/plain; version=0.0.4"
            )
            text = response.read().decode("utf-8")
            conn.close()
        finally:
            stop()
        assert 'repro_serve_requests_total{endpoint="classify"} 1\n' in text

    def test_statsz_still_json_and_per_app(self):
        app = ServeApp()
        app.handle("classify", {"edges": PATH_5, "alpha": 2})
        status, stats = app.handle("statsz", {})
        assert status == 200
        assert stats["endpoints"]["classify"]["requests"] == 1
        # a second app starts from zero — per-app registry, not process
        other = ServeApp()
        status, stats = other.handle("statsz", {})
        assert "classify" not in stats["endpoints"]


# -- CLI: status ETA + shard lines, profile ----------------------------------


class TestCli:
    @pytest.fixture()
    def finished_store(self, tmp_path):
        spec = tiny_campaign_spec()
        root = tmp_path / "store"
        with CampaignStore(root) as store:
            trace.enable_trace(root / "trace.jsonl")
            try:
                run_campaign(spec, store)
            finally:
                trace.disable_trace()
        return root

    def test_status_reports_per_kind(self, finished_store, capsys):
        code = cli_main(["status", str(finished_store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "tree_poa: 4/4 done" in out

    def test_status_reports_per_shard_records(self, tmp_path, capsys):
        spec = tiny_campaign_spec()
        root = tmp_path / "claimed"
        with CampaignStore(root, host_id="host-a") as store:
            run_campaign(spec, store, claim=True)
        code = cli_main(["status", str(root)])
        out = capsys.readouterr().out
        assert code == 0
        assert "shards:    1" in out
        assert "results-host-a.jsonl: 4 records" in out

    def test_status_eta_for_partial_run(self, tmp_path, capsys):
        spec = tiny_campaign_spec()
        root = tmp_path / "partial"
        with CampaignStore(root) as store:
            run_campaign(spec, store, max_trials=2)
        code = cli_main(["status", str(root)])
        out = capsys.readouterr().out
        assert code == 3  # pending work remains
        assert "2 pending" in out
        assert "eta:" in out and "serial" in out

    def test_profile_breaks_down_kinds_and_spans(self, finished_store, capsys):
        code = cli_main(["profile", str(finished_store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "per-kind elapsed" in out
        assert "tree_poa:" in out
        assert "trace:" in out and "spans" in out
        assert "campaign.trial" in out

    def test_profile_without_trace_sink(self, tmp_path, capsys):
        spec = tiny_campaign_spec()
        root = tmp_path / "untraced"
        with CampaignStore(root) as store:
            run_campaign(spec, store)
        code = cli_main(["profile", str(root)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace:     none" in out
