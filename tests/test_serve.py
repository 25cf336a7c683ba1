"""The serve subsystem: canonical engine sharing, caches, views, HTTP.

The load-bearing guarantees under test:

* relabelled (isomorphic) instances share one warm engine — the second
  request builds nothing — while their answers still speak each
  requester's own labels;
* ``classify`` answers agree exactly with a direct
  :func:`~repro.analysis.search.classify_full_ladder` call on the same
  labelled state, translated certificates included;
* ``best_response`` prices moves with the speculative kernel (an exact
  hand-checked delta) and reports ``best_responding`` consistently with
  ``classify``'s stable verdicts;
* the response cache serves byte-identical repeats; ``cache_bytes=0``
  disables every cache (the benchmark's cold arm); a tiny byte budget
  evicts LRU engines;
* ``poa`` resolves exact and layered (``m``-aggregated) cells against
  materialised campaign views, spelling-invariantly;
* the asyncio HTTP layer round-trips all of the above over a real
  socket, keep-alive included, and shuts down cleanly.
"""

from __future__ import annotations

import http.client
import json
import socket
from fractions import Fraction

import networkx as nx
import pytest

from repro.analysis.search import classify_full_ladder
from repro.campaigns import CampaignSpec, CampaignStore, run_campaign
from repro.campaigns.spec import from_jsonable
from repro.core.state import GameState
from repro.serve import EngineCache, MaterialisedViews, ServeApp
from repro.serve import cache as serve_cache
from repro.serve.http import start_server_in_thread

PATH_5 = [[0, 1], [1, 2], [2, 3], [3, 4]]
PATH_6 = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]


def _relabel(edges, perm):
    return sorted(sorted([perm[u], perm[v]]) for u, v in edges)


def _minus_cached(body):
    return {k: v for k, v in body.items() if k != "cached"}


@pytest.fixture()
def layered_views():
    """A completed m-layered exact-PoA campaign, materialised."""
    spec = CampaignSpec(
        name="serve-views",
        kind="exact_poa",
        seed=0,
        grids=(
            {
                "family": "graphs",
                "n": 5,
                "m": {"$range": [4, 11]},
                "alpha": [2],
                "concept": ["PS"],
            },
        ),
    )
    store = CampaignStore(None)
    stats = run_campaign(spec, store)
    assert stats.failed == 0
    views = MaterialisedViews()
    views.add_campaign(spec, store)
    return spec, store, views


# -- canonical engine sharing ------------------------------------------------


class TestEngineSharing:
    def test_relabelled_instances_share_one_engine(self):
        app = ServeApp()
        perm = [3, 5, 0, 2, 4, 1]
        before = serve_cache.ENGINE_BUILDS
        status, first = app.handle(
            "classify", {"edges": PATH_6, "alpha": 3}
        )
        assert status == 200
        assert serve_cache.ENGINE_BUILDS == before + 1
        status, second = app.handle(
            "classify", {"edges": _relabel(PATH_6, perm), "alpha": 3}
        )
        assert status == 200
        # the isomorphic copy built nothing: one resident engine, one hit
        assert serve_cache.ENGINE_BUILDS == before + 1
        stats = app.engines.stats()
        assert stats["engines_resident"] == 1 and stats["hits"] == 1
        assert second["engine"] == first["engine"]
        # stability is isomorphism-invariant, so the verdicts agree...
        assert second["stable_concepts"] == first["stable_concepts"]
        # ...but the answers are fresh computations per labelling, not a
        # response-cache hit (responses speak the requester's labels)
        assert second["cached"] is False

    def test_distinct_regimes_get_distinct_engines(self):
        app = ServeApp()
        for alpha in (1, "5/2", 3):
            status, _ = app.handle(
                "classify", {"edges": PATH_5, "alpha": alpha}
            )
            assert status == 200
        assert app.engines.stats()["engines_resident"] == 3

    def test_lru_eviction_under_a_tiny_byte_budget(self):
        # one n=6 engine costs ~3 * 6*6*8 + 4096 bytes; a 6 KiB budget
        # holds exactly one, so the second instance evicts the first
        app = ServeApp(cache_bytes=6 * 1024)
        cycle = PATH_6 + [[5, 0]]
        assert app.handle("classify", {"edges": PATH_6, "alpha": 3})[0] == 200
        assert app.handle("classify", {"edges": cycle, "alpha": 3})[0] == 200
        stats = app.engines.stats()
        assert stats["engines_resident"] == 1
        assert stats["evictions"] == 1
        assert stats["engine_bytes"] <= 6 * 1024

    def test_cache_bytes_zero_disables_every_cache(self):
        app = ServeApp(cache_bytes=0)
        payload = {"edges": PATH_5, "alpha": 2}
        before = serve_cache.ENGINE_BUILDS
        bodies = [app.handle("classify", dict(payload))[1] for _ in range(2)]
        assert serve_cache.ENGINE_BUILDS == before + 2  # rebuilt both times
        assert app.engines.stats()["engines_resident"] == 0
        assert [b["cached"] for b in bodies] == [False, False]
        assert _minus_cached(bodies[0]) == _minus_cached(bodies[1])

    def test_engine_cache_unit_budget_arithmetic(self):
        cache = EngineCache(byte_budget=0)
        state = GameState(nx.path_graph(4), 2)
        entry = cache.put("d1", state)
        assert entry.nbytes > 0 and len(cache) == 0  # returned, not kept
        with pytest.raises(ValueError, match=">= 0"):
            EngineCache(byte_budget=-1)


# -- classify ----------------------------------------------------------------


class TestClassify:
    def test_matches_direct_ladder_classification(self):
        app = ServeApp()
        alpha = Fraction(5, 2)
        status, body = app.handle(
            "classify", {"edges": PATH_6, "alpha": "5/2"}
        )
        assert status == 200
        direct = classify_full_ladder(GameState(nx.path_graph(6), alpha))
        assert body["stable_concepts"] == sorted(
            concept.name for concept, report in direct.items() if report.stable
        )
        for concept, report in direct.items():
            verdict = body["verdicts"][concept.name]
            assert verdict["stable"] == report.stable
            assert verdict["exhaustive"] == report.exhaustive
            # certificates come back in the requester's labels
            cert = verdict["certificate"]
            if cert is not None:
                if "edge_deltas" in cert:
                    labels = [
                        x for _, u, v in cert["edge_deltas"] for x in (u, v)
                    ]
                else:
                    labels = [v for k, v in cert.items() if k != "type"]
                assert all(
                    isinstance(v, int) and 0 <= v < 6 for v in labels
                )

    def test_response_cache_serves_identical_repeats(self):
        app = ServeApp()
        payload = {"edges": PATH_5, "alpha": 2}
        _, first = app.handle("classify", dict(payload))
        _, second = app.handle("classify", dict(payload))
        assert first["cached"] is False and second["cached"] is True
        assert _minus_cached(first) == _minus_cached(second)
        assert app.response_hits == 1
        # a respelled alpha is a different raw payload but the same
        # semantic request — it still hits (past the parse)
        _, respelled = app.handle(
            "classify", {"edges": PATH_5, "alpha": "2/1"}
        )
        assert respelled["cached"] is True
        assert _minus_cached(respelled) == _minus_cached(first)

    def test_bad_requests_are_client_errors(self):
        app = ServeApp()
        for payload, fragment in [
            ({"alpha": 2}, "edges"),
            ({"edges": [[0, 0]], "alpha": 2}, "bad edge"),
            ({"edges": [[0, 1], [2, 3]], "alpha": 2}, "connected"),
            ({"edges": PATH_5}, "alpha"),
            ({"edges": PATH_5, "alpha": "nope"}, "alpha"),
            ({"edges": PATH_5, "n": 2, "alpha": 2}, "node count"),
            ({"edges": PATH_5, "alpha": -3}, "alpha"),
            ({"edges": PATH_5, "alpha": 0}, "alpha"),
            ({"edges": [[0, True]], "alpha": 2}, "bad edge"),
            ({"edges": [], "n": True, "alpha": 2}, "node count"),
            (
                {"edges": PATH_5, "alpha": 2, "max_coalition_size": "abc"},
                "max_coalition_size",
            ),
            (
                {"edges": PATH_5, "alpha": 2, "max_coalition_size": 0},
                "max_coalition_size",
            ),
            ({"edges": PATH_5, "alpha": 2, "seed": [1]}, "seed"),
            ({"edges": PATH_5, "alpha": 2, "seed": True}, "seed"),
            ({"edges": PATH_5, "alpha": 2, "probe_samples": 1.5}, "probe_samples"),
        ]:
            status, body = app.handle("classify", payload)
            assert status == 400, payload
            assert fragment in body["error"]
        for agent in (True, "1", -1, 5):
            status, body = app.handle(
                "best_response", {"edges": PATH_5, "alpha": 2, "agent": agent}
            )
            assert status == 400, agent
            assert "agent" in body["error"]
        # regime inputs: a 400 naming the problem, never a 500 and never
        # an answer for a different game (4-node path)
        path_4 = PATH_5[:3]
        for regime, fragment in [
            ({"traffic": {"model": "gravity", "weights": [1, 2]}}, "n=2"),
            (
                {"traffic": {"model": "explicit", "rows": [[0, 1], [1, 0]]}},
                "n=2",
            ),
            ({"alpha": 2**62}, "too large"),
            (
                {"traffic": {"model": "random", "seed": 1, "high": 2**62}},
                "too large",
            ),
            (
                {"costmodel": {"model": "table", "values": [0, 1, 2**61, 2**62]}},
                "too large",
            ),
            ({"costmodel": {"model": "convex", "exponent": 60}}, "int64"),
            # a huge concave scale: exact integer roots, then the int64
            # table check (no float guess to spin on or overflow)
            (
                {"costmodel": {"model": "concave", "exponent": "1/2",
                               "scale": 10**40}},
                "int64",
            ),
            (
                {"costmodel": {"model": "concave", "exponent": "1/2",
                               "scale": 10**200}},
                "int64",
            ),
            (
                {"traffic": {"model": "gravity", "weights": [1.5, 2, 3, 4]}},
                "integers",
            ),
            (
                {"traffic": {"model": "gravity", "weights": [1e19, 2, 4, 1]}},
                "int64",
            ),
            (
                {"traffic": {"model": "gravity", "weights": [2**63, 2, 4, 1]}},
                "int64",
            ),
            (
                {"traffic": {"model": "gravity", "weights": [2**32, 2**32, 1, 1]}},
                "int64",
            ),
            (
                {"traffic": {"model": "gravity", "weights": [-1, -2, -3, -4]}},
                "non-negative",
            ),
            (
                {"traffic": {"model": "random", "seed": 1, "high": 2**70}},
                "int64",
            ),
        ]:
            for endpoint, extra in (("classify", {}), ("best_response", {"agent": 0})):
                payload = {"edges": path_4, "alpha": 2, **regime, **extra}
                status, body = app.handle(endpoint, payload)
                assert status == 400, (endpoint, regime)
                assert fragment in body["error"], (endpoint, body["error"])

    def test_unknown_endpoint_is_404(self):
        app = ServeApp()
        status, body = app.handle("nope", {})
        assert status == 404
        assert "classify" in body["endpoints"]


# -- best_response -----------------------------------------------------------


class TestBestResponse:
    def test_exact_delta_on_the_path(self):
        """P5's endpoint closes the cycle: dist 10 -> 6, price alpha=1/4."""
        app = ServeApp()
        status, body = app.handle(
            "best_response",
            {"edges": PATH_5, "alpha": "1/4", "agent": 4, "concept": "PS"},
        )
        assert status == 200
        assert body["best_responding"] is False
        assert body["cost_delta"] == str(Fraction(-4) + Fraction(1, 4))
        assert body["move"]["type"] == "add"
        assert 4 in (body["move"]["u"], body["move"]["v"])
        assert body["pool"] > 0

    def test_agrees_with_classify_stability(self):
        """A state classify calls PS-stable has no PS best response."""
        app = ServeApp()
        # high alpha: the path is pairwise stable (adds too expensive,
        # removals disconnect)
        payload = {"edges": PATH_5, "alpha": 50}
        _, verdicts = app.handle("classify", dict(payload))
        assert "PS" in verdicts["stable_concepts"]
        for agent in range(5):
            status, body = app.handle(
                "best_response", dict(payload, agent=agent, concept="PS"),
            )
            assert status == 200
            assert body["best_responding"] is True
            assert body["move"] is None and body["cost_delta"] is None

    def test_labels_travel_through_the_relabelling(self):
        app = ServeApp()
        perm = [2, 4, 0, 3, 1]
        payload = {
            "edges": _relabel(PATH_5, perm),
            "alpha": "1/4",
            "agent": perm[4],  # the same endpoint agent, renamed
            "concept": "PS",
        }
        status, body = app.handle("best_response", payload)
        assert status == 200
        # one engine serves both labelled copies of P5
        assert app.handle(
            "best_response",
            {"edges": PATH_5, "alpha": "1/4", "agent": 4, "concept": "PS"},
        )[1]["engine"] == body["engine"]
        assert body["cost_delta"] == str(Fraction(-15, 4))
        assert perm[4] in (body["move"]["u"], body["move"]["v"])

    def test_refuses_exponential_concepts_and_bad_agents(self):
        app = ServeApp()
        base = {"edges": PATH_5, "alpha": 2}
        status, body = app.handle(
            "best_response", dict(base, agent=0, concept="BNE")
        )
        assert status == 400 and "polynomial" in body["error"]
        status, body = app.handle(
            "best_response", dict(base, agent=9, concept="PS")
        )
        assert status == 400 and "agent" in body["error"]
        status, body = app.handle("best_response", dict(base, concept="PS"))
        assert status == 400 and "agent" in body["error"]
        status, body = app.handle(
            "best_response", dict(base, agent=0, concept="XX")
        )
        assert status == 400 and "unknown concept" in body["error"]


# -- poa views ---------------------------------------------------------------


class TestPoaViews:
    def test_exact_and_layered_lookups(self, layered_views):
        spec, store, views = layered_views
        app = ServeApp(views=views)
        exact_params = {
            "family": "graphs", "n": 5, "m": 4, "alpha": 2, "concept": "PS",
        }
        status, body = app.handle(
            "poa", {"kind": "exact_poa", "params": exact_params}
        )
        assert status == 200
        assert body["layered"] is False and body["complete"] is True
        expected = store.result(
            next(t for t in spec.trials() if t.params["m"] == 4).key
        )
        assert from_jsonable(body["result"]) == expected

        layered = {k: v for k, v in exact_params.items() if k != "m"}
        status, body = app.handle(
            "poa", {"kind": "exact_poa", "params": layered}
        )
        assert status == 200
        assert body["layered"] is True and body["complete"] is True
        assert body["layers"] == body["layers_present"] == 7
        per_layer = [
            store.result(t.key) for t in spec.trials()
        ]
        aggregated = from_jsonable(body["result"])
        assert aggregated["poa"] == max(
            r["poa"] for r in per_layer if r["poa"] is not None
        )
        assert aggregated["equilibria"] == sum(
            r["equilibria"] for r in per_layer
        )

    def test_lookups_are_spelling_invariant(self, layered_views):
        _, _, views = layered_views
        app = ServeApp(views=views)
        queries = [
            {"family": "graphs", "n": 5, "alpha": 2, "concept": "PS"},
            {"family": "graphs", "n": 5, "alpha": "2/1", "concept": "PS"},
        ]
        bodies = [
            app.handle("poa", {"kind": "exact_poa", "params": q})[1]
            for q in queries
        ]
        assert bodies[0] == bodies[1]

    def test_uncovered_cells_and_bad_queries(self, layered_views):
        _, _, views = layered_views
        app = ServeApp(views=views)
        status, body = app.handle(
            "poa",
            {
                "kind": "exact_poa",
                "params": {
                    "family": "graphs", "n": 8, "alpha": 2, "concept": "PS",
                },
            },
        )
        assert status == 404 and "no materialised view" in body["error"]
        status, body = app.handle("poa", {"kind": "exact_poa"})
        assert status == 400
        # an empty service has no views at all
        status, _ = app.handle(
            "poa", {"kind": "exact_poa", "params": {"n": 5}}
        )
        assert status == 404


# -- introspection -----------------------------------------------------------


class TestIntrospection:
    def test_healthz_and_statsz_counters(self, layered_views):
        _, _, views = layered_views
        app = ServeApp(views=views)
        status, body = app.handle("healthz", {})
        assert status == 200 and body["status"] == "ok"
        payload = {"edges": PATH_5, "alpha": 2}
        app.handle("classify", dict(payload))
        app.handle("classify", dict(payload))
        app.handle("classify", {"alpha": 2})  # a 400, counted as an error
        status, stats = app.handle("statsz", {})
        assert status == 200
        assert stats["engine_builds"] >= 1
        assert stats["engines_resident"] == 1
        assert stats["response_hits"] == 1
        assert stats["view_sources"] == 1
        assert stats["view_trials_indexed"] == 7
        classify = stats["endpoints"]["classify"]
        assert classify["requests"] == 3 and classify["errors"] == 1
        assert classify["p50_ms"] >= 0


# -- the HTTP layer ----------------------------------------------------------


class TestHttp:
    def test_round_trip_keep_alive_and_clean_shutdown(self, layered_views):
        spec, store, views = layered_views
        port, stop = start_server_in_thread(ServeApp(views=views))
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

            def post(endpoint, payload):
                conn.request(
                    "POST", f"/{endpoint}", json.dumps(payload),
                    {"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                return response.status, json.loads(response.read())

            payload = {"edges": PATH_5, "alpha": 2}
            status, first = post("classify", payload)
            assert status == 200 and first["cached"] is False
            status, second = post("classify", payload)
            assert status == 200 and second["cached"] is True
            assert _minus_cached(first) == _minus_cached(second)

            status, body = post(
                "best_response",
                {"edges": PATH_5, "alpha": "1/4", "agent": 4, "concept": "PS"},
            )
            assert status == 200 and body["move"]["type"] == "add"

            status, body = post(
                "poa",
                {
                    "kind": "exact_poa",
                    "params": {
                        "family": "graphs", "n": 5, "alpha": 2,
                        "concept": "PS",
                    },
                },
            )
            assert status == 200 and body["layered"] is True

            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"

            conn.request("GET", "/statsz")
            response = conn.getresponse()
            assert response.status == 200
            stats = json.loads(response.read())
            assert stats["response_hits"] == 1
            assert stats["endpoints"]["classify"]["requests"] == 2

            conn.request("POST", "/nope", "{}")
            response = conn.getresponse()
            assert response.status == 404
            response.read()
            conn.close()
        finally:
            stop()
        # the port is actually released after stop()
        with pytest.raises(ConnectionRefusedError):
            probe = socket.create_connection(("127.0.0.1", port), timeout=2)
            probe.close()

    def test_malformed_body_is_a_400_not_a_crash(self):
        port, stop = start_server_in_thread(ServeApp())
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request(
                "POST", "/classify", "this is not json",
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert "not JSON" in json.loads(response.read())["error"]
            conn.close()
            # and the server still answers afterwards
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
            conn.close()
        finally:
            stop()
