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
* a request runs at most one canonical search; the response cache
  serves byte-identical repeats and respellings of one labelled
  request; ``cache_bytes=0`` disables every cache (the benchmark's cold
  arm); a tiny byte budget evicts LRU engines;
* regime specs refuse integer fields they would truncate (400);
* ``poa`` resolves exact and layered (``m``-aggregated) cells against
  materialised campaign views, spelling-invariantly;
* the HTTP layer round-trips all of the above over a real socket,
  keep-alive included, answers ``/healthz`` while another connection
  waits inside ``handle``, answers client mistakes with a JSON 400 and
  shuts down cleanly; ``python -m repro.serve`` reports an address it
  cannot bind in one line.
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import threading
import tracemalloc
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.search import classify_full_ladder
from repro.campaigns import (
    CampaignSpec,
    CampaignStore,
    render_report,
    run_campaign,
)
from repro.campaigns.spec import from_jsonable
from repro.core.concepts import Concept
from repro.core.costmodel import ConvexCost, costmodel_from_spec
from repro.core.state import GameState
from repro.core.traffic import TrafficMatrix, traffic_from_spec
from repro.graphs import canonical
from repro.serve import EngineCache, MaterialisedViews, ServeApp
from repro.serve import service
from repro.serve.__main__ import build_parser, main
from repro.serve.http import start_server_in_thread

from tests.meters import meter

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
        before = meter("repro_serve_engine_builds_total")
        status, first = app.handle(
            "classify", {"edges": PATH_6, "alpha": 3}
        )
        assert status == 200
        assert meter("repro_serve_engine_builds_total") == before + 1
        status, second = app.handle(
            "classify", {"edges": _relabel(PATH_6, perm), "alpha": 3}
        )
        assert status == 200
        # the isomorphic copy built nothing: one resident engine, one hit
        assert meter("repro_serve_engine_builds_total") == before + 1
        stats = app.engines.stats()
        assert stats["engines_resident"] == 1 and stats["hits"] == 1
        assert second["engine"] == first["engine"]
        # stability is isomorphism-invariant, so the verdicts agree...
        assert second["stable_concepts"] == first["stable_concepts"]
        # ...but the answers are fresh computations per labelling, not a
        # response-cache hit (responses speak the requester's labels)
        assert second["cached"] is False

    def test_each_request_runs_at_most_one_canonical_search(
        self, monkeypatch
    ):
        """The digest and the labelling come from one memo entry: a cold
        or relabelled request searches once, a repeat not at all."""
        searches = []
        search = canonical._minimise

        def counted(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(canonical, "_minimise", counted)
        canonical.canonical_cache_clear()
        app = ServeApp()
        cold = {"edges": PATH_6, "alpha": 3}
        relabelled = {"edges": _relabel(PATH_6, [3, 5, 0, 2, 4, 1]), "alpha": 3}
        counts = []
        for payload in (cold, relabelled, cold):
            before = len(searches)
            status, _ = app.handle("classify", dict(payload))
            assert status == 200
            counts.append(len(searches) - before)
        assert counts == [1, 1, 0]
        graph = nx.wheel_graph(7)
        before = len(searches)
        key = canonical.canonical_key(graph)
        sigma = canonical.canonical_labelling(graph)
        assert len(searches) == before + 1
        relabelled_graph = nx.relabel_nodes(graph, dict(enumerate(sigma)))
        assert canonical.canonical_key(relabelled_graph) == key

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
        before = meter("repro_serve_engine_builds_total")
        bodies = [app.handle("classify", dict(payload))[1] for _ in range(2)]
        # rebuilt both times
        assert meter("repro_serve_engine_builds_total") == before + 2
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
        # so is the same labelled graph with every pair and the edge
        # order reversed: (digest, sigma) fixes the labelled request
        _, reversed_pairs = app.handle(
            "classify",
            {"edges": [[v, u] for u, v in reversed(PATH_5)], "alpha": 2},
        )
        assert reversed_pairs["cached"] is True
        assert _minus_cached(reversed_pairs) == _minus_cached(first)

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

    @pytest.mark.parametrize(
        "endpoint,extra,field",
        [
            ("best_response",
             {"agent": 0, "trafic": {"model": "gravity",
                                     "weights": [1, 2, 3, 4, 5]}},
             "trafic"),
            ("best_response", {"agent": 0, "concpet": "RE"}, "concpet"),
            ("classify", {"probe_sample": 10}, "probe_sample"),
            ("classify", {"max_coalition": 2}, "max_coalition"),
        ],
        ids=["trafic", "concpet", "probe_sample", "max_coalition"],
    )
    def test_fields_the_endpoint_does_not_read_are_refused(
        self, endpoint, extra, field
    ):
        """A misspelt field is a 400 naming it, never an answer for the
        default game."""
        status, body = ServeApp().handle(
            endpoint, {"edges": PATH_5, "alpha": 2, **extra}
        )
        assert status == 400, body
        assert f"[{field!r}]" in body["error"]

    def test_huge_n_without_edges_is_refused_before_building(self):
        # a connected graph on n nodes needs n - 1 edges, so a 40-byte
        # request must not allocate a graph of n nodes before its 400
        app = ServeApp()
        payload = {"edges": [], "n": 200_000, "alpha": 2}
        tracemalloc.start()
        try:
            for endpoint, extra in (("classify", {}), ("best_response", {"agent": 0})):
                status, body = app.handle(endpoint, {**payload, **extra})
                assert status == 400, endpoint
                assert body["error"] == "graph must be connected"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    @pytest.mark.parametrize(
        "costmodel",
        [
            {"model": "convex", "exponent": 10**12},
            {"model": "concave", "exponent": "999999/1000000"},
        ],
        ids=["convex-1e12", "concave-999999/1000000"],
    )
    def test_huge_exponent_is_refused_before_building_the_table(
        self, costmodel
    ):
        # the table's size is decided from bit lengths: no power of the
        # exponent's size (nor a root of one) is ever formed
        app = ServeApp()
        payload = {"edges": PATH_5, "alpha": 2, "costmodel": costmodel}
        tracemalloc.start()
        try:
            status, body = app.handle("classify", payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 400, body
        assert "int64" in body["error"]
        assert peak < 4 * 2**20, peak

    @pytest.mark.parametrize(
        "field,spec,name",
        [
            ("costmodel", {"model": "convex", "exponent": 2.5}, "exponent"),
            ("costmodel", {"model": "convex", "exponent": True}, "exponent"),
            ("costmodel", {"model": "convex", "scale": 1.9}, "scale"),
            ("costmodel", {"model": "concave", "scale": 2.7}, "scale"),
            ("costmodel", {"model": "table", "values": [0, 1.5, 2, 3, 4]},
             "values"),
            ("traffic", {"model": "hub_spoke", "hubs": [1.5]}, "hubs"),
            ("traffic", {"model": "broadcast", "sources": [0.9]}, "sources"),
            ("traffic", {"model": "random", "seed": 1.5}, "seed"),
            ("traffic", {"model": "random", "seed": 1, "density": 7},
             "density"),
            ("traffic", {"model": "random", "seed": 1, "density": -1},
             "density"),
            ("traffic", {"model": "gravity", "weights": [True, 2, 1, 1, 1]},
             "weights"),
            ("traffic", {"model": "explicit",
                         "rows": [[0, True, 1, 1, 1]] + [[1] * 5] * 4},
             "rows"),
            ("traffic", {"model": "hub_spoke", "hubs": [0],
                         "hub_demand": True}, "hub_demand"),
        ],
        ids=[
            "exponent-2.5", "exponent-true", "convex-scale-1.9",
            "concave-scale-2.7", "table-1.5", "hubs-1.5", "sources-0.9",
            "seed-1.5", "density-7", "density--1", "gravity-weight-true",
            "rows-true", "hub-demand-true",
        ],
    )
    def test_regime_fields_are_refused_not_truncated(self, field, spec, name):
        """A non-integral or bool integer field, or a density outside
        [0, 1], is refused by the constructor both serve and the campaign
        runners build through — never answered for a truncated game."""
        build = {"costmodel": costmodel_from_spec, "traffic": traffic_from_spec}
        with pytest.raises(ValueError, match=name):
            build[field](spec, 5)
        status, body = ServeApp().handle(
            "classify", {"edges": PATH_5, "alpha": 2, field: spec}
        )
        assert status == 400, body
        assert name in body["error"]

    def test_integral_floats_in_regime_fields_are_taken_exactly(self):
        convex = costmodel_from_spec({"model": "convex", "exponent": 2.0}, 5)
        assert convex == ConvexCost(2)
        assert convex.spec["exponent"] == 2
        hubs = traffic_from_spec({"model": "hub_spoke", "hubs": [1.0]}, 5)
        assert hubs == TrafficMatrix.hub_spoke(5, [1])
        assert hubs.spec["hubs"] == [1]

    def test_unknown_endpoint_is_404(self):
        app = ServeApp()
        status, body = app.handle("nope", {})
        assert status == 404
        assert "classify" in body["endpoints"]


# -- fuzz: every answer is a 200 or a 4xx, and repeats agree ----------------

_JUNK = st.one_of(
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.sampled_from(["1/0", "abc", "999999/1000000", [], [1, "x"], {}]),
)
_ALPHAS = st.one_of(
    st.integers(1, 9), st.sampled_from(["1/2", "2/3", 0.5, 2.5, 0, -1])
)
_CONCEPTS = st.sampled_from(["RE", "BAE", "PS", "BSWE", "BGE", "BNE", "nope"])


def _costmodels(n):
    return st.one_of(
        st.sampled_from([{"model": "linear"}, {"model": "max"}]),
        st.builds(
            lambda exponent, scale: {
                "model": "concave", "exponent": exponent, "scale": scale,
            },
            st.sampled_from(["1/2", "2/3", "1/1000000", "999999/1000000"]),
            st.integers(1, 3),
        ),
        st.builds(
            lambda exponent: {"model": "convex", "exponent": exponent},
            st.sampled_from([1, 2, 3, 10**12, 1e300]),
        ),
        st.builds(
            lambda values: {"model": "table", "values": [0] + sorted(values)},
            st.lists(st.integers(1, 20), min_size=n - 1, max_size=n + 1),
        ),
    )


def _traffics(n):
    return st.one_of(
        st.just({"model": "uniform"}),
        st.builds(
            lambda weights: {"model": "gravity", "weights": weights},
            st.lists(st.integers(0, 5), min_size=n, max_size=n),
        ),
        st.builds(
            lambda seed, high: {"model": "random", "seed": seed, "high": high},
            st.integers(0, 9),
            st.integers(1, 4),
        ),
    )


@st.composite
def _requests(draw):
    """One request on ``n <= 6`` nodes (a random tree plus chords), valid
    or with one field replaced by junk."""
    endpoint = draw(st.sampled_from(["classify", "best_response", "poa"]))
    n = draw(st.integers(1, 6))
    regime = {"traffic": _traffics(n), "costmodel": _costmodels(n)}
    if endpoint == "poa":
        params = draw(
            st.fixed_dictionaries(
                {"n": st.just(n), "alpha": _ALPHAS, "concept": _CONCEPTS},
                optional={
                    "k": st.integers(-2, 3),
                    "m": st.integers(0, 8),
                    "family": st.sampled_from(["trees", "graphs"]),
                    **regime,
                },
            )
        )
        kind = draw(st.sampled_from(["tree_poa", "exact_poa", "nope"]))
        payload = {"kind": kind, "params": params}
    else:
        edges = [[draw(st.integers(0, v - 1)), v] for v in range(1, n)]
        node = st.integers(0, n - 1)
        chords = draw(st.lists(st.tuples(node, node), max_size=5))
        edges += [[u, v] for u, v in chords if u != v]
        extra = (
            {"max_coalition_size": st.integers(-2, 4),
             "probe_samples": st.integers(-1, 20)}
            if endpoint == "classify"
            else {"concept": _CONCEPTS}
        )
        payload = draw(
            st.fixed_dictionaries(
                {"edges": st.just(edges), "alpha": _ALPHAS},
                optional={**regime, **extra},
            )
        )
        if endpoint == "best_response":
            payload["agent"] = draw(st.integers(-1, n))
    if draw(st.booleans()):
        # one field, possibly inside a regime spec, replaced by junk
        top = payload["params"] if endpoint == "poa" else payload
        targets = [top] + [v for v in top.values() if isinstance(v, dict)]
        target = draw(st.sampled_from(targets))
        target[draw(st.sampled_from(sorted(target) + ["n"]))] = draw(_JUNK)
    return endpoint, payload


class TestFuzz:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(request=_requests())
    def test_handle_answers_200_or_4xx_and_repeats_agree(self, request):
        endpoint, payload = request
        app = ServeApp()
        status, body = app.handle(endpoint, payload)
        assert status in (200, 400, 404), (payload, body)
        again_status, again = app.handle(endpoint, payload)
        assert again_status == status
        assert _minus_cached(again) == _minus_cached(body)


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

    @pytest.mark.parametrize("entry", ["serve", "spec", "aggregate"])
    def test_unknown_concept_reads_the_same_everywhere(self, entry):
        """serve, campaign specs and reports share one concept parser."""
        expected = (
            "unknown concept 'XX'; expected one of "
            f"{sorted(Concept.__members__)}"
        )
        if entry == "serve":
            status, body = ServeApp().handle(
                "best_response",
                {"edges": PATH_5, "alpha": 2, "agent": 0, "concept": "XX"},
            )
            assert status == 400 and body["error"] == expected
            return
        grid = {"n": 5, "alpha": 2, "concept": "PS"}
        report = {
            "reducer": "poa_table",
            "options": {
                "n": 5, "alphas": [2],
                "columns": [{"header": "PoA", "concept": "XX"}],
            },
        }
        if entry == "spec":
            grid["concept"] = "XX"
        spec = CampaignSpec(
            name="concepts", kind="tree_poa", grids=(grid,), report=report
        )
        with pytest.raises(ValueError) as caught:
            if entry == "spec":
                spec.trials()
            else:
                render_report(spec, CampaignStore(None))
        assert str(caught.value).endswith(expected)


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

    @pytest.mark.parametrize(
        "kind, params, named",
        [
            ("exact_poa", {"concpet": "PS"}, "concpet"),
            ("exact_poa", {"concept": "PS", "famly": "graphs"}, "famly"),
            ("nope", {"concept": "PS"}, "nope"),
        ],
        ids=["misspelt-axis", "extra-axis", "unknown-kind"],
    )
    def test_queries_no_runner_reads_are_refused(
        self, layered_views, kind, params, named
    ):
        _, _, views = layered_views
        app = ServeApp(views=views)
        cell = {"family": "graphs", "n": 5, "alpha": 2, **params}
        status, body = app.handle("poa", {"kind": kind, "params": cell})
        assert status == 400 and named in body["error"]


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
    @pytest.mark.parametrize(
        "flags",
        [
            ["--cache-bytes", "-1"],
            ["--port", "99999"],
            ["--port", "-1"],
        ],
        ids=["negative-cache-bytes", "port-too-large", "negative-port"],
    )
    def test_bad_flags_are_refused_by_the_parser(self, flags):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(flags)
        assert exit_info.value.code == 2

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

    def test_unresolvable_host_is_one_line(self, monkeypatch, capsys):
        resolve = socket.getaddrinfo

        def getaddrinfo(host, *args, **kwargs):
            if host == "no-such-host.invalid":
                raise socket.gaierror(
                    socket.EAI_NONAME, "Name or service not known"
                )
            return resolve(host, *args, **kwargs)

        # the resolver is stubbed so that no name server is asked
        monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
        assert main(["--host", "no-such-host.invalid", "--port", "0"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "no-such-host.invalid" in err

    def test_busy_port_is_one_line(self, capsys):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            assert main(["--port", str(port)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert str(port) in err

    def test_healthz_answers_while_another_connection_blocks(
        self, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()

        def blocking(app, payload):
            entered.set()
            release.wait(timeout=30)
            return {"released": True}

        monkeypatch.setitem(
            service._ENDPOINTS, "classify", (blocking, frozenset())
        )
        answers = []

        def classify():
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("POST", "/classify", "{}")
            response = conn.getresponse()
            answers.append((response.status, json.loads(response.read())))
            conn.close()

        port, stop = start_server_in_thread(ServeApp())
        client = threading.Thread(target=classify, daemon=True)
        try:
            client.start()
            assert entered.wait(timeout=10)
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
            conn.close()
            assert not answers  # the first connection is still waiting
        finally:
            release.set()
            client.join(timeout=30)
            stop()
        assert not client.is_alive()
        assert answers == [(200, {"released": True})]

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"PUT /classify HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
            b"NONSENSE\r\n\r\n",
        ],
        ids=["put", "malformed-request-line"],
    )
    def test_client_mistakes_are_a_json_400(self, request_bytes):
        port, stop = start_server_in_thread(ServeApp())
        try:
            with socket.create_connection(("127.0.0.1", port), 30) as client:
                client.sendall(request_bytes)
                response = http.client.HTTPResponse(client)
                response.begin()
                assert response.status == 400
                assert response.getheader("Content-Type") == (
                    "application/json"
                )
                assert json.loads(response.read())["error"]
        finally:
            stop()

    def test_a_client_resetting_mid_request_leaves_no_traceback(
        self, capfd
    ):
        port, stop = start_server_in_thread(ServeApp())
        before = set(threading.enumerate())
        try:
            client = socket.create_connection(("127.0.0.1", port), 30)
            client.sendall(
                b"POST /classify HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"
            )
            # linger 0: close() sends a reset, so the server's read fails
            client.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            client.close()
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
            conn.close()
        finally:
            stop()
        for thread in set(threading.enumerate()) - before:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert "Traceback" not in capfd.readouterr().err
