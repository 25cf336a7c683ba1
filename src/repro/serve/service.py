"""The transport-free serve application: parse, canonicalise, answer.

:class:`ServeApp` owns the warm-engine registry, the response cache and
the materialised campaign views, and answers four endpoints:

``classify``
    The full cooperation-ladder verdict of one game state
    (:func:`repro.analysis.search.classify_full_ladder`), certificates
    included.
``best_response``
    Agent ``u``'s best improving move within a polynomial concept's move
    space (RE / BAE / PS / BSWE / BGE): the argmin of ``u``'s own cost
    delta over the moves it initiates in the priced move pool;
    ``best_responding: true`` when ``u`` has none.
``poa``
    Dictionary reads against :class:`~repro.serve.views.MaterialisedViews`
    (campaign stores indexed by trial key, layered ``exact_poa`` cells
    re-aggregated).
``healthz`` / ``statsz`` / ``metricsz``
    Liveness, the full counter surface (engine cache hits/misses/
    evictions, response cache, per-endpoint request counts and p50/p99
    latency, the process-wide ``ENGINE_BUILDS`` spy) and the Prometheus
    text exposition of the :mod:`repro.obs` registries.

Label discipline: every graph query is mapped onto its canonical
representative before touching an engine.  The request's labelling
``sigma`` (:func:`repro.graphs.canonical.canonical_labelling`) carries
agent ids and moves into canonical space; answers travel back through
``sigma``'s inverse.  Engines are therefore shared across *isomorphic*
requests, while responses — which speak the requester's labels — are
cached per (instance, labelling, parameters) fingerprint.

Everything here is synchronous and transport-free; the asyncio HTTP
layer (:mod:`repro.serve.http`) calls :meth:`ServeApp.handle` from a
bounded worker pool.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict, deque
from hashlib import blake2b
from typing import Any, Mapping

import networkx as nx
import numpy as np

from repro._alpha import as_alpha
from repro.analysis.search import classify_full_ladder
from repro.campaigns.spec import to_jsonable
from repro.core.concepts import Concept
from repro.core.costmodel import bind_valuation, costmodel_from_spec
from repro.core.moves import AddEdge, RemoveEdge, Swap
from repro.core.state import GameState
from repro.core.traffic import TrafficMatrix, traffic_from_spec
# perfbench's tracer wraps improving_moves here; best_response reduces the
# priced pool itself
from repro.dynamics.movegen import improving_moves, move_pool  # noqa: F401
from repro.graphs.canonical import canonical_key, canonical_labelling
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.serve.cache import CachedEngine, EngineCache, engine_cache_info
from repro.serve import cache as _cache_mod
from repro.serve.views import MaterialisedViews

__all__ = ["ServeApp", "ServeError"]

#: concepts whose move space ``best_response`` enumerates exhaustively
#: in polynomial time (the exponential BNE/BSE spaces are refused)
BEST_RESPONSE_CONCEPTS = (
    Concept.RE,
    Concept.BAE,
    Concept.PS,
    Concept.BSWE,
    Concept.BGE,
)

_LATENCY_WINDOW = 2048  # per-endpoint rolling latency samples
_RESPONSE_CACHE_MAX = 4096  # response-cache entries (LRU)


class ServeError(Exception):
    """A client-visible request failure with an HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def _is_int(value: Any) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass, but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_param(
    payload: Mapping[str, Any], name: str, default: int, minimum=None
) -> int:
    value = payload.get(name, default)
    if not _is_int(value) or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ServeError(400, f"'{name}' must be an int{bound}, got {value!r}")
    return value


def _concept_of(value: Any) -> Concept:
    if isinstance(value, Concept):
        return value
    if isinstance(value, str):
        if value in Concept.__members__:
            return Concept[value]
        try:
            return Concept(value)
        except ValueError:
            pass
    raise ServeError(
        400,
        f"unknown concept {value!r}; expected one of "
        f"{sorted(Concept.__members__)}",
    )


class _Instance:
    """One parsed graph query: the game plus its canonical identity."""

    __slots__ = (
        "graph", "n", "alpha", "traffic", "cost_model",
        "digest", "fingerprint",
    )

    def __init__(self, payload: Mapping[str, Any]):
        edges = payload.get("edges")
        if not isinstance(edges, list):
            raise ServeError(400, "'edges' must be a list of [u, v] pairs")
        pairs: list[tuple[int, int]] = []
        for edge in edges:
            if (
                not isinstance(edge, (list, tuple))
                or len(edge) != 2
                or not all(_is_int(x) and x >= 0 for x in edge)
                or edge[0] == edge[1]
            ):
                raise ServeError(400, f"bad edge {edge!r}")
            pairs.append((int(edge[0]), int(edge[1])))
        top = max((max(u, v) for u, v in pairs), default=-1)
        n = payload.get("n", top + 1)
        if not _is_int(n) or n < 1 or top >= n:
            raise ServeError(400, f"bad node count n={n!r} for the edge list")
        self.n = n
        self.graph = nx.empty_graph(n)
        self.graph.add_edges_from(pairs)
        if n > 1 and not nx.is_connected(self.graph):
            raise ServeError(400, "graph must be connected")

        if "alpha" not in payload:
            raise ServeError(400, "'alpha' is required (int, float or 'p/q')")
        try:
            self.alpha = as_alpha(payload["alpha"])
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise ServeError(400, f"bad alpha: {exc}") from None
        if self.alpha <= 0:
            raise ServeError(400, f"bad alpha: must be positive, got {self.alpha}")

        try:
            self.traffic = traffic_from_spec(payload.get("traffic"), n)
            self.cost_model = costmodel_from_spec(payload.get("costmodel"), n)
            # sizes and int64 headroom of the whole regime, before any
            # key or engine is built from it
            bind_valuation(n, self.alpha, self.traffic, self.cost_model)
        except (ValueError, TypeError, KeyError) as exc:
            raise ServeError(400, f"bad alpha/traffic/costmodel: {exc}") from None

        regime = json.dumps(
            to_jsonable(
                {
                    "alpha": self.alpha,
                    "costmodel": (
                        dict(payload["costmodel"])
                        if payload.get("costmodel")
                        else None
                    ),
                }
            ),
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
        # isomorphism-invariant engine identity ...
        self.digest = blake2b(
            canonical_key(self.graph, self.traffic) + b"\x00" + regime,
            digest_size=16,
        ).hexdigest()
        # ... and the labelled request identity (for sigma memoisation and
        # the response cache, whose answers speak these labels)
        weights = (
            self.traffic.weights.tobytes()
            if self.traffic is not None
            else b""
        )
        self.fingerprint = blake2b(
            repr(sorted(pairs)).encode() + b"\x00" + weights + b"\x00" + regime,
            digest_size=16,
        ).hexdigest()


def _move_payload(move: Any, inv: list[int]) -> dict[str, Any]:
    """A move in the *requester's* labels (canonical -> original)."""
    if isinstance(move, RemoveEdge):
        return {
            "type": "remove", "actor": inv[move.actor],
            "other": inv[move.other],
        }
    if isinstance(move, AddEdge):
        return {"type": "add", "u": inv[move.u], "v": inv[move.v]}
    if isinstance(move, Swap):
        return {
            "type": "swap", "actor": inv[move.actor],
            "old": inv[move.old], "new": inv[move.new],
        }
    return {
        "type": type(move).__name__,
        "edge_deltas": [
            [op, inv[u], inv[v]] for op, u, v in move.edge_deltas()
        ],
    }


class _EndpointStats:
    """Per-endpoint meters, backed by the app's metric registry.

    The registry carries the counts and a log-bucketed latency histogram
    (rendered by ``/metricsz``); the rolling deque stays for the exact
    p50/p99 that ``statsz`` has always reported (bucket upper edges
    would quantise them).
    """

    __slots__ = ("_requests", "_errors", "latency", "latencies")

    def __init__(self, registry: _obs.MetricRegistry, endpoint: str) -> None:
        labels = {"endpoint": endpoint}
        self._requests = registry.counter(
            "repro_serve_requests_total", "requests by endpoint", labels
        )
        self._errors = registry.counter(
            "repro_serve_errors_total",
            "4xx/5xx responses by endpoint", labels,
        )
        self.latency = registry.histogram(
            "repro_serve_latency_seconds",
            "request latency by endpoint", labels,
        )
        self.latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)

    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def errors(self) -> int:
        return self._errors.value

    def note_request(self) -> None:
        self._requests.inc()

    def note_result(self, elapsed: float, error: bool) -> None:
        self.latency.observe(elapsed)
        if error:
            self._errors.inc()

    def summary(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "requests": self.requests, "errors": self.errors,
        }
        if self.latencies:
            ordered = sorted(self.latencies)
            out["p50_ms"] = round(
                ordered[len(ordered) // 2] * 1000, 3
            )
            out["p99_ms"] = round(
                ordered[min(len(ordered) - 1, (len(ordered) * 99) // 100)]
                * 1000,
                3,
            )
        return out


class ServeApp:
    """The query service, transport-free (see the module docstring)."""

    def __init__(
        self,
        cache_bytes: int = 256 * 1024 * 1024,
        views: MaterialisedViews | None = None,
    ):
        self.engines = EngineCache(byte_budget=cache_bytes)
        self.views = views if views is not None else MaterialisedViews()
        self._lock = threading.Lock()
        # cache_bytes=0 means "serve everything cold": the response cache
        # is disabled along with the engine registry, so the benchmark's
        # baseline arm recomputes every answer
        self._response_max = 0 if cache_bytes == 0 else _RESPONSE_CACHE_MAX
        self._responses: "OrderedDict[str, dict[str, Any]]" = OrderedDict()
        # per-app registry: statsz counts start at zero for every app,
        # unlike the process-wide REGISTRY the engine spies live in;
        # /metricsz renders both
        self.registry = _obs.MetricRegistry()
        self._response_hits = self.registry.counter(
            "repro_serve_response_cache_hits_total", "response-cache hits"
        )
        self._response_misses = self.registry.counter(
            "repro_serve_response_cache_misses_total",
            "response-cache misses",
        )
        self.registry.gauge(
            "repro_serve_engines_resident", "warm engines resident",
            fn=lambda: len(self.engines),
        )
        self.registry.gauge(
            "repro_serve_engine_bytes", "resident engine byte estimate",
            fn=lambda: self.engines.bytes,
        )
        self.registry.gauge(
            "repro_serve_response_cache_entries",
            "response-cache entries resident",
            fn=lambda: len(self._responses),
        )
        self._endpoints: dict[str, _EndpointStats] = {}
        self.started = time.monotonic()

    @property
    def response_hits(self) -> int:
        return self._response_hits.value

    @property
    def response_misses(self) -> int:
        return self._response_misses.value

    # -- engine plumbing -----------------------------------------------------

    def _engine_for(self, inst: _Instance) -> CachedEngine:
        with self._lock:
            entry = self.engines.get(inst.digest)
        if entry is not None:
            return entry
        state = self._build_state(inst)
        with self._lock:
            # a racing thread may have inserted meanwhile; keep its entry
            # (and its sigma memo) rather than replacing a warm engine
            current = self.engines._entries.get(inst.digest)
            if current is not None:
                return current
            return self.engines.put(inst.digest, state)

    def _build_state(self, inst: _Instance) -> GameState:
        """Materialise the canonical engine for one instance (cold path)."""
        _cache_mod.note_engine_build()
        with _trace.span(
            "serve.engine_build", digest=inst.digest, n=inst.n
        ):
            return self._build_state_inner(inst)

    def _build_state_inner(self, inst: _Instance) -> GameState:
        sigma = canonical_labelling(inst.graph, inst.traffic)
        relabelled = nx.empty_graph(inst.n)
        relabelled.add_edges_from(
            (sigma[u], sigma[v]) for u, v in inst.graph.edges
        )
        traffic = None
        if inst.traffic is not None:
            inv = [0] * inst.n
            for u, c in enumerate(sigma):
                inv[c] = u
            traffic = TrafficMatrix(
                inst.traffic.weights[np.ix_(inv, inv)]
            )
        state = GameState(
            relabelled, inst.alpha, traffic=traffic,
            cost_model=inst.cost_model,
        )
        state.dist.matrix  # materialise the APSP while we are cold
        return state

    def _labelling(
        self, entry: CachedEngine, inst: _Instance
    ) -> tuple[tuple[int, ...], list[int]]:
        """(sigma, inverse) for this request's labels, memoised per engine."""
        memo = entry.sigma_cache.get(inst.fingerprint)
        if memo is not None:
            return memo
        sigma = canonical_labelling(inst.graph, inst.traffic)
        inv = [0] * inst.n
        for u, c in enumerate(sigma):
            inv[c] = u
        if len(entry.sigma_cache) >= 64:
            entry.sigma_cache.pop(next(iter(entry.sigma_cache)))
        entry.sigma_cache[inst.fingerprint] = (sigma, inv)
        return sigma, inv

    # -- response cache ------------------------------------------------------

    def _response_key(
        self, endpoint: str, inst: _Instance, params: Mapping[str, Any]
    ) -> str:
        tail = json.dumps(dict(params), sort_keys=True, separators=(",", ":"))
        return f"{endpoint}|{inst.fingerprint}|{tail}"

    @staticmethod
    def _raw_key(endpoint: str, payload: Mapping[str, Any]) -> str:
        """Pre-parse cache identity: the request's canonical JSON text.

        A byte-identical repeat (the common case in a replayed or
        polling client) hits before any graph parsing or
        canonicalisation happens; respellings of the same instance fall
        through to the semantic key computed after parsing.
        """
        return "raw|" + endpoint + "|" + json.dumps(
            dict(payload), sort_keys=True, separators=(",", ":")
        )

    def _cached_response(
        self, key: str, count_miss: bool = True
    ) -> dict[str, Any] | None:
        if self._response_max == 0:
            return None
        with self._lock:
            hit = self._responses.get(key)
            if hit is None:
                if count_miss:
                    self._response_misses.inc()
                return None
            self._responses.move_to_end(key)
            self._response_hits.inc()
            return dict(hit, cached=True)

    def _remember_response(self, *keys: str, body: dict[str, Any]) -> None:
        if self._response_max == 0:
            return
        with self._lock:
            for key in keys:
                self._responses[key] = body
                self._responses.move_to_end(key)
            while len(self._responses) > self._response_max:
                self._responses.popitem(last=False)

    # -- endpoints -----------------------------------------------------------

    def _classify(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        raw_key = self._raw_key("classify", payload)
        cached = self._cached_response(raw_key, count_miss=False)
        if cached is not None:
            return cached
        inst = _Instance(payload)
        max_coalition = _int_param(payload, "max_coalition_size", 3, minimum=1)
        seed = _int_param(payload, "seed", 0)
        probe_samples = _int_param(payload, "probe_samples", 2000, minimum=0)
        key = self._response_key(
            "classify", inst,
            {
                "max_coalition_size": max_coalition,
                "seed": seed,
                "probe_samples": probe_samples,
            },
        )
        cached = self._cached_response(key)
        if cached is not None:
            self._remember_response(raw_key, body=cached)
            return cached
        entry = self._engine_for(inst)
        with entry.lock:
            sigma, inv = self._labelling(entry, inst)
            reports = classify_full_ladder(
                entry.state,
                max_coalition_size=max_coalition,
                seed=seed,
                probe_samples=probe_samples,
            )
        verdicts = {}
        for concept, report in reports.items():
            verdicts[concept.name] = {
                "stable": report.stable,
                "exhaustive": report.exhaustive,
                "note": report.note,
                "certificate": (
                    _move_payload(report.certificate, inv)
                    if report.certificate is not None
                    else None
                ),
            }
        body = {
            "n": inst.n,
            "alpha": str(inst.alpha),
            "engine": inst.digest,
            "verdicts": verdicts,
            "stable_concepts": sorted(
                concept.name
                for concept, report in reports.items()
                if report.stable
            ),
            "cached": False,
        }
        self._remember_response(key, raw_key, body=body)
        return body

    def _best_response(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        raw_key = self._raw_key("best_response", payload)
        cached = self._cached_response(raw_key, count_miss=False)
        if cached is not None:
            return cached
        inst = _Instance(payload)
        if "agent" not in payload:
            raise ServeError(400, "'agent' is required")
        agent = payload["agent"]
        if not _is_int(agent) or not (0 <= agent < inst.n):
            raise ServeError(400, f"agent must be an int in [0, {inst.n})")
        concept = _concept_of(payload.get("concept", "BGE"))
        if concept not in BEST_RESPONSE_CONCEPTS:
            raise ServeError(
                400,
                f"best_response serves the polynomial ladder "
                f"{[c.name for c in BEST_RESPONSE_CONCEPTS]}, not "
                f"{concept.name}",
            )
        key = self._response_key(
            "best_response", inst,
            {"agent": agent, "concept": concept.name},
        )
        cached = self._cached_response(key)
        if cached is not None:
            self._remember_response(raw_key, body=cached)
            return cached
        entry = self._engine_for(inst)
        with entry.lock:
            sigma, inv = self._labelling(entry, inst)
            actor = sigma[agent]
            # the actor-filtered argmin of the priced pool: the actor's
            # own cost delta, first best in pool order
            pool = 0
            best = best_delta = None
            for run in move_pool(entry.state, concept).runs():
                count, index, delta = run.for_actor(actor, entry.state.alpha)
                pool += count
                if count and (best_delta is None or delta < best_delta):
                    best, best_delta = run.move(index), delta
        body = {
            "agent": agent,
            "concept": concept.name,
            "engine": inst.digest,
            "pool": pool,
            "best_responding": best is None,
            "move": _move_payload(best, inv) if best is not None else None,
            "cost_delta": str(best_delta) if best_delta is not None else None,
            "cached": False,
        }
        self._remember_response(key, raw_key, body=body)
        return body

    def _poa(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        kind = payload.get("kind")
        params = payload.get("params")
        if not isinstance(kind, str) or not isinstance(params, Mapping):
            raise ServeError(
                400, "'kind' (str) and 'params' (object) are required"
            )
        try:
            hit = self.views.lookup(kind, params)
        except (ValueError, TypeError, KeyError) as exc:
            raise ServeError(400, f"bad trial params: {exc}") from None
        if hit is None:
            raise ServeError(
                404, "no materialised view covers this trial cell"
            )
        return {
            "kind": kind,
            "layered": hit["layered"],
            "complete": hit["complete"],
            "source": hit["source"],
            "campaign": hit["campaign"],
            **(
                {
                    "layers": hit["layers"],
                    "layers_present": hit["layers_present"],
                }
                if hit["layered"]
                else {}
            ),
            "result": to_jsonable(hit["result"]),
        }

    def _healthz(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        return {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self.started, 3),
        }

    def _statsz(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        with self._lock:
            body: dict[str, Any] = {
                **self.engines.stats(),
                **engine_cache_info(),
                "response_cache_entries": len(self._responses),
                "response_hits": self.response_hits,
                "response_misses": self.response_misses,
                **self.views.stats(),
                "uptime_s": round(time.monotonic() - self.started, 3),
                "endpoints": {
                    name: stats.summary()
                    for name, stats in sorted(self._endpoints.items())
                },
            }
        return body

    def _metricsz(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """The Prometheus text exposition of both registries.

        The JSON-only transport special-cases the reserved
        ``_raw_text`` key into a ``text/plain`` response (Prometheus
        scrapers do not parse JSON); callers of :meth:`handle` get the
        text under that key.
        """
        return {
            "_raw_text": _obs.render(_obs.REGISTRY, self.registry),
        }

    # -- dispatch ------------------------------------------------------------

    _HANDLERS = {
        "classify": _classify,
        "best_response": _best_response,
        "poa": _poa,
        "healthz": _healthz,
        "statsz": _statsz,
        "metricsz": _metricsz,
    }

    def handle(
        self, endpoint: str, payload: Mapping[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        """Answer one request: ``(http status, json-safe body)``.

        Thread-safe; never raises — client mistakes come back as 4xx
        bodies, anything unexpected as a 500 with the exception text.
        """
        handler = self._HANDLERS.get(endpoint)
        if handler is None:
            return 404, {
                "error": f"unknown endpoint {endpoint!r}",
                "endpoints": sorted(self._HANDLERS),
            }
        with self._lock:
            stats = self._endpoints.get(endpoint)
            if stats is None:
                stats = _EndpointStats(self.registry, endpoint)
                self._endpoints[endpoint] = stats
        stats.note_request()
        started = time.perf_counter()
        with _trace.span("serve.request", endpoint=endpoint) as sp:
            try:
                body = handler(self, payload or {})
                status = 200
            except ServeError as exc:
                status, body = exc.status, {"error": exc.message}
            except Exception as exc:  # pragma: no cover - defensive surface
                status = 500
                body = {"error": f"{type(exc).__name__}: {exc}"}
            sp.set(status=status)
        elapsed = time.perf_counter() - started
        stats.note_result(elapsed, error=status >= 400)
        with self._lock:
            stats.latencies.append(elapsed)
        return status, body
