"""Warm-engine registry: LRU over canonical instance keys, byte-budgeted.

One *instance* of the service's query surface is ``(graph, W, alpha,
cost_model)``.  Its cache identity is the BLAKE2b digest of the joint
canonical key (:func:`repro.graphs.canonical.canonical_key` —
isomorphism-invariant over the labelled weighted pair) plus the exact
``alpha`` and the cost-model spec, so two requests about relabelled
copies of the same instance share a single cached engine (the
materialised :class:`~repro.core.state.GameState` with its incremental
:class:`~repro.graphs.distances.DistanceMatrix`): the expensive APSP
build is paid once per isomorphism class, not once per request.  An
entry holds the canonical state only; each request brings its own
labelling onto it (:class:`repro.serve.service.ServeApp` parses
it with the digest, from the canonical-form memo of
:mod:`repro.graphs.canonical`).

Eviction is least-recently-used under a byte budget (the dominant term
is the ``n x n`` int64 distance matrix; the estimate below charges the
engine's resident arrays, not Python object overhead).  A budget of
``0`` disables caching entirely — every request builds cold, which is
the baseline arm of ``bench_serve_qps.py``.

Process-wide hits, misses and evictions are counted in the
:mod:`repro.obs` registry (``repro_serve_engine_cache_*_total``); the
cold builds themselves are counted where they happen, in
:mod:`repro.serve.service`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.core.state import GameState
from repro.obs import metrics as _obs

__all__ = [
    "CachedEngine",
    "EngineCache",
    "estimate_engine_bytes",
]

#: process-wide LRU traffic (per-instance counts live on the cache)
_CACHE_HITS = _obs.counter(
    "repro_serve_engine_cache_hits_total", "warm engine-cache lookups"
)
_CACHE_MISSES = _obs.counter(
    "repro_serve_engine_cache_misses_total", "cold engine-cache lookups"
)
_CACHE_EVICTIONS = _obs.counter(
    "repro_serve_engine_cache_evictions_total",
    "engines evicted past the byte budget",
)


def estimate_engine_bytes(state: GameState) -> int:
    """Resident-byte estimate of one warm engine.

    Charges three matrix sizes for the distance matrix and what travels
    with it (the graph's adjacency and the post-removal copies a scan
    makes), plus the demand matrix; the fixed term covers
    bookkeeping.  The factor is kept as it is because the estimates set
    the eviction order, which is part of serve's behaviour.  An estimate
    is enough — the budget bounds growth, it is not an allocator.
    """
    matrix_bytes = state.dist.matrix.nbytes
    weights_bytes = (
        state.traffic.weights.nbytes if state.traffic is not None else 0
    )
    return 3 * matrix_bytes + weights_bytes + 4096


@dataclass
class CachedEngine:
    """One resident instance: the canonical state plus cache metadata."""

    digest: str
    state: GameState  # canonically labelled (graph and demand matrix)
    # engine queries mutate the shared distance matrix speculatively;
    # concurrent requests on one entry serialise here
    lock: threading.RLock = field(default_factory=threading.RLock)
    nbytes: int = 0
    hits: int = 0


class EngineCache:
    """LRU of :class:`CachedEngine` under a byte budget."""

    def __init__(self, byte_budget: int = 256 * 1024 * 1024):
        if byte_budget < 0:
            raise ValueError("byte budget must be >= 0")
        self.byte_budget = int(byte_budget)
        self._entries: "OrderedDict[str, CachedEngine]" = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: str) -> CachedEngine | None:
        entry = self._entries.get(digest)
        if entry is None:
            self.misses += 1
            _CACHE_MISSES.inc()
            return None
        self._entries.move_to_end(digest)
        entry.hits += 1
        self.hits += 1
        _CACHE_HITS.inc()
        return entry

    def put(self, digest: str, state: GameState) -> CachedEngine:
        """Insert a freshly built engine (evicting LRU past the budget).

        With a zero budget nothing is retained — the entry is returned
        for the current request but the registry stays empty.
        """
        entry = CachedEngine(
            digest=digest, state=state, nbytes=estimate_engine_bytes(state)
        )
        if self.byte_budget == 0:
            return entry
        existing = self._entries.pop(digest, None)
        if existing is not None:
            self.bytes -= existing.nbytes
        self._entries[digest] = entry
        self.bytes += entry.nbytes
        while self.bytes > self.byte_budget and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self.bytes -= evicted.nbytes
            self.evictions += 1
            _CACHE_EVICTIONS.inc()
        return entry

    def stats(self) -> dict[str, Any]:
        return {
            "engines_resident": len(self._entries),
            "engine_bytes": self.bytes,
            "engine_byte_budget": self.byte_budget,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
