"""Thread-safe metric registry: counters, gauges, log-bucketed histograms.

Every engine spy is a :class:`Counter` in the process-wide
:data:`REGISTRY`, read by its series name — through
``REGISTRY.snapshot()`` in-process or ``/metricsz`` over HTTP.  Plain
module-global ints would lose updates: ``repro.serve`` runs the engine
on one thread per connection, and a CPython ``int`` increment is a
read-modify-write that can interleave (the GIL serialises bytecodes,
not statements).  The ``EngineCache`` per-entry ``RLock`` protects one
engine's *matrix*, not the counters the engine code updates along the
way.

Spies reachable from concurrent serve threads:

* ``repro_serve_engine_builds_total`` — cold builds race by design (two
  distinct instances may materialise concurrently);
* ``repro_canonical_cache_hits_total`` / ``_misses_total`` — every
  request canonicalises before touching the cache, on the calling
  thread;
* ``repro_engine_apsp_builds_total`` and
  ``repro_engine_remove_bfs_repairs_total`` — engine builds and
  speculative evaluations on *different* engines hold different
  per-entry locks yet share these counters;
* ``repro_engine_bridge_sweeps_total`` — ``classify`` requests sweep
  their graphs' bridges once per coalition search, concurrently;
* ``repro_engine_evaluations_total`` — ``best_response`` requests on
  distinct engines evaluate concurrently;
* ``repro_strong_fold_dfs_runs_total`` /
  ``repro_strong_engine_dfs_runs_total`` — ``classify`` requests run
  coalition searches concurrently.

Each increment takes a per-metric lock.  The single-threaded cost is one
lock round-trip per increment — nanoseconds against the numpy work each
spy brackets, measured by ``benchmarks/bench_obs_overhead.py``.

Metrics carry Prometheus-style names (``repro_*_total`` for counters)
plus an optional frozen label set; :func:`render` writes the standard
text exposition format, which is what the serve ``/metricsz`` endpoint
returns.  The registry is deliberately tiny and stdlib-only: no client
library, no background threads, and **no timestamps anywhere near result
bytes** — telemetry never alters what the engine computes.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LOG_BUCKETS",
    "MetricRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "render",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: The fixed log-spaced histogram bucket edges (seconds): half-decade
#: steps from one microsecond to ~31.6 s.  Fixed so two processes (or
#: two runs) always bucket identically and traces stay comparable.
LOG_BUCKETS: tuple[float, ...] = tuple(
    10.0 ** (k / 2.0) for k in range(-12, 4)
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def _frozen_labels(
    labels: Mapping[str, str] | None,
) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"bad label name {key!r}")
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count with atomic (locked) increments.

    ``reset()`` exists for the spy discipline — ``canonical_cache_clear``
    and tests zero counters between phases — and is the one deliberate
    departure from Prometheus counter semantics.
    """

    kind = "counter"
    __slots__ = ("name", "help", "labels", "_lock", "_value")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, str] | None = None,
    ):
        self.name = _check_name(name)
        self.help = help
        self.labels = _frozen_labels(labels)
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value

    def samples(self) -> list[tuple[str, tuple[tuple[str, str], ...], Any]]:
        return [(self.name, self.labels, self.value)]


class Gauge:
    """A value that can go up and down (resident bytes, cache entries…)."""

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "_lock", "_value", "_fn")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, str] | None = None,
        fn: Callable[[], int | float] | None = None,
    ):
        self.name = _check_name(name)
        self.help = help
        self.labels = _frozen_labels(labels)
        self._lock = threading.Lock()
        self._value = 0
        self._fn = fn  # callback gauges read live state at collection

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> int | float:
        if self._fn is not None:
            return self._fn()
        with self._lock:
            return self._value

    def samples(self) -> list[tuple[str, tuple[tuple[str, str], ...], Any]]:
        return [(self.name, self.labels, self.value)]


class Histogram:
    """Fixed-bucket histogram (log-spaced by default, see ``LOG_BUCKETS``).

    ``observe`` files a value into the first bucket whose upper edge is
    ``>= value`` and tracks the running sum and count; rendering emits
    the cumulative ``_bucket`` / ``_sum`` / ``_count`` series Prometheus
    expects.  Percentile *estimates* (:meth:`quantile`) return the upper
    edge of the containing bucket — coarse on purpose, they exist for
    ``statsz`` summaries, not SLO math.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "labels", "buckets", "_lock", "_counts",
                 "_sum", "_count")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, str] | None = None,
        buckets: Iterable[float] | None = None,
    ):
        self.name = _check_name(name)
        self.help = help
        self.labels = _frozen_labels(labels)
        edges = tuple(buckets) if buckets is not None else LOG_BUCKETS
        if not edges or list(edges) != sorted(edges):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.buckets = edges
        self._lock = threading.Lock()
        self._counts = [0] * (len(edges) + 1)  # final slot = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        # bisect over a ~16-entry tuple: cheap, and exact bucket edges
        lo, hi = 0, len(self.buckets)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self._counts[lo] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Upper bucket edge containing the ``q``-quantile (0 if empty)."""
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        rank = max(1, math.ceil(q * total))
        seen = 0
        for index, bucket_count in enumerate(counts):
            seen += bucket_count
            if seen >= rank:
                if index < len(self.buckets):
                    return self.buckets[index]
                return math.inf
        return math.inf  # pragma: no cover - defensive

    def samples(self) -> list[tuple[str, tuple[tuple[str, str], ...], Any]]:
        with self._lock:
            counts = list(self._counts)
            total_sum, total_count = self._sum, self._count
        out = []
        cumulative = 0
        for edge, bucket_count in zip(self.buckets, counts):
            cumulative += bucket_count
            out.append((
                f"{self.name}_bucket",
                self.labels + (("le", _format(edge)),),
                cumulative,
            ))
        out.append((
            f"{self.name}_bucket", self.labels + (("le", "+Inf"),),
            total_count,
        ))
        out.append((f"{self.name}_sum", self.labels, total_sum))
        out.append((f"{self.name}_count", self.labels, total_count))
        return out


def _format(value: Any) -> str:
    if isinstance(value, float):
        if value == math.inf:
            return "+Inf"
        return repr(value)
    return str(value)


class MetricRegistry:
    """Name+labels -> metric, with get-or-create semantics.

    One process-wide default instance (:data:`REGISTRY`) absorbs the
    engine spies; components with per-instance counters (one
    :class:`~repro.serve.service.ServeApp` per test, say) build their
    own so their numbers start at zero.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}

    def _get_or_create(self, cls, name, help, labels, **kwargs):
        key = (name, _frozen_labels(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name, help=help, labels=labels, **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, str] | None = None,
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, str] | None = None,
        fn: Callable[[], int | float] | None = None,
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels, fn=fn)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, str] | None = None,
        buckets: Iterable[float] | None = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    def collect(self) -> list[Any]:
        """Every registered metric, sorted by (name, labels) — stable."""
        with self._lock:
            metrics = list(self._metrics.items())
        return [metric for _, metric in sorted(metrics, key=lambda kv: kv[0])]

    def snapshot(self) -> dict[str, Any]:
        """Flat ``name{labels}`` -> value map (counters and gauges only)."""
        out: dict[str, Any] = {}
        for metric in self.collect():
            if metric.kind == "histogram":
                continue
            out[_series_name(metric.name, metric.labels)] = metric.value
        return out


def _series_name(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{_escape(value)}"' for key, value in labels
    )
    return f"{name}{{{inner}}}"


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def render(*registries: MetricRegistry) -> str:
    """The Prometheus text exposition (version 0.0.4) of the registries.

    Metrics render sorted by name; ``# HELP`` / ``# TYPE`` headers are
    emitted once per metric family even when several label sets share a
    name.  Deterministic byte-for-byte given equal metric values.
    """
    families: dict[str, list[Any]] = {}
    kinds: dict[str, tuple[str, str]] = {}
    for registry in registries or (REGISTRY,):
        for metric in registry.collect():
            families.setdefault(metric.name, []).append(metric)
            kinds.setdefault(metric.name, (metric.kind, metric.help))
    lines: list[str] = []
    for name in sorted(families):
        kind, help_text = kinds[name]
        if help_text:
            lines.append(f"# HELP {name} {_escape(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for metric in families[name]:
            for sample_name, labels, value in metric.samples():
                lines.append(
                    f"{_series_name(sample_name, labels)} {_format(value)}"
                )
    return "\n".join(lines) + "\n"


#: The process-wide default registry: every module-global spy lives here.
REGISTRY = MetricRegistry()


def counter(
    name: str, help: str = "", labels: Mapping[str, str] | None = None
) -> Counter:
    """Get-or-create a counter in the process-wide registry."""
    return REGISTRY.counter(name, help=help, labels=labels)


def gauge(
    name: str,
    help: str = "",
    labels: Mapping[str, str] | None = None,
    fn: Callable[[], int | float] | None = None,
) -> Gauge:
    """Get-or-create a gauge in the process-wide registry."""
    return REGISTRY.gauge(name, help=help, labels=labels, fn=fn)


def histogram(
    name: str,
    help: str = "",
    labels: Mapping[str, str] | None = None,
    buckets: Iterable[float] | None = None,
) -> Histogram:
    """Get-or-create a histogram in the process-wide registry."""
    return REGISTRY.histogram(name, help=help, labels=labels, buckets=buckets)
