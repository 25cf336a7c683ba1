"""repro.obs — unified telemetry: metric registry, trace spans, exposition.

Three pieces, all stdlib-only and import-cycle-free (nothing here
imports the rest of ``repro``):

* :mod:`repro.obs.metrics` — thread-safe ``Counter`` / ``Gauge`` /
  ``Histogram`` in a process-wide :data:`~repro.obs.metrics.REGISTRY`.
  Every engine spy (``repro_engine_apsp_builds_total``, the canonical
  memo, ``repro_serve_engine_builds_total``…) lives here and is read by
  its series name, through ``REGISTRY.snapshot()`` or ``/metricsz``.
* :mod:`repro.obs.trace` — ``span(name, **attrs)`` context managers
  over ``time.monotonic_ns`` emitting JSONL to the sink named by
  ``REPRO_TRACE`` (default off; near-zero overhead when disabled).
* Exposition — :func:`repro.obs.metrics.render` produces the Prometheus
  text format served by ``/metricsz``; ``python -m repro.campaigns
  profile`` aggregates trace sinks into per-layer time breakdowns.

Hard rule carried everywhere telemetry touches: **never alter result
bytes**.  Counters and spans observe; they do not participate in
content-addressed keys, campaign records, reports or response bodies.
"""

from repro.obs.metrics import (
    LOG_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    REGISTRY,
    counter,
    gauge,
    histogram,
    render,
)
from repro.obs.trace import (
    disable_trace,
    enable_trace,
    span,
    trace_enabled,
    trace_path,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LOG_BUCKETS",
    "MetricRegistry",
    "REGISTRY",
    "counter",
    "disable_trace",
    "enable_trace",
    "gauge",
    "histogram",
    "render",
    "span",
    "trace_enabled",
    "trace_path",
]
