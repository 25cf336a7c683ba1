"""Outside-in tracing: spans around the public functions of each layer.

:func:`install` replaces each listed function or method, at the place its
callers look the name up, with a wrapper that records one span per call:
``(span id, parent id, name, start ns, end ns)``.  Parent ids come from a
per-thread stack, so nesting follows the call tree inside one thread.
Counts a wrapper takes (rows computed, candidates yielded) are *marks*
on its span, so a time window selects counts and times alike.  Spans
and marks stay in memory and are written out once, when the run ends.

A span's self time is its duration minus the time its child spans cover.
Work a wrapper does for its own counts (the changed-rows test of
``rows_after_remove_from``) is recorded as a ``trace.bookkeeping`` child,
so it is charged to no layer.

Nothing here changes what the wrapped functions return.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """In-memory span recorder shared by every installed wrapper."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.marks: list[tuple[int, str, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, count=None):
        """Run ``fn`` inside a span; ``count(args, kwargs, result)`` may
        return ``(key, value)`` marks for it (timed as bookkeeping)."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.monotonic_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic_ns()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))
        if count is not None:
            begun = time.monotonic_ns()
            for key, value in count(args, kwargs, result):
                self.marks.append((span_id, key, value))
            self.spans.append(
                (next(self._ids), parent, BOOKKEEPING, begun,
                 time.monotonic_ns())
            )
        return result

    def write(self, path) -> None:
        """``s id parent name start end`` lines, then ``m id key value``."""
        with open(path, "w") as out:
            out.writelines("s %d %d %s %d %d\n" % span for span in self.spans)
            out.writelines("m %d %s %d\n" % mark for mark in self.marks)


def read_trace(path) -> tuple[list, list]:
    spans, marks = [], []
    with open(path) as handle:
        for line in handle:
            fields = line.split()
            if fields[0] == "s":
                spans.append((int(fields[1]), int(fields[2]), fields[3],
                              int(fields[4]), int(fields[5])))
            else:
                marks.append((int(fields[1]), fields[2], int(fields[3])))
    return spans, marks


def in_windows(spans, windows) -> list:
    """The spans that start inside one of the ``(start_ns, end_ns)`` windows."""
    return [
        span for span in spans
        if any(start <= span[3] < end for start, end in windows)
    ]


def mark_counts(spans, marks) -> Counter:
    """Totals of the marks carried by ``spans``."""
    ids = {span[0] for span in spans}
    counts: Counter = Counter()
    for span_id, key, value in marks:
        if span_id in ids:
            counts[key] += value
    return counts


def self_times(spans) -> dict[str, dict]:
    """Per span name: ``self_s``, ``total_s`` (outermost calls only, so
    recursion is not double counted), ``calls``, and ``parents`` (calls
    per parent span name, ``""`` for roots)."""
    by_id = {span[0]: span for span in spans}
    covered: dict[int, int] = defaultdict(int)
    for _, parent, _, start, end in spans:
        covered[parent] += end - start
    table: dict[str, dict] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0,
                 "parents": Counter()}
    )
    for span_id, parent, name, start, end in spans:
        if name == BOOKKEEPING:
            continue
        row = table[name]
        row["self_s"] += (end - start - covered[span_id]) / 1e9
        row["calls"] += 1
        row["parents"][by_id[parent][2] if parent in by_id else ""] += 1
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            row["total_s"] += (end - start) / 1e9
    return dict(table)


def root_time_s(spans) -> float:
    """Time covered by spans without a traced parent (bookkeeping included,
    so that what is left of a phase is time outside every traced layer)."""
    ids = {span[0] for span in spans}
    return sum(
        (end - start) / 1e9
        for _, parent, _, start, end in spans
        if parent not in ids
    )


class _TracedIterator:
    """Times every ``next()`` of a generator as one span."""

    __slots__ = ("_tracer", "_name", "_inner")

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.call(
            self._name, next, (self._inner,), {}, _one_candidate
        )


def _one_candidate(args, kwargs, item):
    return (("candidates", 1),)


def _patch(owner, attr: str, tracer: Tracer, name: str, count=None) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)

    setattr(owner, attr, traced)


def _rows_changed(args, kwargs, rows):
    import numpy as np

    engine = args[0]
    sources = args[3] if len(args) > 3 else kwargs["sources"]
    cached = engine.matrix[np.asarray(sources, dtype=np.int64)]
    changed = int((rows != cached).any(axis=1).sum())
    return (("rows", len(rows)), ("changed_rows", changed))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer entry point; call once per process, before
    the workload starts."""
    import repro.analysis.poa as poa
    import repro.analysis.search as search
    import repro.campaigns as campaigns
    import repro.campaigns.aggregate as aggregate
    import repro.campaigns.executor as executor
    import repro.core.batch as batch
    import repro.core.speculative as speculative
    import repro.core.state as state
    import repro.dynamics.engine as dyn_engine
    import repro.graphs.bridges as bridges
    import repro.graphs.canonical as canonical
    import repro.graphs.distances as distances
    import repro.graphs.enumerate as enumerate_
    import repro.serve.service as service
    from repro.campaigns.store import CampaignStore

    matrix_cls = distances.DistanceMatrix
    _patch(
        matrix_cls, "rows_after_remove_from", tracer,
        "distances.rows_after_remove_from", count=_rows_changed,
    )
    _patch(distances, "apsp_matrix", tracer, "distances.apsp_matrix")
    _patch(matrix_cls, "apply_add", tracer, "distances.apply")
    _patch(matrix_cls, "apply_remove", tracer, "distances.apply")
    _patch(bridges, "component_bridges", tracer, "bridges.component_bridges")

    # key_of_masks is looked up in canonical itself (canonical_key) and
    # imported by name into the enumerator
    _patch(canonical, "key_of_masks", tracer, "canonical.key_of_masks")
    enumerate_.key_of_masks = canonical.key_of_masks
    _patch(
        service, "canonical_labelling", tracer,
        "canonical.canonical_labelling",
    )
    layers_seen = set()

    def layer_kept(args, kwargs, layer):
        # memo hits hand the same layer out again; count each layer once
        if args[:2] in layers_seen:
            return ()
        layers_seen.add(args[:2])
        return (("kept", len(layer)),)

    # the PoA runner imports connected_graph_layer at call time, so the
    # module attribute is the lookup point for it and for the recursion
    _patch(
        enumerate_, "connected_graph_layer", tracer,
        "enumerate.connected_graph_layer", count=layer_kept,
    )

    _patch(state.GameState, "__init__", tracer, "state.GameState")
    _patch(speculative.SpeculativeEvaluator, "best", tracer, "speculative.best")
    _patch(batch, "batch_add_gains", tracer, "batch.add_gains")
    _patch(batch, "batch_remove_losses", tracer, "batch.remove_losses")
    _patch(batch, "batch_swap_deltas", tracer, "batch.swap_deltas")

    for module in (dyn_engine, service):
        generate = module.improving_moves

        def traced_moves(*args, _generate=generate, **kwargs):
            return _TracedIterator(
                tracer, "movegen.improving_moves", _generate(*args, **kwargs)
            )

        module.improving_moves = traced_moves

    check = poa.check

    def traced_check(state_, concept, k=None):
        return tracer.call(
            f"equilibria.check.{concept.name}", check, (state_, concept, k), {}
        )

    poa.check = traced_check
    _patch(search, "diagnose", tracer, "equilibria.diagnose")

    _patch(executor, "execute_trial", tracer, "campaigns.execute_trial")
    _patch(CampaignStore, "append", tracer, "campaigns.store_append")
    _patch(aggregate, "render_report", tracer, "campaigns.render_report")
    campaigns.render_report = aggregate.render_report

    _patch(service.ServeApp, "handle", tracer, "serve.handle")
