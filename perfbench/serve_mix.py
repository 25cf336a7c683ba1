"""``serve-mix``: ``python -m repro.serve`` under a closed-loop HTTP client.

The server runs in its own process.  This process is the client: one
keep-alive connection, sending the next request as soon as the previous
answer arrives.  The seeded
trace never ends and mixes

* 55% ``classify``, in equal thirds: never-seen trees, classified cold;
  relabelled repeats of recent trees (engine-cache hit, response miss);
  byte-identical repeats of recent classifies (raw response-cache hit);
* 30% ``best_response`` on never-seen and recent ``G(n, 0.2)`` graphs;
* 15% ``poa`` lookups against a small materialised exact-PoA campaign.

Trees are the classify inputs because ``classify`` on ``G(n, p)`` graphs
runs unbudgeted exponential searches that take seconds on some samples.
One timed unit is a block of ``WINDOW`` consecutive requests.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import layers
import tracing
from common import (
    BENCH_DIR, ROOT, WORK, Calibrator, Outcome, beyond, child_env,
    percentile, repeat_within,
)

N_MIN, N_MAX = 16, 24
GNP_P = 0.2
#: endpoint shares of the replayed trace in benchmarks/bench_serve_qps.py
#: (the rest, 15%, are ``poa`` lookups)
CLASSIFY_SHARE, BEST_RESPONSE_SHARE = 0.55, 0.30
WINDOW = 250
#: blocks a phase replays at least, so that ten latencies lie beyond p99
MIN_BLOCKS = 5
#: repeats draw from this many recent instances
RECENT = 64
BOOTS = 7
CALIBRATION_REPEATS = 3
#: the server's peak memory is read once this many requests are answered,
#: so that it does not grow with the number of requests a run gets through
RSS_AT = 1000
SAMPLE_CHECKS = 60
#: the verification trace: its own seed (no run uses it), replayed over
#: one connection to the freshly booted server, so its answers are exact
VERIFY_SEED, VERIFY_REQUESTS = -1, 120
#: SHA-256 of the verification trace's answers (``cached`` dropped), as
#: the seed code gives them
VERIFY_SHA256 = (
    "6f08df9b5b912f26f60098ae45dbd7e157e1ccecd325975a18573d50afe86208"
)
#: the poa answers name their store, so its path is fixed and relative
VIEWS = WORK / "serve-views"
BOOT_TIMEOUT_S = 60

POA_QUERIES = [
    {"kind": "exact_poa",
     "params": {"family": family, "n": 6, "alpha": alpha, "concept": concept}}
    for family in ("graphs", "trees")
    for alpha in (2, 3, "3/1")
    for concept in ("PS", "BGE")
]


def views_spec():
    from repro.campaigns import CampaignSpec

    return CampaignSpec(
        name="serve-mix-views",
        kind="exact_poa",
        seed=0,
        grids=(
            {"family": "graphs", "n": 6, "m": {"$range": [5, 16]},
             "alpha": [2, 3], "concept": ["PS", "BGE"]},
            {"family": "trees", "n": 6, "alpha": [2, 3],
             "concept": ["PS", "BGE"]},
        ),
    )


def _edges(graph) -> list[list[int]]:
    return sorted([min(u, v), max(u, v)] for u, v in graph.edges)


def request_stream(seed: int):
    """The endless seeded trace of ``(endpoint, payload)`` requests.

    The endpoint shares are :data:`CLASSIFY_SHARE`, :data:`BEST_RESPONSE_SHARE`
    and the rest ``poa``.  A classify is, with equal odds, a never-seen
    tree, a relabelled recent tree or a byte-identical recent classify; a
    best_response is, with equal odds, on a never-seen graph or on a
    recent one (README gives the reasons).
    """
    from repro.graphs.generation import random_connected_gnp, random_tree

    rng = random.Random(seed)
    trees: list[dict] = []
    classifies: list[dict] = []
    graphs: list[dict] = []
    while True:
        roll = rng.random()
        if roll < CLASSIFY_SHARE:
            path = rng.randrange(3)
            if path == 2 and classifies:
                payload = rng.choice(classifies[-RECENT:])
            elif path == 1 and trees:
                base = rng.choice(trees[-RECENT:])
                perm = list(range(base["n"]))
                rng.shuffle(perm)
                edges = sorted(
                    [min(perm[u], perm[v]), max(perm[u], perm[v])]
                    for u, v in base["edges"]
                )
                payload = dict(base, edges=edges)
            else:
                n = rng.randint(N_MIN, N_MAX)
                alpha = rng.choice([n // 2, f"{n + 1}/2", 2, 3])
                payload = {"edges": _edges(random_tree(n, rng)), "n": n,
                           "alpha": alpha}
                trees.append(payload)
            classifies.append(payload)
            request = ("classify", payload)
        elif roll < CLASSIFY_SHARE + BEST_RESPONSE_SHARE:
            if rng.random() < 0.5 or not graphs:
                n = rng.randint(N_MIN, N_MAX)
                instance = {
                    "edges": _edges(random_connected_gnp(n, GNP_P, rng)),
                    "n": n, "alpha": rng.choice([2, 3, 4]),
                }
                graphs.append(instance)
            else:
                instance = rng.choice(graphs[-RECENT:])
            request = ("best_response", dict(
                instance, agent=rng.randrange(instance["n"]),
                concept=rng.choice(["BGE", "PS", "BSWE"]),
            ))
        else:
            request = ("poa", rng.choice(POA_QUERIES))
        for recent in (trees, classifies, graphs):
            if len(recent) > 4 * RECENT:
                del recent[:RECENT]
        yield request


class _Trace:
    """The encoded trace, extended on demand."""

    def __init__(self, seed: int, prefill: int) -> None:
        self._stream = request_stream(seed)
        self.requests: list[tuple[str, dict, bytes]] = []
        self._extend(prefill)

    def _extend(self, count: int) -> None:
        for _ in range(count):
            endpoint, payload = next(self._stream)
            self.requests.append(
                (endpoint, payload, json.dumps(payload).encode())
            )

    def get(self, index: int):
        if index >= len(self.requests):
            self._extend(index + 1 - len(self.requests))
        return self.requests[index]


def _comparable(body: bytes | dict) -> dict:
    if isinstance(body, bytes):
        body = json.loads(body)
    return {key: value for key, value in body.items() if key != "cached"}


def _semantic(endpoint: str, body: bytes | dict) -> dict:
    """The part of an answer that cannot depend on cache history.

    An engine is built from whichever isomorphic request arrived first,
    and its edge order decides which of several valid certificates (or
    equally good best responses) is reported.  Verdicts, pool sizes and
    optimal deltas are the same for every representative.
    """
    body = _comparable(body)
    if endpoint == "classify" and "verdicts" in body:
        body["verdicts"] = {
            concept: {key: value for key, value in verdict.items()
                      if key != "certificate"}
            for concept, verdict in body["verdicts"].items()
        }
    elif endpoint == "best_response":
        body.pop("move", None)
    return body


class _Server:
    """One server process, booted and ready (``/healthz`` answered)."""

    def __init__(self, trace_path=None) -> None:
        views = str(VIEWS.relative_to(ROOT))
        args = ["--port", "0", "--views", views]
        if trace_path is None:
            command = [sys.executable, "-m", "repro.serve", *args]
        else:
            command = [sys.executable, str(BENCH_DIR / "serve_entry.py"),
                       str(trace_path), *args]
        begun = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.log: list[str] = []
        ready = threading.Event()
        self.port = None

        def drain() -> None:
            for line in self.process.stderr:
                self.log.append(line)
                if line.startswith("serving on "):
                    self.port = int(line.rsplit(":", 1)[1])
                    ready.set()
            ready.set()

        self._drain = threading.Thread(target=drain, daemon=True)
        self._drain.start()
        try:
            if not ready.wait(BOOT_TIMEOUT_S) or self.port is None:
                raise RuntimeError("server did not start:\n" + "".join(self.log))
            while self.get("healthz")[0] != 200:
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - begun

    def get(self, endpoint: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", "/" + endpoint)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def counters(self) -> dict:
        return layers.parse_exposition(self.get("metricsz")[1].decode())

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self._drain.join(timeout=30)


def _drive(server: _Server, trace: _Trace, seconds: float,
           calibrator: Calibrator) -> dict:
    """Closed-loop replay from the start of the trace, one block of
    ``WINDOW`` requests at a time, while one more block fits in
    ``seconds``.  The calibration loop runs between blocks, while the
    server is idle."""
    results: list[tuple] = []
    rss: list[float] = []
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)

    def block() -> list[tuple]:
        first = len(results)
        for index in range(first, first + WINDOW):
            endpoint, _, body = trace.get(index)
            begun = time.perf_counter()
            conn.request("POST", "/" + endpoint, body,
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
            results.append((response.status, begun, time.perf_counter(), data))
            if len(results) == RSS_AT:
                rss.append(server.peak_rss_mb())
        return results[first:]

    window = [time.monotonic_ns()]
    try:
        blocks = repeat_within(seconds, block, calibrator, MIN_BLOCKS)
    finally:
        conn.close()
    window.append(time.monotonic_ns())
    return {
        "blocks": blocks,
        "results": results,
        "window": window,
        "peak_rss_mb": rss[0] if rss else server.peak_rss_mb(),
    }


def _phase_metrics(blocks: list[tuple[list[tuple], float]]) -> dict:
    """End-to-end metrics of calibrated ``(block results, scale)`` pairs."""
    latencies = [
        (end - begun) * scale
        for results, scale in blocks for _, begun, end, _ in results
    ]
    walls = [
        (max(r[2] for r in results) - min(r[1] for r in results)) * scale
        for results, scale in blocks
    ]
    return {
        "wall_s": statistics.median(walls),
        "req_per_s": statistics.median(WINDOW / wall for wall in walls),
        "p50_ms": 1000 * statistics.median(latencies),
        "p99_ms": 1000 * percentile(latencies, 99),
        "beyond_p99": beyond(latencies, 99),
        "scale": statistics.median(scale for _, scale in blocks),
    }


def verification_digest(server: _Server) -> str:
    """Digest of the answers to the fixed verification trace."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    digest = hashlib.sha256()
    stream = request_stream(VERIFY_SEED)
    try:
        for _ in range(VERIFY_REQUESTS):
            endpoint, payload = next(stream)
            conn.request("POST", "/" + endpoint, json.dumps(payload).encode(),
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            body = _comparable(response.read())
            digest.update(json.dumps(body, sort_keys=True).encode() + b"\n")
    finally:
        conn.close()
    return digest.hexdigest()


def _sample_mismatches(trace: _Trace, results: list[tuple], seed: int) -> int:
    """Answers that differ in substance from a cold in-process
    ``ServeApp``'s, over a seeded sample of the replayed requests."""
    from repro.serve import MaterialisedViews, ServeApp

    views = MaterialisedViews()
    views.add_store(str(VIEWS.relative_to(ROOT)))
    app = ServeApp(cache_bytes=0, views=views)
    picks = random.Random(seed).sample(
        range(len(results)), min(SAMPLE_CHECKS, len(results))
    )
    mismatches = 0
    for index in picks:
        endpoint, payload, _ = trace.get(index)
        status, body = app.handle(endpoint, payload)
        expected = _semantic(endpoint, json.loads(json.dumps(body)))
        if status != 200 or expected != _semantic(endpoint, results[index][3]):
            mismatches += 1
    return mismatches


def _materialise_views() -> None:
    from repro.campaigns import CampaignStore, run_campaign

    shutil.rmtree(VIEWS, ignore_errors=True)
    with CampaignStore(VIEWS) as store:
        stats = run_campaign(views_spec(), store)
    if stats.failed:
        raise RuntimeError("the poa view campaign has failed trials")


def _phase(trace: _Trace, seconds: float, calibrator: Calibrator,
           trace_path=None) -> dict:
    server = _Server(trace_path)
    try:
        verified = verification_digest(server) == VERIFY_SHA256
        before = server.counters()
        phase = _drive(server, trace, seconds, calibrator)
        phase["deltas"] = layers.counter_delta(before, server.counters())
    finally:
        server.stop()
    phase.update(verified=verified, metrics=_phase_metrics(phase["blocks"]))
    return phase


def _boot_s() -> float:
    server = _Server()
    server.stop()
    return server.setup_s


def _cache_shares(trace: _Trace, phase: dict) -> dict:
    """Shares of the replayed requests by endpoint, answered from the
    response cache (raw or relabelled key), and served by a warm or a
    newly built engine."""
    results = phase["results"]
    count = len(results)
    endpoints = [trace.get(i)[0] for i in range(count)]
    cached = sum(1 for r in results if json.loads(r[3]).get("cached"))
    deltas = phase["deltas"]
    return {
        "endpoint_shares": {
            name: round(endpoints.count(name) / count, 4)
            for name in ("classify", "best_response", "poa")
        },
        "response_hit_frac": round(cached / count, 4),
        "engine_hit_frac": round(
            deltas.get("repro_serve_engine_cache_hits_total", 0) / count, 4
        ),
        "engine_miss_frac": round(
            deltas.get("repro_serve_engine_cache_misses_total", 0) / count, 4
        ),
    }


def _status_failures(phase: dict) -> int:
    failed = sum(1 for status, *_ in phase["results"] if status != 200)
    return failed + (not phase["verified"])


def run(workload, seed, seconds, trace) -> Outcome:
    os.chdir(ROOT)
    _materialise_views()
    requests = _Trace(seed, prefill=int(300 * seconds))
    calibrator = Calibrator(CALIBRATION_REPEATS)
    if not trace:
        setups = [
            boot_s * scale
            for boot_s, scale in (calibrator.run(_boot_s) for _ in range(BOOTS))
        ]
        phase = _phase(requests, seconds, calibrator)
        results, measured = phase["results"], phase["metrics"]
        failed = _status_failures(phase)
        failed += _sample_mismatches(requests, results, seed)
        metrics = {
            "setup_s": statistics.median(setups),
            **{key: measured[key]
               for key in ("wall_s", "req_per_s", "p50_ms", "p99_ms")},
            "peak_rss_mb": phase["peak_rss_mb"],
        }
        notes = {
            "requests": len(results), "beyond_p99": measured["beyond_p99"],
            "units": len(results) // WINDOW,
            "scale": measured["scale"], **_cache_shares(requests, phase),
        }
        return Outcome(metrics, len(results) + 1, failed, notes)

    plain = _phase(requests, seconds / 2, calibrator)
    trace_path = WORK / f"trace-{workload}.txt"
    traced = _phase(requests, seconds / 2, calibrator, trace_path)
    spans, marks = tracing.read_trace(trace_path)
    spans = tracing.in_windows(spans, [traced["window"]])
    table = tracing.self_times(spans)
    units = len(traced["results"]) / WINDOW
    scale = traced["metrics"]["scale"]
    latency_s = sum(end - begun for _, begun, end, _ in traced["results"])
    handled_s = sum(
        (end - start) / 1e9
        for _, _, name, start, end in spans if name == "serve.handle"
    )
    # client latency outside handle() is the time no layer span covers
    metrics = layers.layer_metrics(
        table, tracing.mark_counts(spans, marks), traced["deltas"], units,
        wall_s=latency_s,
        root_s=handled_s,
        overhead_s=traced["metrics"]["wall_s"] - plain["metrics"]["wall_s"],
        scale=scale,
        transport_s=latency_s - handled_s,
    )
    failed = _status_failures(plain) + _status_failures(traced)
    # both fresh servers see the same requests in the same order over one
    # connection, so the traced one must give exactly the same answers
    common_count = min(len(plain["results"]), len(traced["results"]))
    failed += sum(
        1 for i in range(common_count)
        if _comparable(plain["results"][i][3])
        != _comparable(traced["results"][i][3])
    )
    notes = {
        "untraced_units": len(plain["results"]) / WINDOW,
        "traced_units": units,
    }
    attempted = len(plain["results"]) + len(traced["results"]) + 2
    return Outcome(
        metrics, attempted, failed, notes,
        table=layers.per_unit_table(table, units, scale),
        basis_s=latency_s * scale / units,
    )
