"""Shared helpers: paths, machine metadata, calibration and statistics."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch space for stores and trace files, inside the checkout
WORK = BENCH_DIR / ".work"


def require_source() -> None:
    """Fail fast (no result line) when the checkout has no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for benchmark subprocesses: the program and perfbench
    importable, and no inherited trace sink."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env.pop("REPRO_TRACE", None)
    return env


@dataclass
class Outcome:
    """What one workload run reports: metrics by name, the correctness
    tally, free-form notes for the log and, from a traced run, the
    self-time table per timed unit with the seconds its shares are of."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    notes: dict = field(default_factory=dict)
    table: dict | None = None
    basis_s: float = 0.0


def calibration_loop() -> int:
    """A fixed pure-Python workload (dict and list traffic, integer math)
    whose time lets numbers from different machines be read side by side."""
    adjacency = {i: [(i * 7 + k) % 2003 for k in range(5)] for i in range(2003)}
    total = 0
    for source in range(0, 2003, 40):
        seen = {source: 0}
        queue = [source]
        for node in queue:
            step = seen[node] + 1
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen[neighbor] = step
                    queue.append(neighbor)
        total += sum(seen.values())
    return total


def calibration_s(repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


#: ``calibration_s()`` on the reference machine (the 2-core container
#: the baseline was measured on, with nothing else running)
CALIBRATION_REF_S = 0.0345


class Calibrator:
    """Scales times to the reference machine.

    A shared host's speed drifts by tens of percent over minutes, and
    that drift, not the program, dominated run-to-run spread.  The
    calibration loop is timed before and after every timed unit, and the
    unit's times are multiplied by ``CALIBRATION_REF_S`` over the mean
    of the two.  The loop is benchmark code, so no change to the program
    moves it.
    """

    def __init__(self, repeats: int = 5) -> None:
        self.repeats = repeats
        self.first = self._last = calibration_s(repeats)

    def mark(self) -> float:
        """Time the loop again; the scale of the interval since the last
        calibration."""
        before = self._last
        self._last = calibration_s(self.repeats)
        return 2 * CALIBRATION_REF_S / (before + self._last)

    def run(self, fn):
        """``(fn(), scale)`` for one timed unit."""
        result = fn()
        return result, self.mark()


def machine_meta(calibration: float) -> dict:
    import networkx
    import numpy
    import scipy

    from repro import _backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "backend": _backend.active_name(),
        "calibration_s": round(calibration, 6),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_within(
    budget_s: float, rep, calibrator: Calibrator | None, at_least: int = 1
) -> list:
    """``(result, scale)`` pairs of ``rep()``, called ``at_least`` times and
    again while one more call of the median length fits in ``budget_s``
    (scale 1 without a calibrator)."""
    results, lengths = [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        results.append(calibrator.run(rep) if calibrator else (rep(), 1.0))
        lengths.append(time.perf_counter() - begun)
        elapsed = time.perf_counter() - start
        if (len(results) >= at_least
                and elapsed + statistics.median(lengths) > budget_s):
            return results


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def beyond(values, q: float) -> int:
    """How many samples lie strictly above the ``q`` percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)
