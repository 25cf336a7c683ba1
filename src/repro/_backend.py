"""Pluggable numerical backends for the engine's BFS inner loop.

**BFS distance rows** — fresh rows from a set of sources on a CSR
adjacency — are the one inner loop of the distance engine that numpy
cannot vectorise: the C-level arm of full APSP builds and of the
endpoint-only removal queries in :mod:`repro.graphs.distances`.
Everything else (the add identity, the removal patches, the value
reductions of :class:`repro.core.costmodel.Valuation`) is whole-array
numpy.

This module is a tiny registry of interchangeable implementations of
that loop.  The **numpy arm is the reference**: scipy's C-level
dijkstra, always registered, always available.  A **numba arm** registers itself *only when numba
imports cleanly* — the dependency stays optional (``pip install``
requirements are unchanged) and the ``@njit`` kernels compile lazily on
first use.  Selection happens once at import: the fastest registered
arm wins (numba when present), overridable with ``REPRO_BACKEND=numpy``
or ``REPRO_BACKEND=numba`` (requesting an unregistered arm raises
immediately rather than silently falling back).

Exactness contract: every arm must be **bit-identical** to the numpy
reference — BFS hop counts are unique and the big-M sentinel is filled
with the exact Python integer — so swapping arms can never change a
game-theoretic verdict.  The
randomized trajectory harness in ``tests/test_cross_validation.py``
enforces this whenever more than one arm is registered.

This module must stay import-light (numpy/scipy only): the engine
(:mod:`repro.graphs.distances`) imports it at module load.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse.csgraph import dijkstra

__all__ = [
    "Backend",
    "active",
    "active_name",
    "available_backends",
    "exact_int_fill",
    "set_backend",
    "use_backend",
]

#: Environment variable naming the arm to select at import.
ENV_VAR = "REPRO_BACKEND"


def exact_int_fill(raw: np.ndarray, unreachable: int) -> np.ndarray:
    """Convert scipy's float distances to int64 with an exact sentinel.

    Finite unweighted distances are below ``2**53``, so the float cast is
    lossless; the ``inf`` mask is then overwritten with the exact Python
    integer (numpy raises ``OverflowError`` if it does not fit ``int64``),
    so big-M sentinels never round-trip through float64.
    """
    mask = np.isinf(raw)
    dist = np.where(mask, 0.0, raw).astype(np.int64)
    if mask.any():
        dist[mask] = unreachable
    return dist


@dataclass(frozen=True)
class Backend:
    """One implementation of the BFS inner loop.

    ``bfs_rows(csr, sources, unreachable)`` mirrors scipy's dijkstra
    semantics exactly (a scalar source yields a 1-D row, a sequence a
    ``(k, n)`` stack, unreached entries hold the exact sentinel).
    """

    name: str
    bfs_rows: Callable[[object, object, int], np.ndarray]


# -- numpy arm (the reference) ----------------------------------------------


def _np_bfs_rows(adjacency, sources, unreachable: int) -> np.ndarray:
    raw = dijkstra(adjacency, unweighted=True, indices=sources)
    return exact_int_fill(raw, unreachable)


_NUMPY = Backend(name="numpy", bfs_rows=_np_bfs_rows)


# -- optional numba arm ------------------------------------------------------


def _make_numba_backend() -> Backend | None:
    """Build the ``@njit`` arm, or ``None`` when numba is unavailable.

    Import failures of any flavour (missing package, broken install,
    unsupported interpreter) all mean "arm not registered" — never an
    error: the dependency is strictly optional.
    """
    try:
        import numba
    except Exception:
        return None

    @numba.njit(cache=True)
    def nb_bfs_rows(indptr, indices, sources, n, unreachable):
        k = sources.shape[0]
        out = np.empty((k, n), dtype=np.int64)
        queue = np.empty(n, dtype=np.int64)
        for s in range(k):
            row = out[s]
            for y in range(n):
                row[y] = -1
            source = sources[s]
            row[source] = 0
            queue[0] = source
            head = 0
            tail = 1
            while head < tail:
                node = queue[head]
                head += 1
                step = row[node] + 1
                for p in range(indptr[node], indptr[node + 1]):
                    neighbor = indices[p]
                    if row[neighbor] < 0:
                        row[neighbor] = step
                        queue[tail] = neighbor
                        tail += 1
            if tail < n:
                for y in range(n):
                    if row[y] < 0:
                        row[y] = unreachable
        return out

    def bfs_rows(adjacency, sources, unreachable: int) -> np.ndarray:
        # mirror scipy's indices semantics: scalar source -> 1-D row
        scalar = np.isscalar(sources) or isinstance(sources, (int, np.integer))
        idx = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        rows = nb_bfs_rows(
            adjacency.indptr,
            adjacency.indices,
            idx,
            adjacency.shape[0],
            np.int64(unreachable),
        )
        return rows[0] if scalar else rows

    return Backend(name="numba", bfs_rows=bfs_rows)


# -- registry & selection ----------------------------------------------------

_REGISTRY: dict[str, Backend] = {"numpy": _NUMPY}
_numba_backend = _make_numba_backend()
if _numba_backend is not None:
    _REGISTRY["numba"] = _numba_backend


def available_backends() -> tuple[str, ...]:
    """Names of the registered arms (``numpy`` is always present)."""
    return tuple(sorted(_REGISTRY))


def _select_at_import() -> Backend:
    requested = os.environ.get(ENV_VAR)
    if requested:
        try:
            return _REGISTRY[requested]
        except KeyError:
            raise RuntimeError(
                f"{ENV_VAR}={requested!r} requests an unregistered backend; "
                f"available: {', '.join(available_backends())} "
                "(the numba arm registers only when numba imports cleanly)"
            ) from None
    # default: the fastest registered arm — numba when present
    return _REGISTRY.get("numba", _REGISTRY["numpy"])


_ACTIVE: Backend = _select_at_import()


def active() -> Backend:
    """The currently selected backend."""
    return _ACTIVE


def active_name() -> str:
    """Name of the currently selected backend."""
    return _ACTIVE.name


def set_backend(name: str) -> str:
    """Select a registered arm; returns the previously active name.

    Primarily a test hook (the cross-validation suite swaps arms
    mid-process); production selection happens once at import.
    """
    global _ACTIVE
    try:
        backend = _REGISTRY[name]
    except KeyError:
        raise RuntimeError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None
    previous = _ACTIVE.name
    _ACTIVE = backend
    return previous


@contextmanager
def use_backend(name: str):
    """Context manager: run a block under a specific arm, then restore."""
    previous = set_backend(name)
    try:
        yield _ACTIVE
    finally:
        set_backend(previous)
