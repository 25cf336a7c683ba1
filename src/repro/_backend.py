"""The engine's C-level BFS: distance rows from scipy, with an exact fill.

**BFS distance rows** — fresh rows from a set of sources on a CSR
adjacency — are the one inner loop of the distance engine that numpy
cannot vectorise: the C-level arm of full APSP builds and of the
endpoint-only removal queries in :mod:`repro.graphs.distances`.
Everything else (the add identity, the removal patches, the value
reductions of :class:`repro.core.costmodel.Valuation`) is whole-array
numpy.  :func:`bfs_rows` runs them as one scipy ``dijkstra`` call and
fills unreached entries with the exact integer sentinel.

This module must stay import-light (numpy/scipy only): the engine
(:mod:`repro.graphs.distances`) imports it at module load.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import dijkstra

__all__ = ["active_name", "bfs_rows", "exact_int_fill"]


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


def bfs_rows(adjacency, sources, unreachable: int) -> np.ndarray:
    """BFS distance rows of ``sources`` on a CSR adjacency.

    Follows scipy's ``indices`` semantics: a scalar source yields a 1-D
    row, a sequence a ``(k, n)`` stack; unreached entries hold the exact
    ``unreachable`` sentinel.
    """
    raw = dijkstra(adjacency, unweighted=True, indices=sources)
    return exact_int_fill(raw, unreachable)


def active_name() -> str:
    """The BFS name that benchmark metadata reports (``"numpy"``)."""
    return "numpy"
