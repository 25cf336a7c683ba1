"""The backend name that ``perfbench`` and the benchmark harness record.

Every distance is computed in :mod:`repro.graphs.distances`.
"""

from __future__ import annotations

__all__ = ["active_name"]


def active_name() -> str:
    """The BFS name that benchmark metadata reports (``"numpy"``)."""
    return "numpy"
