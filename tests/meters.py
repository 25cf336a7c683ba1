"""Read a :mod:`repro.obs` meter by its series name, as ``/metricsz`` does.

A mistyped series raises ``KeyError`` instead of reading 0, which
``REGISTRY.counter(name)`` (get-or-create) would do.
"""

from repro.obs.metrics import REGISTRY


def meter(series: str):
    """The current value of one registry series."""
    return REGISTRY.snapshot()[series]
