"""``repro.serve`` — an always-on query service over warm engines.

The batch subsystems answer "what is the PoA of this whole regime"
overnight; this package answers "classify *this* graph" / "what is agent
``u``'s best move" / "what did the campaign measure here" interactively,
from a long-lived process that keeps engines warm:

* :mod:`repro.serve.cache` — the warm-engine registry.  Instances are
  identified by the PR-8 canonical key of ``(graph, W, alpha,
  cost_model)``, so *any* relabelling of a known instance is a cache hit
  and shares one materialised :class:`~repro.core.state.GameState`
  (label-dependent answers are mapped through the canonical labelling
  and back).  Eviction is LRU under a byte budget.
* :mod:`repro.serve.views` — campaign reducers materialised as views:
  completed campaign stores are indexed by trial key at startup so
  ``poa`` lookups are dictionary reads, including the layered
  ``exact_poa`` aggregation.
* :mod:`repro.serve.service` — the transport-free application object
  (parse request, consult caches, run checkers/kernel, account stats).
  Everything testable lives here.
* :mod:`repro.serve.http` — the stdlib threading HTTP/1.1 server
  putting the service on a socket; each connection is read on its own
  thread, so other connections are answered while an engine builds.

Run it::

    python -m repro.serve --port 8080 --views .campaigns/exact-poa
"""

from repro.serve.cache import EngineCache
from repro.serve.service import ServeApp
from repro.serve.views import MaterialisedViews

__all__ = [
    "EngineCache",
    "MaterialisedViews",
    "ServeApp",
]
