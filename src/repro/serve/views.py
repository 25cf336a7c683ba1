"""Campaign stores materialised as query views for the ``poa`` endpoint.

A completed (or in-flight) campaign store already holds exact answers —
"the worst-case PoA of pairwise stability at ``n=9, alpha=4``" — as
content-addressed trial records.  This module indexes those records at
startup so the service answers ``poa`` queries with dictionary reads
instead of re-running enumeration:

* the **exact index** maps every :func:`~repro.campaigns.spec.trial_key`
  in every registered store to its decoded result;
* the **layer index** groups ``m``-sharded PoA trials by
  :func:`~repro.campaigns.aggregate.layer_groups` and rolls them up with
  :func:`~repro.campaigns.aggregate.roll_up`, the lookup every PoA
  table reducer reads — PoA is the max over edge-count layers,
  equilibria/candidates the sums — so a query that does not mention
  ``m`` still resolves against a campaign that ran layered.

Queries are content-addressed exactly like trials (``alpha: 4.5`` and
``alpha: "9/2"`` hit the same record), so the view needs no schema
knowledge beyond the shared ``m``-is-the-layer-axis convention.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

from repro.campaigns.aggregate import layer_groups, layer_key, roll_up
from repro.campaigns.spec import CampaignSpec, trial_key
from repro.campaigns.store import CampaignStore

__all__ = ["MaterialisedViews"]


class MaterialisedViews:
    """Trial-key index over any number of campaign stores."""

    def __init__(self, roots: list[str | Path] | None = None):
        self.sources: list[dict[str, Any]] = []
        self._exact: dict[str, dict[str, Any]] = {}
        # layer key -> {"source", "campaign", "results": [per layer]}
        self._layers: dict[str, dict[str, Any]] = {}
        for root in roots or []:
            self.add_store(root)

    def add_store(self, root: str | Path) -> dict[str, Any]:
        """Index one campaign store (its spec defines the trial universe)."""
        store = CampaignStore(root)
        spec = store.load_spec()
        if spec is None:
            raise ValueError(f"{root} is not a campaign store (no spec.json)")
        return self._index(spec, store, str(root))

    def add_campaign(
        self, spec: CampaignSpec, store: CampaignStore, label: str | None = None
    ) -> dict[str, Any]:
        """Index an in-memory (spec, store) pair — the test-facing entry."""
        return self._index(spec, store, label or spec.name)

    def _index(
        self, spec: CampaignSpec, store: CampaignStore, source: str
    ) -> dict[str, Any]:
        indexed = 0
        for trial in spec.trials():
            result = store.result(trial.key)
            if result is not None and trial.key not in self._exact:
                self._exact[trial.key] = {
                    "source": source,
                    "campaign": spec.name,
                    "kind": trial.kind,
                    "params": trial.params,
                    "result": result,
                }
                indexed += 1
        for stripped, trials in layer_groups(spec).items():
            layered = [trial for trial in trials if "m" in trial.params]
            if not layered:
                continue
            group = self._layers.setdefault(
                stripped,
                {"source": source, "campaign": spec.name, "results": []},
            )
            group["results"] += [store.result(t.key) for t in layered]
        info = {
            "source": source,
            "campaign": spec.name,
            "trials": len(spec.trials()),
            "indexed": indexed,
        }
        self.sources.append(info)
        return info

    def __len__(self) -> int:
        return len(self._exact)

    def lookup(self, kind: str, params: Mapping[str, Any]) -> dict[str, Any] | None:
        """Resolve one query cell; ``None`` when no view covers it.

        Tries the exact trial first, then the layered aggregation (a
        query without ``m`` against an ``m``-sharded campaign).  A
        layered cell with any layer still pending reports
        ``"complete": false`` and aggregates what exists, mirroring the
        report's ``?`` semantics without hiding partial coverage.
        """
        key = trial_key(kind, params)
        hit = self._exact.get(key)
        if hit is not None:
            return {
                "layered": False,
                "source": hit["source"],
                "campaign": hit["campaign"],
                "complete": True,
                "result": hit["result"],
            }
        if "m" in params:
            return None
        group = self._layers.get(layer_key(kind, params))
        if group is None:
            return None
        present = [result for result in group["results"] if result is not None]
        if not present:
            return None
        return {
            "layered": True,
            "source": group["source"],
            "campaign": group["campaign"],
            "complete": all(r is not None for r in group["results"]),
            "layers": len(group["results"]),
            "layers_present": len(present),
            "result": roll_up(present),
        }

    def stats(self) -> dict[str, Any]:
        return {
            "view_sources": len(self.sources),
            "view_trials_indexed": len(self._exact),
            "view_layer_groups": len(self._layers),
        }
