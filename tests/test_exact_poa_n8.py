"""Byte-identity pins of the exact PoA at n = 8, the committed size.

* Per edge-count layer m = 7..28 of the connected graphs on 8 nodes, the
  SHA-256 of the PS verdict and the social cost of every class, in
  layer order, at alpha = 2 and 3, priced by the stacked kernel
  (:func:`repro.equilibria.stack.price_stack`).
* ``campaigns/exact_poa.json`` run whole: the SHA-256 of the rendered
  report and of every trial's result, in spec order.

All digests were computed through the per-instance path (a
``GameState`` and the registry's checker per class), before the stacked
kernel existed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from repro.campaigns import CampaignSpec, CampaignStore, render_report
from repro.campaigns import run_campaign
from repro.campaigns.spec import to_jsonable
from repro.core.costmodel import bind_valuation
from repro.equilibria.stack import price_stack, stack_size
from repro.graphs.canonical import adjacency_stack
from repro.graphs.enumerate import connected_graph_layer

SPEC = Path(__file__).parent.parent / "campaigns" / "exact_poa.json"

LAYER_DIGESTS = {
    7: "f008400184bd7a463b4bb84562cc905b3305039c2ffa6f60831826f0a77a60c9",
    8: "6f7a01536c8ee6997121ceb3aff4979c8316e7e78441af8d197566384a5a97c4",
    9: "48bff24852712aa23b6a9e53fe4614357b5152309074827613dac649ac1aad76",
    10: "20ef2a2533701d2262ed980349771f5e7f3266cf1d44a2044d7f0521ee85cf54",
    11: "b4901f86f14bf93258fdae6b9971ad6e8d28005faff21e2cf6d916167976eb7b",
    12: "0c1523513499c50ef45f8ea07e6171cca95b802e0684b92ab1a998a3942fba23",
    13: "1f05137127027e6f412b1a8c939a0a0283d0cb4b72202891112c727ff456baac",
    14: "900d4a3d3e50e5ded1377af198a039722034edc251a1cc179da92e08ec1649b4",
    15: "d85b36765b2fafe35a137d95c71b6e66baa2515c628473635464553acf159e30",
    16: "eb7386b7dd855af21b18cadfd83f60cb99547c420b6c467c6bed3315a5ea5b02",
    17: "2953f6d20167d9314d397efda75a1d9ec0d1877257995e06eba46f30f4c6371d",
    18: "d2316d9f44153e9b8baaa5902800bbde8daabee3a57416246585223149177b00",
    19: "58e5fa64e38cfdbcecc12aab54d09092618c5c04c43b2fbd5aba58baf72f8623",
    20: "fb344bf4595407f2c929907d28cdb13529839e597dbfbab59f88357a3c8b2f3c",
    21: "d7693be24764c398125b93ffc4d3b2b0444e952e41c6f91b9d66213779ac7913",
    22: "2271968d2a3934aa16ea90858a3aa70bce85125dbce76a3ea5058a13a1cf8e63",
    23: "e845d91a44c0a11bdcee5f97220a5193d24ff0b23b58e4ff8f9483f2e3ee55e3",
    24: "5600b7c4453ef046bf6a2269024a985c25b1de538299eab5abc0a21993231988",
    25: "f6b35005448b278399d4e67286706e517ba2558ca9c4dc9d3b80c018652b0080",
    26: "1da3ff1b8a904c62ca59384c4fd25a2656d9ec74b0ab9442a6d031360049bd90",
    27: "764d9a2d7142184525eca1cf5bc29c36499707c184d7c92caa2510a5ad6cbd0c",
    28: "c5a5fcddf462a39f830ded2c96a18012b8c43df4e9f24f37be3038cbc2c5be4a",
}

REPORT_SHA256 = (
    "66b186a4105dad7ce572fab1c638114b968955e648cd1101c9724df6c4a053d1"
)
RESULTS_SHA256 = (
    "13271b3069147daf05b97ae1a581fb16dd66703efa5a3d0868f55e5c873daa76"
)


def _layer_digest(n: int, m: int) -> str:
    """``[[PS verdict, social cost], ...]`` per alpha, hashed."""
    keys = connected_graph_layer(n, m)
    size = stack_size(n)
    payload = []
    for alpha in (Fraction(2), Fraction(3)):
        game = bind_valuation(n, alpha)
        rows = []
        for start in range(0, len(keys), size):
            prices = price_stack(
                adjacency_stack(keys[start : start + size]), alpha, *game
            )
            rows += [
                [int(stable), str(2 * alpha * m + total)]
                for stable, total in zip(
                    prices.pairwise.tolist(), prices.totals.tolist()
                )
            ]
        payload.append(rows)
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def test_n8_layer_verdicts_and_costs_pinned():
    digests = {m: _layer_digest(8, m) for m in LAYER_DIGESTS}
    assert digests == LAYER_DIGESTS


def test_committed_exact_poa_spec_pinned():
    spec = CampaignSpec.load(SPEC)
    store = CampaignStore(None)
    stats = run_campaign(spec, store)
    assert stats.failed == 0
    assert [outcome.key for outcome in stats.outcomes] == [
        trial.key for trial in spec.trials()
    ]
    results = [to_jsonable(outcome.result) for outcome in stats.outcomes]
    assert hashlib.sha256(
        json.dumps(results, sort_keys=True).encode()
    ).hexdigest() == RESULTS_SHA256
    report = render_report(spec, store)
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_SHA256
