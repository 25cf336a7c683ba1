"""Byte-identity pins for every exact-PoA path.

Two families of SHA-256 digests freeze what the PoA runners and the
PoA reducers produce:

* per runner kind (``tree_poa``, ``graph_poa``, ``weighted_poa``,
  ``generalized_poa``, ``exact_poa``), the ``execute_trial`` results of
  a small grid with n <= 6: trees, connected graphs, single edge-count
  layers ``m`` and labelled trees; with and without ``traffic`` and
  ``costmodel``; PS, BGE and 2-BSE at three edge prices.  Each grid
  holds only axis combinations every kind has always read, so the pins
  describe the same games before and after a refactor;
* per committed PoA campaign spec, the rendered report.  ``smoke``,
  ``traffic_regimes``, ``generalized_regimes`` and ``poa_scaling`` run
  whole; ``cooperation_ladder`` runs at n = 7 and ``exact_poa`` at
  n = 6 over its layers m = 5..15 (the committed sizes take minutes).

The digests were computed before the PoA scan loops, runners and table
reducers were collapsed into one path; any change to a ratio, a count,
a witness certificate or a rendered cell moves them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from repro.campaigns import CampaignSpec, CampaignStore, render_report
from repro.campaigns import run_campaign
from repro.campaigns.runners import execute_trial
from repro.campaigns.spec import to_jsonable
from repro.core.concepts import Concept

CAMPAIGNS_DIR = Path(__file__).parent.parent / "campaigns"

ALPHAS = (Fraction(1, 2), Fraction(2), Fraction(5))
#: (concept, k): PS, BGE and 2-BSE
CONCEPTS = ((Concept.PS, None), (Concept.BGE, None), (Concept.BGE, 2))

UNIFORM = {"model": "uniform"}
GRAVITY = {"model": "gravity", "weights": [3, 1, 2, 1, 1]}
BROADCAST = {"model": "broadcast", "sources": [0]}
CONCAVE = {"model": "concave", "exponent": "1/2", "scale": 2}


def _grid(**axes) -> list[dict]:
    """Cross product of the axes; ``concept`` expands to (concept, k)."""
    names = list(axes)
    out = []
    for combo in itertools.product(*(axes[name] for name in names)):
        params = {}
        for name, value in zip(names, combo):
            if name == "concept":
                params["concept"], k = value
                if k is not None:
                    params["k"] = k
            elif value is not None:
                params[name] = value
        out.append(params)
    return out


TRIAL_GRIDS = {
    "tree_poa": _grid(n=[4, 5, 6], alpha=ALPHAS, concept=CONCEPTS),
    "graph_poa": (
        _grid(n=[4, 5], alpha=ALPHAS, concept=CONCEPTS)
        + _grid(n=[6], alpha=ALPHAS, concept=CONCEPTS[:2])
    ),
    "weighted_poa": (
        _grid(
            n=[5], alpha=ALPHAS, concept=CONCEPTS,
            traffic=[UNIFORM, GRAVITY, BROADCAST], family=[None, "trees"],
        )
        + _grid(
            n=[5], alpha=ALPHAS, concept=CONCEPTS[:2],
            traffic=[UNIFORM, GRAVITY], family=["graphs"],
        )
    ),
    "generalized_poa": (
        _grid(
            n=[5], alpha=ALPHAS, concept=CONCEPTS,
            costmodel=[{"model": "linear"}, CONCAVE, {"model": "max"}],
            traffic=[None, GRAVITY],
        )
        + _grid(
            n=[5], alpha=ALPHAS, concept=CONCEPTS[:2],
            costmodel=[CONCAVE, {"model": "max"}], traffic=[None, GRAVITY],
            family=["graphs"],
        )
    ),
    "exact_poa": (
        _grid(family=["trees"], n=[5, 6], alpha=ALPHAS, concept=CONCEPTS)
        + _grid(family=[None, "graphs"], n=[5], alpha=ALPHAS,
                concept=CONCEPTS)
        + _grid(family=["graphs"], n=[5], m=range(4, 11), alpha=ALPHAS,
                concept=CONCEPTS[:2])
        + _grid(family=["labelled_trees"], n=[5], alpha=ALPHAS,
                concept=CONCEPTS, traffic=[UNIFORM, GRAVITY])
    ),
}

TRIAL_DIGESTS = {
    "tree_poa": (
        "342a8b667516a0c8f39fe6abc9c1c32fd0732f313fd3688a33fcb7aa4e4441b1"
    ),
    "graph_poa": (
        "aca14e389257c7457c97d552ab21857ef7e36fbd96d2256ae5002245646ff21f"
    ),
    "weighted_poa": (
        "976e3b62c06c6f3f0c3a5a21a3d75936b07ae271f1387335837c531eff7dbc24"
    ),
    "generalized_poa": (
        "777bb0b4680c72c3d40e4b9ee15339a77bcb4bc51cff096f864078669e6bcbb0"
    ),
    "exact_poa": (
        "61287d27507612314b67965fe90b1701042c92127852b36d732553e400a1c412"
    ),
}


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("kind", sorted(TRIAL_GRIDS))
def test_trial_results_digest(kind):
    results = [
        to_jsonable(execute_trial(kind, params, base_seed=0))
        for params in TRIAL_GRIDS[kind]
    ]
    assert _digest(results) == TRIAL_DIGESTS[kind]


def _resized(name: str, n: int, m_stop: int | None = None) -> CampaignSpec:
    """A committed spec with every grid and the report moved to ``n``."""
    payload = json.loads((CAMPAIGNS_DIR / f"{name}.json").read_text())
    for grid in payload["grids"]:
        grid["n"] = n
        if "m" in grid:
            grid["m"] = {"$range": [n - 1, m_stop]}
    payload["report"]["options"]["n"] = n
    return CampaignSpec.from_dict(payload)


def _spec(name: str) -> CampaignSpec:
    if name == "cooperation_ladder":
        return _resized(name, 7)
    if name == "exact_poa":
        return _resized(name, 6, m_stop=16)
    return CampaignSpec.load(CAMPAIGNS_DIR / f"{name}.json")


REPORT_DIGESTS = {
    "smoke": (
        "35a8476bae79a083de3b64de61adddb19db3fd94e5688602bb9e17a7beda59f9"
    ),
    "traffic_regimes": (
        "88e0edb605c9369580044ee534d31e40457e6972ce055c0f5990a9d369741cdd"
    ),
    "generalized_regimes": (
        "3c39ac24c0596006523dcfa0f97311aebbda23891917b5f6d9bbc7d225e33a01"
    ),
    "poa_scaling": (
        "ba6f20609d4d8ecc73d73f505658a6d9e410e1ceed59091b88e520eb7c5b1561"
    ),
    "cooperation_ladder": (
        "c408010a33ec797aa05181d5987680839520bb202a67ca2a414531639b1cdf2c"
    ),
    "exact_poa": (
        "dc88ffe8123dd7831b28787a5b0a6fe14b27e11c209ae67e84b82544d6771139"
    ),
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_committed_report_digest(name):
    spec = _spec(name)
    store = CampaignStore(None)
    assert run_campaign(spec, store).failed == 0
    report = render_report(spec, store)
    assert "?" not in report
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_DIGESTS[name]
