"""Byte-identity pins across every cost regime.

Two SHA-256 digests freeze the observable behaviour of the whole stack
under every regime the repo serves — the paper's game, uniform traffic
spelled out, sparse demands with zeros, gravity demands, and the
concave / convex / max / table cost models with and without demands:

* the verdict of every polynomial and exponential checker (RE, BAE, PS,
  BSwE, BGE, BNE, unilateral AE, 2-BSE) plus the social cost, on all 30
  connected graphs with 2 to 5 nodes, at three edge prices — and, in a
  second digest, on all 21 disconnected graphs with 2 to 5 nodes, where
  a max aggregate may already sit at the sentinel;
* whole best-improvement trajectories (moves, final graph, social cost
  trace, convergence flags) of 15 seeded dynamics runs per regime,
  including max-model runs started from a disconnected graph.

The digests were computed before the regime arms were collapsed into one
valuation; any change to a verdict, a cost or a trajectory moves them.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import networkx as nx
import pytest

from repro.core.concepts import Concept
from repro.core.costmodel import (
    ConcaveCost,
    ConvexCost,
    LinearCost,
    MaxCost,
    TableCost,
)
from repro.core.state import GameState
from repro.core.traffic import TrafficMatrix
from repro.equilibria.registry import check

from tests.reference import dynamics_trace

CONCEPTS = (
    (Concept.RE, None),
    (Concept.BAE, None),
    (Concept.PS, None),
    (Concept.BSWE, None),
    (Concept.BGE, None),
    (Concept.BNE, None),
    (Concept.UNILATERAL_AE, None),
    (Concept.BSE, 2),
)

ALPHAS = (Fraction(1, 2), Fraction(2), Fraction(5))


def _sparse(n):
    return TrafficMatrix.random_demands(n, seed=11, high=3, density=0.6)


def _gravity(n):
    return TrafficMatrix.gravity(range(1, n + 1))


#: name -> n -> (traffic, cost_model)
REGIMES = {
    "none": lambda n: (None, None),
    "uniform-linear": lambda n: (TrafficMatrix.uniform(n), LinearCost()),
    "sparse": lambda n: (_sparse(n), None),
    "gravity": lambda n: (_gravity(n), None),
    "concave": lambda n: (None, ConcaveCost(Fraction(1, 2), scale=2)),
    "concave-gravity": lambda n: (
        _gravity(n), ConcaveCost(Fraction(1, 2), scale=2)
    ),
    "convex": lambda n: (None, ConvexCost(2)),
    "convex-sparse": lambda n: (_sparse(n), ConvexCost(2)),
    "max": lambda n: (None, MaxCost()),
    "max-gravity": lambda n: (_gravity(n), MaxCost()),
    "table": lambda n: (None, TableCost([0, 1, 3, 4, 8])),
    "table-sparse": lambda n: (_sparse(n), TableCost([0, 1, 3, 4, 8])),
}


def connected_graphs():
    """All 30 connected graphs on 2..5 nodes, in atlas order."""
    return [
        graph
        for graph in nx.graph_atlas_g()
        if 2 <= graph.number_of_nodes() <= 5 and nx.is_connected(graph)
    ]


def disconnected_graphs():
    """All 21 disconnected graphs on 2..5 nodes, in atlas order."""
    return [
        graph
        for graph in nx.graph_atlas_g()
        if 2 <= graph.number_of_nodes() <= 5 and not nx.is_connected(graph)
    ]


def _verdict(state, concept, k):
    try:
        return repr(check(state, concept, k))
    except Exception as exc:  # an error is an output too
        return type(exc).__name__


def checker_digest(graphs) -> tuple[str, int]:
    digest = hashlib.sha256()
    checks = 0
    for index, graph in enumerate(graphs):
        n = graph.number_of_nodes()
        for name, build in REGIMES.items():
            traffic, cost_model = build(n)
            for alpha in ALPHAS:
                state = GameState(
                    graph, alpha, traffic=traffic, cost_model=cost_model
                )
                record = [index, name, str(alpha), str(state.social_cost())]
                for concept, k in CONCEPTS:
                    record.append(_verdict(state, concept, k))
                    checks += 1
                digest.update(repr(record).encode())
    return digest.hexdigest(), checks


TRACE_REGIMES = (
    "uniform",
    "weighted",
    "modeled",
    "max",
    "concave",
    "sparse",
    "disconnected-max",
    "disconnected-gravity-max",
)
TRACE_SEEDS = 15


def trace_digest(regime: str) -> str:
    digest = hashlib.sha256()
    for seed in range(TRACE_SEEDS):
        digest.update(repr(dynamics_trace(seed, regime)).encode())
    return digest.hexdigest()


CHECKER_DIGEST = (
    "a466cc835699a9929c24e30b2197b567d1f9de937f0ff36d8d786b32124d363c"
)

DISCONNECTED_CHECKER_DIGEST = (
    "cf723fcd9a5d5888237dc19ae2d4d6d23e2c19dcec6825575f5e4fdb3a9613fd"
)

TRACE_DIGESTS = {
    "uniform": (
        "06e2b0664a9304193ed3083ba2fa138e1bb7332d4ca624e922ad4853fc69e488"
    ),
    "weighted": (
        "7153c3cb357c785a82448be8003962ce1af0903161983eb25f03bfffc71d1d9d"
    ),
    "modeled": (
        "f940ffceb4ac4297a5a12f487607ff242c3ad24dbe522968ec94383c2a9ccbd7"
    ),
    "max": (
        "22730428b7f903815053e7302f3fcaaed586f7735cc68b0b075d7f1ffe5c14a7"
    ),
    "concave": (
        "44484a4b4e5f6f5076d0d044962e163e5811f77122b2c0d874e279046a95dd80"
    ),
    "sparse": (
        "93e738ce250642883dee8cc830532be3e6cd65e5435d5cda6d932640e1803b43"
    ),
    "disconnected-max": (
        "abee4078054c2c2120c09a600b52afba3164f360c200bd5e23351b43f1e712d3"
    ),
    "disconnected-gravity-max": (
        "8887d60054e49952fd49f221ad71d8ff6df87315f2f5cbe98ffe0f432e77f130"
    ),
}


def test_connected_graph_family():
    graphs = connected_graphs()
    assert len(graphs) == 30
    assert sorted({g.number_of_nodes() for g in graphs}) == [2, 3, 4, 5]


def test_disconnected_graph_family():
    graphs = disconnected_graphs()
    assert len(graphs) == 21
    assert sorted({g.number_of_nodes() for g in graphs}) == [2, 3, 4, 5]


def test_checker_verdicts_and_costs_pinned():
    digest, checks = checker_digest(connected_graphs())
    assert checks == 30 * len(REGIMES) * len(ALPHAS) * len(CONCEPTS) == 8640
    assert digest == CHECKER_DIGEST


def test_disconnected_checker_verdicts_and_costs_pinned():
    digest, checks = checker_digest(disconnected_graphs())
    assert checks == 21 * len(REGIMES) * len(ALPHAS) * len(CONCEPTS) == 6048
    assert digest == DISCONNECTED_CHECKER_DIGEST


@pytest.mark.parametrize("regime", TRACE_REGIMES)
def test_dynamics_traces_pinned(regime):
    assert trace_digest(regime) == TRACE_DIGESTS[regime]
