"""The stacked RE / BAE / PS kernel against the per-instance checkers.

:func:`repro.equilibria.stack.price_stack` decides RE, BAE and PS and
sums every agent's value for a whole adjacency stack.  The oracle is the
per-instance path: a :class:`GameState` per class, the registry's
``check`` and ``GameState.social_cost``.  Every class with ``n <= 7``
(atlas graphs, trees, and the edge-count layers at n = 6 and 7) is
compared at seven edge prices in seven cost regimes.  The PoA scan's
reduction is compared with the per-instance reduction across stack
boundaries, and the PS gate in front of the BGE and k-BSE checkers is
checked for exactness and for its call count.
"""

from __future__ import annotations

import json
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

import repro.analysis.poa as poa
from repro.analysis.poa import family_poa
from repro.core.concepts import Concept
from repro.core.costmodel import ConcaveCost, ConvexCost, MaxCost, bind_valuation
from repro.core.state import GameState
from repro.core.traffic import TrafficMatrix
from repro.equilibria.registry import check
from repro.equilibria.stack import price_stack, stack_size
from repro.graphs.canonical import adjacency_stack, decode_key
from repro.graphs.enumerate import connected_graph_layer, max_edge_count
from repro.graphs.generation import all_connected_graphs, all_trees
from repro.obs import trace

ALPHAS = tuple(
    Fraction(value) for value in ("1/2", "1", "3/2", "2", "3", "5", "40")
)

REGIMES = (
    "uniform", "gravity", "broadcast", "max", "concave", "convex-gravity",
    "max-broadcast",
)


def _regime(name: str, n: int):
    """``(traffic, cost_model)`` of one regime at ``n`` agents."""
    gravity = TrafficMatrix.gravity([u % 3 + 1 for u in range(n)])
    broadcast = TrafficMatrix.broadcast(n, [0])
    return {
        "uniform": (None, None),
        "gravity": (gravity, None),
        "broadcast": (broadcast, None),
        "max": (None, MaxCost()),
        "concave": (None, ConcaveCost()),
        "convex-gravity": (gravity, ConvexCost(2)),
        "max-broadcast": (broadcast, MaxCost()),
    }[name]


#: regimes whose demands see labels; in the others the atlas graphs and
#: a layer's canonical representatives are the same classes at the same
#: prices
LABELLED = ("gravity", "broadcast", "convex-gravity", "max-broadcast")


def _stacks(n: int, regime: str):
    """``(family, graphs, adjacency)`` runs of one edge count: the atlas
    graphs, the trees, and (n >= 6) every layer, built here from
    networkx adjacency matrices and, for layers, from the keys.  At
    n = 7 the atlas runs only where labels matter."""
    runs = []
    families = [("trees", list(all_trees(n)))]
    if n < 7 or regime in LABELLED:
        families.append(("atlas", list(all_connected_graphs(n))))
    for family, graphs in families:
        for m in sorted({graph.number_of_edges() for graph in graphs}):
            group = [g for g in graphs if g.number_of_edges() == m]
            stack = np.array([
                nx.to_numpy_array(g, nodelist=range(n), dtype=bool)
                for g in group
            ])
            runs.append((family, group, stack))
    if n >= 6:
        for m in range(n - 1, max_edge_count(n) + 1):
            keys = connected_graph_layer(n, m)
            graphs = [decode_key(key)[0] for key in keys]
            runs.append((f"layer {m}", graphs, adjacency_stack(keys)))
    return runs


def _compare(n: int, regime: str) -> int:
    traffic, cost_model = _regime(regime, n)
    compared = 0
    for family, graphs, stack in _stacks(n, regime):
        for alpha in ALPHAS:
            prices = price_stack(
                stack, alpha, *bind_valuation(n, alpha, traffic, cost_model)
            )
            for i, graph in enumerate(graphs):
                state = GameState(
                    graph, alpha, traffic=traffic, cost_model=cost_model
                )
                where = (family, i, sorted(graph.edges), alpha)
                assert prices.remove[i] == check(state, Concept.RE), where
                assert prices.add[i] == check(state, Concept.BAE), where
                assert prices.pairwise[i] == check(state, Concept.PS), where
                cost = 2 * alpha * graph.number_of_edges() + prices.totals[i]
                assert cost == state.social_cost(), where
                compared += 1
    return compared


@pytest.mark.parametrize("regime", REGIMES)
def test_kernel_matches_checkers_up_to_n6(regime):
    assert _compare(1, regime) + _compare(2, regime) > 0
    for n in range(3, 7):
        assert _compare(n, regime)


@pytest.mark.parametrize("regime", REGIMES)
def test_kernel_matches_checkers_at_n7(regime):
    # 11 trees, the 853 layer classes and, where labels matter, the 853
    # atlas graphs
    atlas = 853 if regime in LABELLED else 0
    assert _compare(7, regime) == (11 + 853 + atlas) * len(ALPHAS)


def test_empty_edge_and_pair_sets():
    # n = 1 has no edge and no pair; n = 2 has one edge and no free pair
    for n, stack in ((1, np.zeros((1, 1, 1), bool)),
                     (2, np.array([[[False, True], [True, False]]]))):
        prices = price_stack(stack, Fraction(1), *bind_valuation(n, 1))
        assert prices.pairwise.tolist() == [True]
        assert prices.totals.tolist() == [0 if n == 1 else 2]


def test_unequal_edge_counts_rejected():
    stack = np.array([
        nx.to_numpy_array(g, nodelist=range(4), dtype=bool)
        for g in (nx.path_graph(4), nx.cycle_graph(4))
    ])
    with pytest.raises(ValueError, match="equal edge counts"):
        price_stack(stack, Fraction(2), *bind_valuation(4, 2))


# -- the PoA scan ------------------------------------------------------------


def _reference_poa(graphs, n, alpha, concept, k, traffic, cost_model):
    """The per-instance PoA reduction, a state and a checker per class:
    ``(poa, witness edges, equilibria, candidates, best cost)``."""
    relative = traffic is not None or cost_model is not None
    worst = best = witness = None
    equilibria = candidates = 0
    for graph in graphs:
        state = GameState(graph, alpha, traffic=traffic, cost_model=cost_model)
        stable = check(state, concept, k=k)
        candidates += 1
        if relative:
            cost = state.social_cost()
            if best is None or cost < best:
                best = cost
        if not stable:
            continue
        equilibria += 1
        value = cost if relative else state.rho()
        if worst is None or value > worst:
            worst, witness = value, sorted(state.graph.edges)
    poa_value = worst if not relative or worst is None else worst / best
    return poa_value, witness, equilibria, candidates, best


def _outcome(result):
    witness = result.witness
    return (
        result.poa,
        None if witness is None else sorted(witness.edges),
        result.equilibria,
        result.candidates,
        result.best_cost,
    )


@pytest.mark.parametrize(
    "concept", [Concept.RE, Concept.BAE, Concept.PS, Concept.BGE,
                Concept.BSWE],
)
@pytest.mark.parametrize("regime", ["uniform", "gravity", "max-broadcast"])
def test_layer_past_one_stack_reduces_like_per_instance(concept, regime):
    n, m = 7, 10
    keys = connected_graph_layer(n, m)
    assert len(keys) > stack_size(n)  # the layer spans two stacks
    traffic, cost_model = _regime(regime, n)
    for alpha in (Fraction(1), Fraction(2), Fraction(5)):
        got = family_poa(
            "graphs", n, alpha, concept, m=m,
            traffic=traffic, cost_model=cost_model,
        )
        assert _outcome(got) == _reference_poa(
            (decode_key(key)[0] for key in keys), n, alpha, concept, None,
            traffic, cost_model,
        )


@pytest.mark.parametrize("family", ["trees", "graphs"])
@pytest.mark.parametrize(
    "concept, k", [(Concept.RE, None), (Concept.PS, None),
                   (Concept.BGE, None), (Concept.BGE, 2)],
)
def test_family_scan_matches_per_instance(family, concept, k):
    n = 6 if k is None else 5
    graphs = list(poa.family_graphs(family, n))
    for alpha in ALPHAS:
        got = family_poa(family, n, alpha, concept, k)
        assert _outcome(got) == _reference_poa(
            graphs, n, alpha, concept, k, None, None
        )
        if got.witness is not None:
            reference = next(
                g for g in graphs
                if sorted(g.edges) == sorted(got.witness.edges)
            )
            assert nx.utils.graphs_equal(got.witness, reference)


def test_labelled_trees_match_per_instance():
    n = 6
    traffic = TrafficMatrix.gravity([3, 1, 2, 1, 1, 2])
    graphs = list(poa.family_graphs("labelled_trees", n, traffic=traffic))
    for alpha in (Fraction(1, 2), Fraction(2), Fraction(5)):
        got = family_poa("labelled_trees", n, alpha, Concept.PS,
                         traffic=traffic, cost_model=MaxCost())
        assert _outcome(got) == _reference_poa(
            graphs, n, alpha, Concept.PS, None, traffic, MaxCost()
        )


def test_worst_equilibria_match_per_instance():
    for trees_only in (True, False):
        ranked = poa.worst_equilibria(6, 2, Concept.PS, top=5,
                                      trees_only=trees_only)
        family = "trees" if trees_only else "graphs"
        scored = []
        for graph in poa.family_graphs(family, 6):
            state = GameState(graph, 2)
            if check(state, Concept.PS):
                scored.append((state.rho(), sorted(state.graph.edges)))
        scored.sort(key=lambda item: item[0], reverse=True)
        assert [(r, sorted(g.edges)) for r, g in ranked] == scored[:5]


def test_bad_inputs_raise_like_per_instance():
    with pytest.raises(ValueError, match="n must be positive"):
        family_poa("graphs", 0, 2, Concept.PS)
    with pytest.raises(ValueError, match="alpha must be positive"):
        family_poa("trees", 5, 0, Concept.PS)
    with pytest.raises(ValueError, match="traffic matrix is for n=4"):
        family_poa("trees", 5, 2, Concept.PS,
                   traffic=TrafficMatrix.uniform(4))


# -- the PS gate -------------------------------------------------------------


@pytest.mark.parametrize("regime", ["uniform", "gravity", "max", "concave"])
def test_bge_and_kbse_imply_ps(regime):
    # the gate's premise, over every class with n <= 6 (2-BSE to n = 5,
    # BSE to n = 4)
    for n in range(3, 7):
        traffic, cost_model = _regime(regime, n)
        for graph in all_connected_graphs(n):
            for alpha in (Fraction(1, 2), Fraction(1), Fraction(2),
                          Fraction(3), Fraction(5)):
                state = GameState(
                    graph, alpha, traffic=traffic, cost_model=cost_model
                )
                if check(state, Concept.PS):
                    continue
                assert not check(state, Concept.BGE)
                if n <= 5:
                    assert not check(state, Concept.BSE, k=2)
                if n <= 4:
                    assert not check(state, Concept.BSE)


def test_gated_layer_checks_each_ps_stable_class_once(monkeypatch):
    n, m, alpha = 7, 9, Fraction(2)
    calls = []

    def counting(state, concept, k=None):
        calls.append(concept)
        return check(state, concept, k=k)

    pairwise = family_poa("graphs", n, alpha, Concept.PS, m=m)
    assert pairwise.equilibria
    monkeypatch.setattr(poa, "check", counting)
    repeat = family_poa("graphs", n, alpha, Concept.PS, m=m)
    assert _outcome(repeat) == _outcome(pairwise)
    assert calls == []
    greedy = family_poa("graphs", n, alpha, Concept.BGE, m=m)
    assert calls == [Concept.BGE] * pairwise.equilibria
    assert _outcome(greedy) == _reference_poa(
        (decode_key(key)[0] for key in connected_graph_layer(n, m)),
        n, alpha, Concept.BGE, None, None, None,
    )


def test_one_trace_span_per_stack(tmp_path):
    sink = tmp_path / "trace.jsonl"
    n, m, alpha = 7, 10, Fraction(2)
    trace.enable_trace(sink)
    try:
        result = family_poa("graphs", n, alpha, Concept.PS, m=m)
    finally:
        trace.disable_trace()
    spans = [
        record for record in map(json.loads, sink.read_text().splitlines())
        if record["span"] == "poa.stack"
    ]
    size = stack_size(n)
    layer = len(connected_graph_layer(n, m))
    assert [span["classes"] for span in spans] == [
        min(size, layer - start) for start in range(0, layer, size)
    ]
    assert {span["n"] for span in spans} == {n}
    assert sum(span["stable"] for span in spans) == result.equilibria
