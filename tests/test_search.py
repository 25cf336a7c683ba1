"""Tests for the witness searches (repro.analysis.search)."""

from fractions import Fraction

import pytest

from repro.analysis.search import (
    ConjectureSweepResult,
    classify_re_bae_bswe,
    exhaustive_conjecture_sweep,
    search_nash_not_pairwise_stable,
    search_venn_witnesses,
)
from repro.core.state import GameState
from repro.equilibria.nash import EdgeAssignment, is_nash_equilibrium
from repro.equilibria.pairwise import is_pairwise_stable
import networkx as nx


class TestClassify:
    def test_star_above_one(self):
        state = GameState(nx.star_graph(4), 2)
        assert classify_re_bae_bswe(state) == (True, True, True)

    def test_triangle_high_alpha(self):
        state = GameState(nx.complete_graph(3), 10)
        re, bae, bswe = classify_re_bae_bswe(state)
        assert not re  # dropping a triangle edge saves alpha, costs 1
        assert bae


class TestNashSearch:
    @pytest.mark.slow
    def test_finds_witness_on_five_nodes(self):
        witnesses = search_nash_not_pairwise_stable(
            sizes=(5,), max_results=1
        )
        assert witnesses
        first = witnesses[0]
        state = GameState(first.graph, first.alpha)
        assert is_nash_equilibrium(state, first.assignment)
        assert not is_pairwise_stable(state)

    @pytest.mark.slow
    def test_weak_edge_is_reported_correctly(self):
        witnesses = search_nash_not_pairwise_stable(
            sizes=(5,), max_results=2
        )
        for witness in witnesses:
            actor, other = witness.weak_edge
            assert witness.graph.has_edge(actor, other)


#: the one refutation certificate shared by the two n = 6 cells
_CERTIFICATE_6 = {
    "witness_key": "14ea96c62fc511cd71230e266470e387",
    "edges": [[0, 1], [0, 4], [0, 5], [1, 2], [2, 3], [3, 4], [3, 5]],
    "owners": [[0, 1], [1, 2], [2, 3], [4, 0], [4, 3], [5, 0], [5, 3]],
    "ne_assignments": 4,
    "break_type": "RemoveEdge",
    "break": "RemoveEdge(actor=0, other=4)",
}

#: whole sweep results: candidates / feasible / NE graphs / NE
#: assignments / counterexamples, plus every certificate
SWEEP_PINS = {
    (5, Fraction(2)): ConjectureSweepResult(
        n=5, alpha=Fraction(2), candidates=21, feasible_graphs=5,
        ne_graphs=5, ne_assignments=72, counterexample_graphs=1,
        certificates=({
            "witness_key": "d686410718ef1b1c525caac73e84006f",
            "edges": [[0, 1], [0, 2], [0, 4], [1, 2], [2, 3]],
            "owners": [[0, 2], [0, 4], [1, 0], [1, 2], [2, 3]],
            "ne_assignments": 2,
            "break_type": "RemoveEdge",
            "break": "RemoveEdge(actor=0, other=1)",
        },),
    ),
    (6, Fraction(5, 2)): ConjectureSweepResult(
        n=6, alpha=Fraction(5, 2), candidates=112, feasible_graphs=3,
        ne_graphs=2, ne_assignments=36, counterexample_graphs=1,
        certificates=(_CERTIFICATE_6,),
    ),
    (6, Fraction(3)): ConjectureSweepResult(
        n=6, alpha=Fraction(3), candidates=112, feasible_graphs=5,
        ne_graphs=4, ne_assignments=50, counterexample_graphs=1,
        certificates=(_CERTIFICATE_6,),
    ),
}


class TestConjectureSweepPins:
    """Both NE-assignment enumerations, pinned whole: the sweep's
    counts and certificates per cell, and the default witness search's
    graph, assignment, alpha and weak edge."""

    @pytest.mark.slow
    @pytest.mark.parametrize("cell", sorted(SWEEP_PINS))
    def test_sweep_result(self, cell):
        assert exhaustive_conjecture_sweep(*cell) == SWEEP_PINS[cell]

    def test_default_witness(self):
        (witness,) = search_nash_not_pairwise_stable()
        assert sorted(witness.graph.edges) == [
            (0, 1), (0, 2), (0, 4), (1, 2), (2, 3),
        ]
        assert witness.assignment == EdgeAssignment(owner={
            (0, 1): 1, (0, 2): 0, (0, 4): 0, (1, 2): 1, (2, 3): 2,
        })
        assert witness.alpha == 2 and isinstance(witness.alpha, Fraction)
        assert witness.weak_edge == (0, 1)


class TestVennSearch:
    def test_small_search_is_sound(self):
        found = search_venn_witnesses(
            sizes=(3, 4), alphas=(Fraction(1, 2), 1, 2)
        )
        for region, (graph, alpha) in found.items():
            assert classify_re_bae_bswe(GameState(graph, alpha)) == region

    @pytest.mark.slow
    def test_full_search_covers_all_regions(self):
        found = search_venn_witnesses(sizes=(3, 4, 5, 6, 7))
        assert len(found) == 8
