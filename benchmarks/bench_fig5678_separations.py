"""Figures 5-8: the four separating examples of Section 2 / Appendix A.

Each figure graph is rebuilt from the paper's stated quantities and every
claim its proof makes is re-derived:

* Figure 5 — in BAE and BGE, not in BNE (the 104 vs 104.5 vs 105 gaps);
* Figure 6 — in BNE (exact exhaustive check), not in 2-BSE;
* Figure 7 — the center's neighborhood move improves everyone it needs to,
  while a scaled-down instance is certified 2-BSE;
* Figure 8 — in BAE, but an agent would unilaterally buy an edge.
"""

from repro.analysis.tables import render_table
from repro.constructions.figures import (
    figure5_bae_bge_not_bne,
    figure6_bne_not_2bse,
    figure7_kbse_not_bne,
    figure8_bae_not_unilateral_ae,
)
from repro.core.costs import all_strictly_improve
from repro.core.moves import NeighborhoodMove
from repro.core.state import GameState
from repro.equilibria.add import (
    add_gain,
    is_bilateral_add_equilibrium,
    is_unilateral_add_equilibrium,
)
from repro.equilibria.neighborhood import is_neighborhood_equilibrium
from repro.equilibria.pairwise import is_bilateral_greedy_equilibrium
from repro.equilibria.strong import (
    find_improving_coalition_move,
    is_k_strong_equilibrium,
)
from repro.equilibria.swap import swap_gains

from _harness import emit, once


def test_fig5(benchmark):
    def run():
        fig = figure5_bae_bge_not_bne()
        state = GameState(fig.graph, fig.alpha)
        a, b1, c1 = fig.node("a"), fig.node("b1"), fig.node("c1")
        _, single_gain = swap_gains(state, a, b1, c1)
        move = NeighborhoodMove(
            center=a,
            removed=(b1, fig.node("b2")),
            added=(c1, fig.node("c2")),
        )
        after = GameState(move.apply(state.graph), fig.alpha)
        return [
            ["n", state.n],
            ["alpha", float(fig.alpha)],
            ["in BAE", is_bilateral_add_equilibrium(state)],
            ["in BGE", is_bilateral_greedy_equilibrium(state)],
            ["single-swap gain for c1 (paper: 104)", single_gain],
            ["double-swap gain for c1 (paper: 105)",
             state.dist_cost(c1) - after.dist_cost(c1)],
            ["double swap improves a and both c's",
             all_strictly_improve(state, after.graph, move.beneficiaries())],
        ]

    rows = once(benchmark, run)
    emit(
        "fig5_bne_gap",
        render_table(["quantity", "value"], rows,
                     title="Figure 5 / Prop A.4 -- BAE and BGE but not BNE"),
    )
    outcome = dict((k, v) for k, v in rows)
    assert outcome["in BAE"] and outcome["in BGE"]
    assert outcome["single-swap gain for c1 (paper: 104)"] == 104
    assert outcome["double-swap gain for c1 (paper: 105)"] == 105
    assert outcome["double swap improves a and both c's"]


def test_fig6(benchmark):
    def run():
        fig = figure6_bne_not_2bse()
        state = GameState(fig.graph, fig.alpha)
        move = find_improving_coalition_move(state, 2)
        return fig, state, move

    fig, state, move = once(benchmark, run)
    rows = [
        ["dist(a1) (paper: 19)", state.dist_cost(fig.node("a1"))],
        ["dist(b1) (paper: 27)", state.dist_cost(fig.node("b1"))],
        ["dist(c1) (paper: 19)", state.dist_cost(fig.node("c1"))],
        ["in BNE (exact)", is_neighborhood_equilibrium(state)],
        ["2-BSE break coalition", str(sorted(move.coalition))],
    ]
    emit(
        "fig6_bne_not_2bse",
        render_table(["quantity", "value"], rows,
                     title="Figure 6 / Prop A.5 -- BNE but not 2-BSE"),
    )
    assert state.dist_cost(fig.node("a1")) == 19
    assert state.dist_cost(fig.node("b1")) == 27
    assert is_neighborhood_equilibrium(state)
    assert move is not None
    assert set(move.coalition) == {fig.node("a1"), fig.node("a3")}


def test_fig7(benchmark):
    def run():
        i = 8
        fig = figure7_kbse_not_bne(i=i)
        state = GameState(fig.graph, fig.alpha)
        move = NeighborhoodMove(
            center=fig.node("a"),
            removed=tuple(fig.node(f"b{j}") for j in range(1, i + 1)),
            added=tuple(fig.node(f"c{j}") for j in range(1, i + 1)),
        )
        after = move.apply(state.graph)
        bne_break = all_strictly_improve(state, after, move.beneficiaries())
        two_bse = is_k_strong_equilibrium(
            state, 2, max_evaluations=50_000_000
        )
        return [
            ["i (legs)", i],
            ["alpha = 4i - 4", float(fig.alpha)],
            ["n = 3i + 1", state.n],
            ["center's neighborhood move improves all", bne_break],
            ["2-BSE stable (exact)", two_bse],
        ]

    rows = once(benchmark, run)
    emit(
        "fig7_kbse_not_bne",
        render_table(["quantity", "value"], rows,
                     title="Figure 7 / Prop A.7 -- k-BSE but not BNE "
                     "(scaled-down instance, i = 8)"),
    )
    outcome = dict((k, v) for k, v in rows)
    assert outcome["center's neighborhood move improves all"]
    assert outcome["2-BSE stable (exact)"]


def test_fig8(benchmark):
    def run():
        fig = figure8_bae_not_unilateral_ae()
        state = GameState(fig.graph, fig.alpha)
        return [
            ["n", state.n],
            ["alpha", float(fig.alpha)],
            ["in BAE", is_bilateral_add_equilibrium(state)],
            ["in unilateral AE", is_unilateral_add_equilibrium(state)],
            ["a1's solo gain from a1-d",
             add_gain(state, fig.node("a1"), fig.node("d"))],
            ["d's gain from a1-d (paper: 2)",
             add_gain(state, fig.node("d"), fig.node("a1"))],
        ]

    rows = once(benchmark, run)
    emit(
        "fig8_bae_not_ae",
        render_table(["quantity", "value"], rows,
                     title="Figure 8 / Prop 2.1 -- BAE but not unilateral "
                     "AE"),
    )
    outcome = dict((k, v) for k, v in rows)
    assert outcome["in BAE"]
    assert not outcome["in unilateral AE"]
    assert outcome["a1's solo gain from a1-d"] > 4.5
    assert outcome["d's gain from a1-d (paper: 2)"] == 2
