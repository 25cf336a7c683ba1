"""Empirical Price of Anarchy: exhaustive worst cases and certified bounds.

Small instances allow the real thing: enumerate *all* non-isomorphic trees
(or connected graphs), keep those passing a concept's exact checker, and
take the worst social cost ratio.  That is the PoA by definition, not an
estimate.  Larger instances use the paper's own reductions (Lemma 3.17 /
3.18) to produce certified upper bounds.

Enumeration rides the canonical-key machinery of
:mod:`repro.graphs.canonical` / :mod:`repro.graphs.enumerate`: connected
graphs reach n = 8-9 (past the networkx atlas), :func:`empirical_layer_poa`
scans one edge-count layer — the unit of campaign-level resume — and
:func:`exact_weighted_tree_poa` quantifies over **all labelled trees**
modulo the joint ``(tree, W)`` symmetries, settling the weighted tree PoA
exactly rather than over one representative per unlabelled class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import networkx as nx

from repro._alpha import AlphaLike, as_alpha
from repro.analysis.bounds import proposition_3_1_bound
from repro.constructions.basic import almost_complete_dary_tree
from repro.core.concepts import Concept
from repro.core.costmodel import CostModel
from repro.core.costs import max_agent_cost
from repro.core.state import GameState
from repro.core.traffic import TrafficMatrix
from repro.equilibria.registry import check
from repro.graphs.generation import all_connected_graphs, all_trees

__all__ = [
    "PoAResult",
    "WeightedPoAResult",
    "bse_upper_bound_via_dary_tree",
    "empirical_layer_poa",
    "empirical_poa",
    "empirical_tree_poa",
    "empirical_weighted_poa",
    "exact_weighted_tree_poa",
    "worst_equilibria",
]


@dataclass(frozen=True)
class PoAResult:
    """Worst-case ratio over an enumerated family, with the witness."""

    n: int
    alpha: Fraction
    concept: Concept
    k: int | None
    poa: Fraction | None  # None when no equilibrium exists in the family
    witness: nx.Graph | None
    equilibria: int
    candidates: int


def _scan(
    graphs: Iterable[nx.Graph],
    alpha: Fraction,
    concept: Concept,
    k: int | None,
    n: int,
) -> PoAResult:
    worst: Fraction | None = None
    witness: nx.Graph | None = None
    equilibria = 0
    candidates = 0
    for graph in graphs:
        candidates += 1
        state = GameState(graph, alpha)
        if not check(state, concept, k=k):
            continue
        equilibria += 1
        rho = state.rho()
        if worst is None or rho > worst:
            worst = rho
            witness = state.graph.copy()
    return PoAResult(
        n=n,
        alpha=alpha,
        concept=concept,
        k=k,
        poa=worst,
        witness=witness,
        equilibria=equilibria,
        candidates=candidates,
    )


def empirical_tree_poa(
    n: int, alpha: AlphaLike, concept: Concept, k: int | None = None
) -> PoAResult:
    """Exact PoA restricted to tree equilibria on ``n`` nodes.

    Enumerates every non-isomorphic tree; feasible up to ``n ~ 13``
    (1301 trees) for the polynomial concepts, less for BNE/k-BSE.
    """
    price = as_alpha(alpha)
    return _scan(all_trees(n), price, concept, k, n)


def empirical_poa(
    n: int, alpha: AlphaLike, concept: Concept, k: int | None = None
) -> PoAResult:
    """Exact PoA over *all* connected graphs on ``n`` nodes.

    Atlas-backed to ``n = 7``; the canonical-key layered enumerator
    carries the sweep to ``n = 8`` in seconds and ``n = 9`` in minutes.
    """
    price = as_alpha(alpha)
    return _scan(all_connected_graphs(n), price, concept, k, n)


def empirical_layer_poa(
    n: int,
    m: int,
    alpha: AlphaLike,
    concept: Concept,
    k: int | None = None,
) -> PoAResult:
    """Exact PoA over connected graphs with exactly ``m`` edges.

    One edge-count layer of the canonical enumerator — the resume unit
    of the ``exact_poa`` campaign runner: the full-graph PoA at ``n`` is
    the max over its layers ``m = n-1 .. n(n-1)/2``, and each layer is a
    content-addressed trial that survives being killed independently.
    """
    from repro.graphs.canonical import decode_key
    from repro.graphs.enumerate import connected_graph_layer

    price = as_alpha(alpha)
    graphs = (
        decode_key(key)[0] for key in connected_graph_layer(n, m)
    )
    return _scan(graphs, price, concept, k, n)


def worst_equilibria(
    n: int,
    alpha: AlphaLike,
    concept: Concept,
    k: int | None = None,
    top: int = 3,
    trees_only: bool = True,
) -> list[tuple[Fraction, nx.Graph]]:
    """The ``top`` worst equilibria (ratio, graph), descending."""
    price = as_alpha(alpha)
    graphs = all_trees(n) if trees_only else all_connected_graphs(n)
    scored: list[tuple[Fraction, nx.Graph]] = []
    for graph in graphs:
        state = GameState(graph, price)
        if check(state, concept, k=k):
            scored.append((state.rho(), state.graph.copy()))
    scored.sort(key=lambda item: item[0], reverse=True)
    return scored[:top]


@dataclass(frozen=True)
class WeightedPoAResult:
    """Family-relative worst-case ratio under a heterogeneous demand matrix.

    The uniform game has a closed-form optimum; a weighted game does
    not, and demands break label symmetry, so the ratio here is
    *family-relative*: worst equilibrium social cost over the **minimum
    social cost in the enumerated family** (a certified lower bound on
    the true weighted PoA — the enumeration quantifies over one labelled
    representative per isomorphism class).
    """

    n: int
    alpha: Fraction
    concept: Concept
    k: int | None
    poa: Fraction | None  # None when no equilibrium exists in the family
    worst_cost: Fraction | None
    best_cost: Fraction
    witness: nx.Graph | None
    equilibria: int
    candidates: int


def empirical_weighted_poa(
    n: int,
    alpha: AlphaLike,
    concept: Concept,
    traffic: TrafficMatrix | None = None,
    k: int | None = None,
    trees_only: bool = True,
    cost_model: CostModel | None = None,
) -> WeightedPoAResult:
    """Worst equilibrium vs family optimum under a demand matrix and/or a
    cost model.

    Enumerates the same family as :func:`empirical_tree_poa` /
    :func:`empirical_poa` (one labelled representative per isomorphism
    class), checks each representative against the *weighted/modeled*
    concept checkers, and divides the worst equilibrium's social cost by
    the family's minimum social cost.  With
    ``TrafficMatrix.uniform(n)`` (and a linear or absent ``cost_model``)
    the checkers value rows by plain sums, and whenever the
    closed-form optimum lies inside the enumerated family — for trees
    that is ``alpha >= 1``, where the optimum is the star — the ratio
    reproduces the uniform PoA exactly (for ``alpha < 1`` the uniform
    optimum is the clique, so the tree-family ratio is denominated by
    the cheapest tree instead).  Non-linear models have no closed-form
    optimum at all, so the family-relative ratio is the definition of
    record for them.
    """
    price = as_alpha(alpha)
    graphs = all_trees(n) if trees_only else all_connected_graphs(n)
    worst: Fraction | None = None
    witness: nx.Graph | None = None
    best: Fraction | None = None
    equilibria = 0
    candidates = 0
    for graph in graphs:
        candidates += 1
        state = GameState(graph, price, traffic=traffic, cost_model=cost_model)
        cost = state.social_cost()
        if best is None or cost < best:
            best = cost
        if not check(state, concept, k=k):
            continue
        equilibria += 1
        if worst is None or cost > worst:
            worst = cost
            witness = state.graph.copy()
    assert best is not None, "the family enumeration was empty"
    return WeightedPoAResult(
        n=n,
        alpha=price,
        concept=concept,
        k=k,
        poa=None if worst is None else worst / best,
        worst_cost=worst,
        best_cost=best,
        witness=witness,
        equilibria=equilibria,
        candidates=candidates,
    )


def exact_weighted_tree_poa(
    n: int,
    alpha: AlphaLike,
    concept: Concept,
    traffic: TrafficMatrix,
    k: int | None = None,
    cost_model: CostModel | None = None,
) -> WeightedPoAResult:
    """Exact weighted PoA over **all labelled trees** on ``n`` nodes.

    :func:`empirical_weighted_poa` checks one labelled representative per
    *unlabelled* isomorphism class against a fixed demand matrix — a
    certified lower bound, because demands break label symmetry and a
    different labelling of the same shape is a genuinely different game.
    This function closes that gap: it sweeps every Pruefer sequence (all
    ``n**(n-2)`` labelled trees) deduplicated by the **joint**
    ``(tree, W)`` canonical key (:func:`repro.graphs.enumerate.
    enumerate_labelled_trees`), so the quantifier runs over the complete
    labelled family modulo the symmetries the demand matrix actually
    has.  Under ``TrafficMatrix.uniform(n)`` the joint classes collapse
    to the unlabelled ones and the result matches
    :func:`empirical_weighted_poa` exactly.  Feasible to ``n ~ 8``
    (262144 sequences).
    """
    from repro.graphs.enumerate import enumerate_labelled_trees

    price = as_alpha(alpha)
    worst: Fraction | None = None
    witness: nx.Graph | None = None
    best: Fraction | None = None
    equilibria = 0
    candidates = 0
    for graph in enumerate_labelled_trees(n, traffic):
        candidates += 1
        state = GameState(graph, price, traffic=traffic, cost_model=cost_model)
        cost = state.social_cost()
        if best is None or cost < best:
            best = cost
        if not check(state, concept, k=k):
            continue
        equilibria += 1
        if worst is None or cost > worst:
            worst = cost
            witness = state.graph.copy()
    assert best is not None, "the labelled-tree enumeration was empty"
    return WeightedPoAResult(
        n=n,
        alpha=price,
        concept=concept,
        k=k,
        poa=None if worst is None else worst / best,
        worst_cost=worst,
        best_cost=best,
        witness=witness,
        equilibria=equilibria,
        candidates=candidates,
    )


def bse_upper_bound_via_dary_tree(
    n: int, alpha: AlphaLike, d: int
) -> Fraction:
    """Certified PoA upper bound for BSE at ``(n, alpha)`` via Lemma 3.17.

    Builds the almost complete ``d``-ary tree, computes the *exact* maximum
    agent cost, and divides by ``alpha + n - 1``: every BSE on ``n`` agents
    has ``rho`` at most this value, because otherwise the grand coalition
    would deviate to (a relabelling of) the tree.
    """
    price = as_alpha(alpha)
    state = GameState(almost_complete_dary_tree(n, d), price)
    return max_agent_cost(state) / (price + n - 1)


def re_upper_bound_via_prop_3_1(state: GameState) -> Fraction:
    """Best Proposition 3.1 bound over all nodes of a connected RE graph.

    The proposition's arithmetic is linear in raw, unweighted distances,
    so it is defined for the uniform linear game only — weighted and
    modeled states raise rather than silently bounding the wrong game
    (the same predicate as ``GameState.rho()``).
    """
    if not state.valuation.uniform_linear:
        raise ValueError(
            "Proposition 3.1 bounds the uniform linear game; weighted or "
            "modeled states have no closed-form RE bound"
        )
    totals = state.dist.totals()
    best = min(int(value) for value in totals)
    return proposition_3_1_bound(state.n, state.alpha, best)
