"""Empirical Price of Anarchy: exhaustive worst cases and certified bounds.

Small instances allow the real thing: enumerate *all* graphs of a
family, keep those passing a concept's exact checker, and take the worst
social cost ratio.  That is the PoA by definition, not an estimate.
Larger instances use the paper's own reductions (Lemma 3.17 / 3.18) to
produce certified upper bounds.

Every exact number goes through :func:`family_poa`: one family selector
(:func:`family_graphs`) feeding one scan.  The families ride the
canonical-key machinery of :mod:`repro.graphs.canonical` /
:mod:`repro.graphs.enumerate`: all trees, all connected graphs (past the
networkx atlas to n = 8-9), one edge-count layer of them — the unit of
campaign-level resume — and **all labelled trees** modulo the joint
``(tree, W)`` symmetries of a demand matrix, which settles the weighted
tree PoA exactly rather than over one representative per unlabelled
class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

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
    "bse_upper_bound_via_dary_tree",
    "empirical_poa",
    "empirical_tree_poa",
    "family_graphs",
    "family_poa",
    "worst_equilibria",
]

#: the enumerable graph families a PoA quantifies over
FAMILIES = ("trees", "graphs", "labelled_trees")


@dataclass(frozen=True)
class PoAResult:
    """Worst-case ratio over an enumerated family, with the witness.

    Without a demand matrix or cost model the ratio is the worst
    equilibrium's ``rho`` against the paper's closed-form optimum, and
    ``worst_cost`` / ``best_cost`` stay ``None``.  With either one there
    is no closed-form optimum (and demands break label symmetry), so the
    ratio is *family-relative*: the worst equilibrium's social cost over
    the **minimum social cost in the enumerated family**.  Over one
    labelled representative per isomorphism class that is a certified
    lower bound on the true PoA; over ``labelled_trees`` it is exact.
    """

    n: int
    alpha: Fraction
    concept: Concept
    k: int | None
    poa: Fraction | None  # None when no equilibrium exists in the family
    witness: nx.Graph | None
    equilibria: int
    candidates: int
    worst_cost: Fraction | None = None
    best_cost: Fraction | None = None


def family_graphs(
    family: str,
    n: int,
    m: int | None = None,
    traffic: TrafficMatrix | None = None,
) -> Iterable[nx.Graph]:
    """The graphs a PoA quantifies over, in their bit-stable order.

    ``"trees"`` are all non-isomorphic trees; ``"graphs"`` all connected
    graphs (atlas order for ``n <= 7``), or only those with exactly
    ``m`` edges; ``"labelled_trees"`` every Pruefer sequence deduplicated
    by the joint ``(tree, W)`` canonical key of ``traffic``
    (:func:`repro.graphs.enumerate.enumerate_labelled_trees`; under
    ``TrafficMatrix.uniform(n)`` the classes collapse to the unlabelled
    ones; feasible to ``n ~ 8``).  A demand matrix sees labels: a layer
    holds canonical representatives and the whole family at ``n <= 7``
    the atlas's, so under non-uniform demands the two scan different
    labellings of the same classes.
    """
    if family not in FAMILIES:
        raise ValueError(
            f"unknown graph family {family!r}; known: {list(FAMILIES)}"
        )
    if m is not None and family != "graphs":
        raise ValueError(
            f"the edge-count layer axis 'm' needs family 'graphs', "
            f"not {family!r}"
        )
    if family == "trees":
        return all_trees(n)
    if family == "labelled_trees":
        if traffic is None:
            raise ValueError(
                "labelled_trees needs an explicit 'traffic' demand matrix "
                "(the joint canonical key acts on it)"
            )
        from repro.graphs.enumerate import enumerate_labelled_trees

        return enumerate_labelled_trees(n, traffic)
    if m is None:
        return all_connected_graphs(n)
    # imported at call time, so a wrapper installed on the enumerator
    # module (perfbench's tracer) sees every layer
    from repro.graphs.canonical import decode_key
    from repro.graphs.enumerate import connected_graph_layer

    return (decode_key(key)[0] for key in connected_graph_layer(n, m))


def _verdicts(
    graphs: Iterable[nx.Graph],
    alpha: Fraction,
    concept: Concept,
    k: int | None,
    traffic: TrafficMatrix | None,
    cost_model: CostModel | None,
) -> Iterator[tuple[GameState, bool]]:
    """The one PoA scan: every candidate's state and its verdict.

    ``check`` is read from this module's globals on every call, the
    point where perfbench's tracer wraps it.
    """
    for graph in graphs:
        state = GameState(graph, alpha, traffic=traffic, cost_model=cost_model)
        yield state, check(state, concept, k=k)


def family_poa(
    family: str,
    n: int,
    alpha: AlphaLike,
    concept: Concept,
    k: int | None = None,
    *,
    m: int | None = None,
    traffic: TrafficMatrix | None = None,
    cost_model: CostModel | None = None,
) -> PoAResult:
    """Exact PoA of ``concept`` (``k``-BSE with ``k``) over a family.

    ``family``, ``m`` and ``traffic`` select the graphs
    (:func:`family_graphs`); ``traffic`` and ``cost_model`` select the
    game.  With neither, ``rho()`` is computed for equilibria only; with
    either, every candidate's social cost enters the family minimum (see
    :class:`PoAResult`).  With ``TrafficMatrix.uniform(n)`` and a linear
    or absent cost model, the family-relative ratio reproduces the
    uniform PoA whenever the closed-form optimum lies inside the family
    (for trees: ``alpha >= 1``, where the optimum is the star).
    """
    price = as_alpha(alpha)
    relative = traffic is not None or cost_model is not None
    worst: Fraction | None = None
    best: Fraction | None = None
    witness: nx.Graph | None = None
    equilibria = 0
    candidates = 0
    for state, stable in _verdicts(
        family_graphs(family, n, m, traffic),
        price, concept, k, traffic, cost_model,
    ):
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
            worst = value
            witness = state.graph.copy()
    return PoAResult(
        n=n,
        alpha=price,
        concept=concept,
        k=k,
        poa=worst if not relative or worst is None else worst / best,
        witness=witness,
        equilibria=equilibria,
        candidates=candidates,
        worst_cost=worst if relative else None,
        best_cost=best,
    )


def empirical_tree_poa(
    n: int, alpha: AlphaLike, concept: Concept, k: int | None = None
) -> PoAResult:
    """Exact PoA of the paper's game over all non-isomorphic trees
    (feasible up to ``n ~ 13`` for the polynomial concepts)."""
    return family_poa("trees", n, alpha, concept, k)


def empirical_poa(
    n: int, alpha: AlphaLike, concept: Concept, k: int | None = None
) -> PoAResult:
    """Exact PoA of the paper's game over *all* connected graphs
    (seconds at ``n = 8``, minutes at ``n = 9``)."""
    return family_poa("graphs", n, alpha, concept, k)


def worst_equilibria(
    n: int,
    alpha: AlphaLike,
    concept: Concept,
    k: int | None = None,
    top: int = 3,
    trees_only: bool = True,
) -> list[tuple[Fraction, nx.Graph]]:
    """The ``top`` worst equilibria (ratio, graph), descending."""
    graphs = family_graphs("trees" if trees_only else "graphs", n)
    scored = [
        (state.rho(), state.graph.copy())
        for state, stable in _verdicts(
            graphs, as_alpha(alpha), concept, k, None, None
        )
        if stable
    ]
    scored.sort(key=lambda item: item[0], reverse=True)
    return scored[:top]


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
    totals = state.totals()
    best = min(int(value) for value in totals)
    return proposition_3_1_bound(state.n, state.alpha, best)
