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

The scan prices RE, BAE and PS in one numpy kernel per stack of
classes (:func:`repro.equilibria.stack.price_stack`): a layer's stack is
unpacked straight from its canonical keys, every other family is
stacked from edge lists, and no class builds a ``GameState``, a distance
engine or a bridge set.  BGE, BSE and k-BSE (``k >= 2``) run their
checker on the kernel's PS-stable classes only, because each of those
checkers makes every single removal and every mutual addition.  Every
other concept (BSwE, BNE, 1-BSE, unilateral AE) builds a state and runs
its checker per class.  Either way the reduction keeps the per-instance
order: the witness is the first worst equilibrium in family order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import networkx as nx
import numpy as np

from repro._alpha import AlphaLike, as_alpha
from repro.analysis.bounds import proposition_3_1_bound
from repro.constructions.basic import almost_complete_dary_tree
from repro.core.concepts import Concept
from repro.core.costmodel import CostModel, bind_valuation
from repro.core.costs import max_agent_cost
from repro.core.optimum import optimum_cost
from repro.core.state import GameState
from repro.core.traffic import TrafficMatrix
from repro.equilibria.registry import check
from repro.equilibria.stack import price_stack, stack_size
from repro.graphs.canonical import adjacency_stack, decode_key
from repro.graphs.distances import canonical_labels
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
    return (decode_key(key)[0] for key in _layer_keys(n, m))


def _layer_keys(n: int, m: int) -> Sequence[bytes]:
    # imported at call time, so a wrapper installed on the enumerator
    # module (perfbench's tracer) sees every layer
    from repro.graphs.enumerate import connected_graph_layer

    return connected_graph_layer(n, m)


#: concepts the stacked kernel decides outright (with ``k`` unset)
_STACKED = {
    Concept.RE: "remove",
    Concept.BAE: "add",
    Concept.PS: "pairwise",
}
#: concepts whose checkers make every single removal and every mutual
#: addition, so only a PS-stable class can pass them (BSE is n-BSE)
_PS_GATED = (Concept.BGE, Concept.BSE)


@dataclass(frozen=True)
class _Priced:
    """One run of a family's classes, in family order, all with
    ``edges`` edges: their value totals, verdicts and graphs."""

    edges: int
    totals: np.ndarray
    stable: np.ndarray
    graph: Callable[[int], nx.Graph]


def _stacks(
    family: str, n: int, m: int | None, traffic: TrafficMatrix | None
) -> Iterator[tuple[np.ndarray, Callable[[int], nx.Graph]]]:
    """The family as adjacency stacks of at most :func:`stack_size`
    graphs with equal edge counts, in family order, each with the graph
    behind every row.  A layer is unpacked straight from its keys;
    every other family is stacked from edge lists (its graphs are
    labelled ``0..n-1``)."""
    size = stack_size(n)
    if family == "graphs" and m is not None:
        keys = _layer_keys(n, m)
        for start in range(0, len(keys), size):
            chunk = keys[start : start + size]
            yield adjacency_stack(chunk), (
                lambda i, chunk=chunk: decode_key(chunk[i])[0]
            )
        return
    chunk: list[nx.Graph] = []
    for graph in family_graphs(family, n, m, traffic):
        if chunk and (
            len(chunk) == size
            or graph.number_of_edges() != chunk[0].number_of_edges()
        ):
            yield _stack_of(chunk, n), chunk.__getitem__
            chunk = []
        chunk.append(graph)
    if chunk:
        yield _stack_of(chunk, n), chunk.__getitem__


def _stack_of(graphs: Sequence[nx.Graph], n: int) -> np.ndarray:
    stack = np.zeros((len(graphs), n, n), dtype=bool)
    for i, graph in enumerate(graphs):
        edges = np.array(graph.edges, dtype=np.intp).reshape(-1, 2)
        stack[i, edges[:, 0], edges[:, 1]] = True
    return stack | stack.transpose(0, 2, 1)


def _priced(
    family: str,
    n: int,
    m: int | None,
    alpha: Fraction,
    concept: Concept,
    k: int | None,
    traffic: TrafficMatrix | None,
    cost_model: CostModel | None,
) -> Iterator[_Priced]:
    """The one PoA scan: every candidate's value total and verdict.

    RE, BAE and PS (``k`` unset) come from :func:`price_stack`, one
    stack at a time.  BGE, BSE and k-BSE with ``k >= 2`` also run their
    checker, on the PS-stable classes only: their checkers make every
    single removal and every mutual addition, so a class that fails PS
    fails them too.  Every other concept builds a state and runs its
    checker per class.  ``check`` is read from this module's globals on
    every call, the point where perfbench's tracer wraps it.
    """
    gated = concept in _PS_GATED if k is None else k >= 2
    if not gated and (k is not None or concept not in _STACKED):
        for graph in family_graphs(family, n, m, traffic):
            state = GameState(
                graph, alpha, traffic=traffic, cost_model=cost_model
            )
            stable = check(state, concept, k=k)
            yield _Priced(
                state.graph.number_of_edges(),
                np.array([state.totals().sum()]),
                np.array([stable]),
                lambda _, graph=state.graph: graph,
            )
        return
    game = None
    for adjacency, graph_of in _stacks(family, n, m, traffic):
        if game is None:  # after the family's own input checks
            if alpha <= 0:
                raise ValueError("alpha must be positive")
            game = bind_valuation(n, alpha, traffic, cost_model)
        prices = price_stack(adjacency, alpha, *game)
        if gated:
            stable = prices.pairwise
            for i in np.flatnonzero(stable):
                state = GameState(
                    graph_of(i), alpha, traffic=traffic, cost_model=cost_model
                )
                stable[i] = check(state, concept, k=k)
        else:
            stable = getattr(prices, _STACKED[concept])
        yield _Priced(
            int(adjacency[0].sum()) // 2,
            prices.totals,
            stable,
            lambda i, graph_of=graph_of: canonical_labels(graph_of(i)),
        )


def _rho(n: int, alpha: Fraction, cost: Fraction) -> Fraction:
    """``rho`` of a social cost, as ``GameState.rho`` computes it."""
    return Fraction(1) if n == 1 else cost / optimum_cost(n, alpha)


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
    game.  With neither, the ratio is the worst equilibrium's ``rho()``;
    with either, every candidate's social cost enters the family minimum
    (see :class:`PoAResult`).  With ``TrafficMatrix.uniform(n)`` and a
    linear or absent cost model, the family-relative ratio reproduces
    the uniform PoA whenever the closed-form optimum lies inside the
    family (for trees: ``alpha >= 1``, where the optimum is the star).
    The witness is the first worst equilibrium in family order.
    """
    price = as_alpha(alpha)
    relative = traffic is not None or cost_model is not None
    worst: Fraction | None = None
    best: Fraction | None = None
    witness: nx.Graph | None = None
    equilibria = 0
    candidates = 0
    for run in _priced(
        family, n, m, price, concept, k, traffic, cost_model
    ):
        # one edge count per run: costs order like value totals, and
        # argmin / argmax pick the first class of a tie
        buy = 2 * price * run.edges
        candidates += run.totals.size
        if relative:
            cost = buy + int(run.totals.min())
            if best is None or cost < best:
                best = cost
        kept = np.flatnonzero(run.stable)
        if not kept.size:
            continue
        equilibria += kept.size
        top = int(kept[np.argmax(run.totals[kept])])
        cost = buy + int(run.totals[top])
        if worst is None or cost > worst:
            worst = cost
            witness = run.graph(top)
    poa = None
    if worst is not None:
        poa = worst / best if relative else _rho(n, price, worst)
    return PoAResult(
        n=n,
        alpha=price,
        concept=concept,
        k=k,
        poa=poa,
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
    price = as_alpha(alpha)
    family = "trees" if trees_only else "graphs"
    scored = [
        (
            _rho(n, price, 2 * price * run.edges + int(run.totals[i])),
            run.graph(i),
        )
        for run in _priced(family, n, None, price, concept, k, None, None)
        for i in np.flatnonzero(run.stable)
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
