"""Witness searches over small graphs.

Two existence claims in Section 2 are supported by drawings whose exact
graphs matter less than their existence:

* **Proposition 2.3 / Figure 2** — a graph with an edge assignment that is a
  unilateral Pure Nash Equilibrium but is *not* pairwise stable in the BNCG
  (refuting the Corbo–Parkes conjecture);
* **Figure 1b** — witnesses for all eight regions of the RE / BAE / BSwE
  Venn diagram.

Both are re-derived here by exhaustive search over all connected graphs
(:func:`repro.graphs.generation.all_connected_graphs` — atlas-backed to
``n = 7``, canonical-key enumerated above); the frozen results live in
:mod:`repro.constructions.figures` and
:mod:`repro.constructions.venn` with tests re-verifying them.  All
stability verdicts consumed here come from the engine-backed checkers
(speculative-kernel evaluation); :func:`classify_full_ladder` extends the
polynomial triple to the whole cooperation ladder with seeded,
reproducible probe fallbacks for the exponential concepts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import networkx as nx

from repro._alpha import AlphaLike
from repro._rng import RngLike
from repro.core.concepts import Concept
from repro.core.state import GameState
from repro.equilibria.add import (
    is_bilateral_add_equilibrium,
    is_unilateral_add_equilibrium,
)
from repro.equilibria.certificates import StabilityReport
from repro.equilibria.diagnose import diagnose
from repro.equilibria.nash import EdgeAssignment, is_nash_equilibrium
from repro.equilibria.remove import (
    find_improving_removal,
    is_remove_equilibrium,
    removal_loss,
)
from repro.equilibria.swap import is_bilateral_swap_equilibrium
from repro.graphs.generation import all_connected_graphs

__all__ = [
    "ConjectureSweepResult",
    "NashWitness",
    "classify_full_ladder",
    "classify_re_bae_bswe",
    "exhaustive_conjecture_sweep",
    "search_nash_not_pairwise_stable",
    "search_venn_witnesses",
]


def _nash_assignments(state: GameState) -> Iterator[EdgeAssignment] | None:
    """Every edge assignment of ``state`` that is a unilateral Pure Nash
    Equilibrium, lazily in ``itertools.product`` order over the edges'
    feasible owners — or ``None`` when some edge has none.

    An owner is feasible when its removal loss reaches ``alpha``
    (otherwise it would drop the edge), a necessary condition that keeps
    the product small; each surviving assignment goes through the exact
    NE checker.
    """
    edges = list(state.graph.edges)
    allowed_owners: list[list[int]] = []
    for u, v in edges:
        owners = [
            endpoint
            for endpoint, other in ((u, v), (v, u))
            if not removal_loss(state, endpoint, other) < state.alpha
        ]
        if not owners:
            return None
        allowed_owners.append(owners)
    assignments = (
        EdgeAssignment.from_pairs(
            (owner, u if owner == v else v)
            for owner, (u, v) in zip(owner_choice, edges)
        )
        for owner_choice in itertools.product(*allowed_owners)
    )
    return (a for a in assignments if is_nash_equilibrium(state, a))


@dataclass(frozen=True)
class NashWitness:
    """A (graph, assignment, alpha) triple refuting the C&P conjecture."""

    graph: nx.Graph
    assignment: EdgeAssignment
    alpha: Fraction
    weak_edge: tuple[int, int]  # edge whose non-owner gains by dropping it


def search_nash_not_pairwise_stable(
    sizes: Iterable[int] = (5, 6),
    alphas: Sequence[AlphaLike] = (2, Fraction(5, 2), 3, Fraction(7, 2), 4, 5),
    max_results: int = 1,
) -> list[NashWitness]:
    """Exhaustive search for Proposition 2.3 witnesses on small graphs.

    Pre-filters (all necessary for a witness): the graph must violate
    bilateral RE at ``alpha`` (else it stays PS), must satisfy unilateral AE
    (else no assignment is NE), and every edge must have at least one
    endpoint whose removal loss reaches ``alpha`` (a possible owner).  The
    surviving assignment space is enumerated against the exact NE checker.
    """
    results: list[NashWitness] = []
    for n in sizes:
        for graph in all_connected_graphs(n):
            for alpha in alphas:
                state = GameState(graph, alpha)
                # an edge whose removal benefits one endpoint bilaterally
                weak = find_improving_removal(state)
                if weak is None:
                    continue
                if not is_unilateral_add_equilibrium(state):
                    continue
                nash = _nash_assignments(state)
                # one assignment per (graph, alpha) suffices
                assignment = None if nash is None else next(nash, None)
                if assignment is None:
                    continue
                results.append(
                    NashWitness(
                        graph=state.graph.copy(),
                        assignment=assignment,
                        alpha=state.alpha,
                        weak_edge=(weak.actor, weak.other),
                    )
                )
                if len(results) >= max_results:
                    return results
    return results


@dataclass(frozen=True)
class ConjectureSweepResult:
    """One exhaustive Corbo–Parkes cell: every NE on every connected graph.

    ``certificates`` carries JSON-able refutation witnesses: the graph's
    canonical-key digest and edge list, one concrete NE edge assignment,
    and the bilateral move that breaks pairwise stability — enough to
    replay the refutation without re-running the sweep.
    """

    n: int
    alpha: Fraction
    candidates: int  # connected graphs scanned
    feasible_graphs: int  # graphs surviving the NE pre-filters
    ne_graphs: int  # graphs supporting at least one NE assignment
    ne_assignments: int  # total NE assignments across all graphs
    counterexample_graphs: int  # NE-supporting graphs that are not PS
    certificates: tuple[dict, ...]


def exhaustive_conjecture_sweep(
    n: int, alpha: AlphaLike, max_certificates: int = 5
) -> ConjectureSweepResult:
    """Exhaustively test the Corbo–Parkes conjecture at ``(n, alpha)``.

    For **every** connected graph on ``n`` nodes (canonical enumeration,
    so one representative per isomorphism class) and **every** edge
    ownership assignment that is a unilateral Pure Nash Equilibrium,
    check whether the underlying graph is pairwise stable.  Any NE whose
    graph admits a bilateral improvement refutes the conjecture; the
    first ``max_certificates`` refutations are returned as replayable
    certificates.

    Pre-filters (both *necessary* for an NE assignment to exist) keep the
    assignment product small: the graph must be a unilateral add
    equilibrium, and every edge needs at least one endpoint whose removal
    loss reaches ``alpha`` (a feasible owner).  Everything is exact and
    deterministic — no sampling, no seeds.
    """
    from hashlib import blake2b

    from repro._alpha import as_alpha
    from repro.equilibria.pairwise import find_pairwise_violation
    from repro.graphs.canonical import canonical_key

    price = as_alpha(alpha)
    candidates = 0
    feasible_graphs = 0
    ne_graphs = 0
    ne_assignments = 0
    counterexample_graphs = 0
    certificates: list[dict] = []
    for graph in all_connected_graphs(n):
        candidates += 1
        state = GameState(graph, price)
        if not is_unilateral_add_equilibrium(state):
            continue
        nash = _nash_assignments(state)
        if nash is None:
            continue
        feasible_graphs += 1
        found_here = 0
        first_ne: EdgeAssignment | None = None
        for assignment in nash:
            found_here += 1
            if first_ne is None:
                first_ne = assignment
        if not found_here:
            continue
        ne_graphs += 1
        ne_assignments += found_here
        violation = find_pairwise_violation(state)
        if violation is None:
            continue
        counterexample_graphs += 1
        if len(certificates) < max_certificates:
            assert first_ne is not None
            certificates.append(
                {
                    "witness_key": blake2b(
                        canonical_key(state.graph), digest_size=16
                    ).hexdigest(),
                    "edges": sorted(
                        [int(u), int(v)] for u, v in state.graph.edges
                    ),
                    "owners": sorted(
                        [int(owner), int(v if owner == u else u)]
                        for (u, v), owner in first_ne.owner.items()
                    ),
                    "ne_assignments": found_here,
                    "break_type": type(violation).__name__,
                    "break": str(violation),
                }
            )
    return ConjectureSweepResult(
        n=n,
        alpha=price,
        candidates=candidates,
        feasible_graphs=feasible_graphs,
        ne_graphs=ne_graphs,
        ne_assignments=ne_assignments,
        counterexample_graphs=counterexample_graphs,
        certificates=tuple(certificates),
    )


def classify_re_bae_bswe(state: GameState) -> tuple[bool, bool, bool]:
    """Membership triple ``(RE, BAE, BSwE)`` — the Figure 1b coordinates."""
    return (
        is_remove_equilibrium(state),
        is_bilateral_add_equilibrium(state),
        is_bilateral_swap_equilibrium(state),
    )


def classify_full_ladder(
    state: GameState,
    max_coalition_size: int = 3,
    seed: RngLike = 0,
    probe_samples: int = 2000,
) -> dict[Concept, StabilityReport]:
    """Stability report across the whole cooperation ladder.

    Polynomial concepts are exact; BNE and k-BSE degrade to *seeded*
    randomized probing when out of budget, so a witness-hunt over many
    instances is reproducible from ``seed`` alone (pass an integer seed
    or a ready ``random.Random``).  Reports with ``exhaustive=False``
    mark probe-based verdicts.
    """
    return diagnose(
        state,
        max_coalition_size=max_coalition_size,
        seed=seed,
        probe_samples=probe_samples,
    )


def search_venn_witnesses(
    sizes: Iterable[int] = (3, 4, 5, 6),
    alphas: Sequence[AlphaLike] = (
        Fraction(1, 2),
        1,
        Fraction(3, 2),
        2,
        Fraction(5, 2),
        3,
        4,
        5,
        7,
    ),
) -> dict[tuple[bool, bool, bool], tuple[nx.Graph, Fraction]]:
    """One ``(graph, alpha)`` witness per RE/BAE/BSwE region (Figure 1b).

    Searches small connected graphs until all eight regions are populated.
    """
    found: dict[tuple[bool, bool, bool], tuple[nx.Graph, Fraction]] = {}
    for n in sizes:
        for graph in all_connected_graphs(n):
            for alpha in alphas:
                state = GameState(graph, alpha)
                region = classify_re_bae_bswe(state)
                if region not in found:
                    found[region] = (state.graph.copy(), state.alpha)
                    if len(found) == 8:
                        return found
    return found
