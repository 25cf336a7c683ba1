"""Bilateral (k-)Strong Equilibria: stability against coalition moves.

A coalition ``Gamma`` (``|Gamma| <= k``) may delete any set of edges with at
least one endpoint inside ``Gamma`` and add any set of edges with *both*
endpoints inside; the move is improving iff **every** member strictly
benefits.  BSE is the special case ``k = n``.

Member costs after a move use clean post-move strategies: a member saves
``alpha`` for each incident deleted edge and pays ``alpha`` for each incident
added edge, i.e. ``cost(u) = alpha * deg'(u) + dist'(u)`` in the mutated
graph (Section 1.1's strategy/graph bijection).

Exhaustive checking is doubly exponential-ish (coalitions x edge subsets).
The exact checker enumerates edge subsets with an explicit evaluation
budget and evaluates every candidate on the
:class:`~repro.core.speculative.SpeculativeEvaluator` kernel: each deleted
subset is applied to the cached distance engine once and amortised (via
nested LIFO undo scopes) across every addition subset tried on top of it,
and member verdicts are exact degree/total-delta comparisons — the old
per-candidate adjacency-set rebuild and Python BFS per member are gone.
When the instance is out of budget the checker raises
:class:`SearchBudgetExceeded` — callers then combine scaled-down exact
checks, the paper's case analyses, and :func:`probe_coalition_moves`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from repro._rng import RngLike, coerce_rng
from repro.core.moves import CoalitionMove, normalize_edge
from repro.core.speculative import SpeculativeEvaluator
from repro.core.state import GameState
from repro.equilibria.neighborhood import SearchBudgetExceeded
from repro.graphs import bridges as _bridges
from repro.obs import metrics as _obs

__all__ = [
    "find_improving_coalition_move",
    "is_k_strong_equilibrium",
    "is_strong_equilibrium",
    "probe_coalition_moves",
]

#: Coalition DFS dispatch spies: how many coalition subspaces ran the
#: fully query-based fold DFS vs the token-based engine DFS since import.
#: Tests assert that any coalition whose removable edges are all bridges
#: takes the fold path, cyclic host graph or not.
_FOLD_DFS_RUNS = _obs.counter(
    "repro_strong_fold_dfs_runs_total",
    "coalition subspaces searched by the query-based fold DFS",
)
_ENGINE_DFS_RUNS = _obs.counter(
    "repro_strong_engine_dfs_runs_total",
    "coalition subspaces searched by the token-based engine DFS",
)


def _coalition_edge_space(
    state: GameState, coalition: tuple[int, ...]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    members = set(coalition)
    removable = sorted(
        normalize_edge(u, v)
        for u, v in state.graph.edges
        if u in members or v in members
    )
    addable = sorted(
        normalize_edge(u, v)
        for u, v in itertools.combinations(sorted(members), 2)
        if not state.graph.has_edge(u, v)
    )
    return removable, addable


def find_improving_coalition_move(
    state: GameState,
    max_coalition_size: int,
    coalitions: Iterable[tuple[int, ...]] | None = None,
    max_evaluations: int = 5_000_000,
) -> CoalitionMove | None:
    """Exhaustive search for an improving coalition move of size at most
    ``max_coalition_size`` (raises :class:`SearchBudgetExceeded` over budget).

    Candidates are evaluated on the speculative kernel: each removal
    subset is applied once and shared across its addition subsets, then
    rolled back through LIFO undo tokens.  The base graph's bridges are
    swept once per call and gate the fold DFS per coalition.  A size
    below 1 raises ``ValueError``: it would search nothing and call every
    state stable.
    """
    if max_coalition_size < 1:
        raise ValueError(
            f"max_coalition_size must be >= 1, got {max_coalition_size}"
        )
    if coalitions is None:
        nodes = range(state.n)
        coalitions = itertools.chain.from_iterable(
            itertools.combinations(nodes, size)
            for size in range(1, min(max_coalition_size, state.n) + 1)
        )
    spec = SpeculativeEvaluator(state)
    bridges = _bridges.component_bridges(state.graph._adj, range(state.n))
    budget = max_evaluations
    for coalition in coalitions:
        removable, addable = _coalition_edge_space(state, coalition)
        space = 2 ** (len(removable) + len(addable))
        budget -= space
        if budget < 0:
            raise SearchBudgetExceeded(
                f"coalition {coalition}: 2^{len(removable) + len(addable)} "
                f"move candidates exceed the evaluation budget"
            )
        members = tuple(coalition)
        move = _dfs_coalition_space(
            spec, members, removable, addable, bridges
        )
        if move is not None:
            return move
    return None


def _dfs_coalition_space(
    spec: SpeculativeEvaluator,
    members: tuple[int, ...],
    removable: Sequence[tuple[int, int]],
    addable: Sequence[tuple[int, int]],
    bridges: set[tuple[int, int]],
) -> CoalitionMove | None:
    """DFS over all nonempty (removed, added) subsets on the kernel.

    ``bridges`` holds the ``(min, max)`` bridges of the graph the DFS
    starts from.  When every removable edge is one, removals split a
    rows-only fold; otherwise removal subsets walk the engine with
    push/pop tokens — siblings share their common prefix, so each
    removal node costs one apply + one undo.
    On top of each removal prefix the whole addition powerset evaluates
    through a rows-only :class:`~repro.core.speculative.Fold` (added
    edges live inside the coalition, so the members' rows close over the
    fold) — no matrix mutation at all per addition candidate.

    Two *sound* prunes cut subtrees without affecting exactness:

    * remaining removals can lower member ``m``'s buying delta by at most
      her incident count among them, and distances never drop below
      ``n - 1`` (never below the current value once only removals
      remain — removals are distance-monotone), so a member with
      ``alpha * (buy_delta - future_incident_removals) >= bound`` dooms
      every descendant;
    * inside the addition suffix buying deltas only grow, so an endpoint
      that cannot recover one more edge price
      (``alpha * (buy_delta + 1) >= base_dist - (n - 1)``) dooms every
      candidate containing that edge.
    """
    # per-member distance floor of the valuation (n - 1 in the paper's game)
    slack = {m: spec.base_dist(m) - spec.dist_floor(m) for m in members}
    # future_incident[m][i] = removable edges at index >= i incident to m
    future_incident = {}
    for m in members:
        counts = [0] * (len(removable) + 1)
        for i in range(len(removable) - 1, -1, -1):
            u, v = removable[i]
            counts[i] = counts[i + 1] + (1 if m in (u, v) else 0)
        future_incident[m] = counts
    removed: list[tuple[int, int]] = []
    added: list[tuple[int, int]] = []
    touched = set(members)
    for u, v in removable:
        touched.update((u, v))
    net_degree = {node: 0 for node in touched}

    def candidate_improves(fold) -> bool:
        for m in members:
            gain = spec.base_dist(m) - fold.dist_total(m)
            delta = spec.buy_delta(m) + net_degree[m]
            if delta == 0:
                if not gain > 0:
                    return False
            elif not spec.alpha_lt(delta, gain):
                return False
        return True

    def found_move() -> CoalitionMove:
        return CoalitionMove(
            coalition=members,
            removed_edges=tuple(removed),
            added_edges=tuple(added),
        )

    def descend_adds(fold, start: int) -> CoalitionMove | None:
        for index in range(start, len(addable)):
            u, v = addable[index]
            if not spec.alpha_lt(
                spec.buy_delta(u) + net_degree[u] + 1, slack[u]
            ) or not spec.alpha_lt(
                spec.buy_delta(v) + net_degree[v] + 1, slack[v]
            ):
                continue  # this edge's price can never be recovered
            child = fold.extend(u, v)
            added.append((u, v))
            net_degree[u] += 1
            net_degree[v] += 1
            try:
                spec.note_evaluation()
                if candidate_improves(child):
                    return found_move()
                found = descend_adds(child, index + 1)
                if found is not None:
                    return found
            finally:
                net_degree[u] -= 1
                net_degree[v] -= 1
                added.pop()
        return None

    def removal_prunable(next_start: int, fold=None) -> bool:
        for m in members:
            count = (
                spec.buy_delta(m)
                + net_degree[m]
                - future_incident[m][next_start]
            )
            if addable:
                # distances can still recover, but never below the floor
                bound = slack[m]
            else:
                # pure-removal subtree: distances are monotone from here
                # (weights are non-negative, so weighted totals are too)
                dist_now = (
                    fold.dist_total(m)
                    if fold is not None
                    else spec.current_dist(m)
                )
                bound = spec.base_dist(m) - dist_now
            if not spec.alpha_lt(count, bound):
                return True
        return False

    def descend_removes_fold(fold, start: int) -> CoalitionMove | None:
        """Fully query-based DFS (every removable edge a bridge):
        removals split the fold, additions extend it — zero engine
        mutations."""
        if addable:
            # addable endpoints are members: drop the extra tracked rows
            found = descend_adds(fold.restrict(members), 0)
            if found is not None:
                return found
        for index in range(start, len(removable)):
            u, v = removable[index]
            child = fold.split(u, v)
            removed.append((u, v))
            net_degree[u] -= 1
            net_degree[v] -= 1
            try:
                spec.note_evaluation()
                if candidate_improves(child):
                    return found_move()
                if not removal_prunable(index + 1, child):
                    found = descend_removes_fold(child, index + 1)
                    if found is not None:
                        return found
            finally:
                net_degree[u] += 1
                net_degree[v] += 1
                removed.pop()
        return None

    def descend_removes_engine(start: int) -> CoalitionMove | None:
        """Token-based DFS (general instances): removals walk the engine
        with push/pop, additions still fold on top of each prefix."""
        if addable:
            found = descend_adds(spec.fold(members), 0)
            if found is not None:
                return found
        for index in range(start, len(removable)):
            u, v = removable[index]
            spec.push("remove", u, v)
            removed.append((u, v))
            try:
                spec.note_evaluation()
                if spec.all_improve(members):
                    return found_move()
                if not removal_prunable(index + 1):
                    found = descend_removes_engine(index + 1)
                    if found is not None:
                        return found
            finally:
                removed.pop()
                spec.pop()
        return None

    # The fold DFS needs every removable edge to be splittable, i.e. a
    # bridge of the host graph (bridges stay bridges under deletion,
    # splits touch only removable edges, and additions extend restricted
    # fold copies without feeding back into the removal fold).  On a
    # forest every edge qualifies.
    if all(edge in bridges for edge in removable):
        _FOLD_DFS_RUNS.inc()
        return descend_removes_fold(spec.fold(sorted(touched)), 0)
    _ENGINE_DFS_RUNS.inc()
    return descend_removes_engine(0)


def is_k_strong_equilibrium(
    state: GameState,
    k: int,
    max_evaluations: int = 5_000_000,
) -> bool:
    """Exact k-BSE check (may raise :class:`SearchBudgetExceeded`)."""
    return (
        find_improving_coalition_move(state, k, max_evaluations=max_evaluations)
        is None
    )


def is_strong_equilibrium(
    state: GameState, max_evaluations: int = 5_000_000
) -> bool:
    """Exact BSE (= n-BSE) check (may raise :class:`SearchBudgetExceeded`)."""
    return is_k_strong_equilibrium(state, state.n, max_evaluations=max_evaluations)


def probe_coalition_moves(
    state: GameState,
    rng: RngLike,
    max_coalition_size: int,
    samples: int = 1000,
) -> CoalitionMove | None:
    """Randomized refuter: samples coalitions and random legal moves.

    A returned move is a certified violation; ``None`` proves nothing.
    ``rng`` may be a ``random.Random``, an integer seed, or ``None``
    (seed 0), so probe verdicts are reproducible end-to-end.  Sampled
    candidates are evaluated on the speculative kernel.  A size below 1
    raises ``ValueError``.
    """
    if max_coalition_size < 1:
        raise ValueError(
            f"max_coalition_size must be >= 1, got {max_coalition_size}"
        )
    rng = coerce_rng(rng)
    nodes = list(range(state.n))
    spec = SpeculativeEvaluator(state)
    for _ in range(samples):
        size = rng.randint(1, min(max_coalition_size, state.n))
        coalition = tuple(sorted(rng.sample(nodes, size)))
        removable, addable = _coalition_edge_space(state, coalition)
        removed = tuple(e for e in removable if rng.random() < 0.3)
        added = tuple(e for e in addable if rng.random() < 0.5)
        if not removed and not added:
            continue
        move = CoalitionMove(
            coalition=coalition, removed_edges=removed, added_edges=added
        )
        if spec.move_improves(move):
            return move
    return None
