"""Speculative move-evaluation kernel: one engine-backed "cost after
hypothetical move" path for every solution concept.

Every checker and searcher in the repo answers the same question — *what
would agent u's cost be if this candidate move were applied?* — thousands
to millions of times.  :class:`SpeculativeEvaluator` is the single code
path that answers it.  It wraps a :class:`~repro.core.state.GameState`'s
cached :class:`~repro.graphs.distances.DistanceMatrix` and evaluates a
candidate by *applying* its one-edge deltas in place (``apply_add`` /
``apply_remove``), reading exact post-move degrees and distance totals,
and rolling everything back through the engine's LIFO undo tokens.

Contract (extends the PR-1 engine contract):

* **undo-token discipline** — every speculation scope collects its tokens
  and undoes them in strict LIFO order on exit, including on exceptions
  and early returns; a scope never leaks a token, so the shared matrix,
  graph, CSR cache and totals are bit-exactly restored no matter how the
  caller unwinds.  Scopes nest freely (nested tokens are younger, hence
  undone first), which lets searchers amortise a shared edge-removal
  prefix across many candidate add-sets.
* **exactness per move type** — additions update by the outer-min
  identity (exact, no search), *bridge* removals on any graph by the
  two-component split read off the engine's incrementally maintained
  bridge set (exact, no search; forests are the special case where every
  edge qualifies), remaining removals by the engine's block repair of
  the changed rows (exact, no search).  Cost
  comparisons reduce to ``alpha * d_buy < -d_dist`` — the exact
  ``Fraction``/int comparison of
  :func:`repro.core.costs.cost_strictly_less`, with a pure-integer fast
  path when the buying cost is unchanged — so a kernel verdict can never
  differ from a from-scratch recomputation.
* **reduction semantics** — :meth:`SpeculativeEvaluator.best` keeps the
  move with the largest total beneficiary cost drop, breaking ties by
  enumeration order (first wins).  Given a priced
  :class:`~repro.core.batch.MovePool` it only reduces the deltas the
  one-edge scans already computed (:mod:`repro.core.batch`), with no
  engine mutation and no second pricing; any other iterable, and
  compound moves, are priced one apply/undo speculation per candidate,
  and partial evaluation state never survives between candidates.
* **base snapshot** — deltas compare against the state at evaluator
  construction.  The evaluator is valid as long as the underlying state
  is only mutated *through* its own speculation scopes; apply a move for
  real and the evaluator must be rebuilt.  ``best`` refuses to run
  inside an active scope.
* **one valuation** — every "distance total" above is a row value under
  the state's :class:`~repro.core.costmodel.Valuation`,
  ``agg_v W[u, v] * f(d(u, v))`` (base snapshots, live reads, batch
  kernels and :class:`Fold` totals alike): hypothetical distance rows
  are mapped at the aggregation boundary, so the add identity and the
  bridge split are untouched.  The pruning floor is the valuation's
  ``floors()`` (``n - 1`` in the paper's game, demand mass times
  ``f(1)``, max-weight times ``f(1)`` for max aggregates), sound because
  ``f`` is monotone: removals only grow distances, hence only grow
  values.  The paper's game values rows by plain row sums.

The module-level :data:`EVALUATIONS` spy counts candidate evaluations so
tests can assert that a refactored searcher inspects exactly the same
number of candidates as its reference implementation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from repro.core import batch
from repro.core.moves import Move
from repro.core.state import GameState
from repro.obs import metrics as _obs
from repro.obs import trace as _trace

__all__ = [
    "Fold",
    "MoveEvaluation",
    "SpeculativeEvaluator",
    "evaluation_count",
]

#: Number of candidate-move evaluations since import — a test spy used to
#: assert budget accounting is unchanged across searcher refactors.
#: Registry-backed; ``speculative.EVALUATIONS`` stays a read-only alias
#: via module ``__getattr__``.
_EVALUATIONS = _obs.counter(
    "repro_engine_evaluations_total", "speculative candidate evaluations"
)


def __getattr__(name: str) -> int:
    if name == "EVALUATIONS":
        return _EVALUATIONS.value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def evaluation_count() -> int:
    """How many candidate moves have been speculatively evaluated."""
    return _EVALUATIONS.value


@dataclass(frozen=True)
class MoveEvaluation:
    """Exact outcome of one speculative move evaluation.

    ``cost_deltas`` maps each evaluated agent to ``cost_after -
    cost_before`` (an exact ``Fraction``); ``improving`` is whether every
    evaluated agent strictly improves — i.e. whether the move is an
    improving move of a concept whose beneficiary set equals ``agents``.
    """

    move: Move
    cost_deltas: tuple[tuple[int, Fraction], ...]
    improving: bool

    def delta(self, agent: int) -> Fraction:
        for who, value in self.cost_deltas:
            if who == agent:
                return value
        raise KeyError(f"agent {agent} was not evaluated for this move")

    @property
    def total_delta(self) -> Fraction:
        """Sum of the evaluated agents' cost changes (negative = drop)."""
        return sum((value for _, value in self.cost_deltas), Fraction(0))


class SpeculativeEvaluator:
    """Engine-backed evaluation of hypothetical moves on one state.

    Construction materialises the state's distance engine and snapshots
    base degrees and distance totals; every query inside a speculation
    scope compares the live engine against that snapshot.
    """

    def __init__(self, state: GameState):
        self.state = state
        self.engine = state.dist  # materialises the cached APSP once
        self.graph = state.graph  # the same object the engine mutates
        self.alpha = state.alpha
        #: the state's bound value algebra: every distance total below is
        #: a row value under it (plain row sums in the paper's game)
        self.valuation = state.valuation
        # plain-int snapshots: row values read straight off the matrix (no
        # forced materialisation of the engine's incremental totals) and
        # the adjacency dict the engine mutates in place, so per-candidate
        # queries cost a handful of C-level ops
        self._adj = self.graph._adj
        self._base_totals = self.valuation.rows_value(
            self.engine.matrix
        ).tolist()
        # no value total can ever drop below the valuation's floor (every
        # destination at distance >= 1, f monotone): n - 1 in the paper's
        # game, the demand mass under traffic, mass * f(1) under a model
        self._floors = self.valuation.floors(state.n).tolist()
        self._base_degrees = [len(self._adj[u]) for u in range(state.n)]
        # numerator/denominator of alpha for pure-integer comparisons
        self._alpha_num = self.alpha.numerator
        self._alpha_den = self.alpha.denominator
        self._stack = []  # undo tokens of the active speculation, LIFO
        #: candidate evaluations performed through this evaluator
        self.evaluations = 0

    # -- speculation scopes -------------------------------------------------

    def push(self, op: str, u: int, v: int) -> None:
        """Apply one speculative edge delta (paired with :meth:`pop`).

        The DFS-style searchers drive the stack directly so that sibling
        candidates share their common op prefix: each enumerated subset
        then costs exactly one apply + one undo.
        """
        if op == "add":
            self._stack.append(self.engine.apply_add(u, v))
        elif op == "remove":
            self._stack.append(self.engine.apply_remove(u, v))
        else:
            raise ValueError(f"unknown edge delta {op!r}")

    def pop(self) -> None:
        """Undo the most recent :meth:`push` (strict LIFO)."""
        self.engine.undo(self._stack.pop())

    @property
    def depth(self) -> int:
        """Number of speculative deltas currently applied."""
        return len(self._stack)

    @contextmanager
    def applied(self, deltas: Iterable[tuple[str, int, int]]):
        """Apply ordered one-edge deltas; undo them all (LIFO) on exit.

        Safe against exceptions and early exits mid-application: the
        scope unwinds back to its entry depth no matter what.
        """
        entry_depth = len(self._stack)
        try:
            for op, u, v in deltas:
                self.push(op, u, v)
            yield self
        finally:
            while len(self._stack) > entry_depth:
                self.pop()

    @contextmanager
    def speculate(self, move: Move):
        """Apply a whole :class:`~repro.core.moves.Move` speculatively."""
        with self.applied(move.edge_deltas()):
            yield self

    # -- queries valid inside a speculation scope ---------------------------

    def buy_delta(self, agent: int) -> int:
        """Change in the number of edges ``agent`` pays for."""
        return len(self._adj[agent]) - self._base_degrees[agent]

    def current_dist(self, agent: int) -> int:
        """``agent``'s distance total (its row value) on the live matrix."""
        return self.valuation.row_value(agent, self.engine.matrix[agent])

    def dist_floor(self, agent: int) -> int:
        """The smallest distance total ``agent`` can ever reach.

        ``n - 1`` in the paper's game (everyone at distance 1); the
        agent's demand mass under a traffic model; ``mass * f(1)`` under
        a cost model (sound since ``f`` is monotone).  The lower bound
        behind the searchers' size pruning.
        """
        return self._floors[agent]

    def dist_delta(self, agent: int) -> int:
        """Exact change in ``agent``'s total distance cost."""
        return self.current_dist(agent) - self._base_totals[agent]

    def cost_delta(self, agent: int) -> Fraction:
        """``cost_after - cost_before`` for ``agent`` (exact)."""
        return self.alpha * self.buy_delta(agent) + self.dist_delta(agent)

    def base_cost(self, agent: int) -> Fraction:
        """``cost(agent)`` in the un-speculated base state."""
        return self.alpha * self._base_degrees[agent] + self._base_totals[agent]

    def base_dist(self, agent: int) -> int:
        """``dist(agent)`` in the un-speculated base state."""
        return self._base_totals[agent]

    def improves(self, agent: int) -> bool:
        """Whether ``agent``'s total cost strictly drops (exact).

        Semantically :func:`repro.core.costs.cost_strictly_less`, with a
        pure-integer fast path when the agent's buying cost is unchanged.
        """
        buy_delta = len(self._adj[agent]) - self._base_degrees[agent]
        dist_new = self.current_dist(agent)
        if buy_delta == 0:
            return dist_new < self._base_totals[agent]
        return self._alpha_num * buy_delta < (
            self._base_totals[agent] - dist_new
        ) * self._alpha_den

    def all_improve(self, agents: Sequence[int]) -> bool:
        """Whether every agent in ``agents`` strictly improves."""
        return all(self.improves(agent) for agent in agents)

    def alpha_lt(self, count: int, bound: int) -> bool:
        """Exact ``alpha * count < bound`` in pure-integer arithmetic.

        The hot-loop form of the strict-improvement comparison: cross-
        multiplying by alpha's (positive) denominator avoids building a
        ``Fraction`` per candidate.
        """
        return self._alpha_num * count < bound * self._alpha_den

    # -- whole-move conveniences (each counts one evaluation) ---------------

    def note_evaluation(self) -> None:
        """Record one candidate evaluation (for budget-accounting spies).

        Searchers that drive :meth:`applied` scopes by hand call this once
        per candidate; :meth:`move_improves` / :meth:`evaluate` call it
        automatically.
        """
        _EVALUATIONS.inc()
        self.evaluations += 1

    def note_evaluations(self, count: int) -> None:
        """Record ``count`` candidate evaluations at once: :meth:`best`
        charges a whole priced run, as the per-candidate loop would."""
        _EVALUATIONS.inc(count)
        self.evaluations += count

    def move_improves(
        self, move: Move, agents: Sequence[int] | None = None
    ) -> bool:
        """Whether ``move`` strictly improves every agent in ``agents``
        (default: the move's beneficiaries)."""
        self.note_evaluation()
        if agents is None:
            agents = move.beneficiaries()
        with self.speculate(move):
            return self.all_improve(agents)

    def evaluate(
        self, move: Move, agents: Sequence[int] | None = None
    ) -> MoveEvaluation:
        """Exact per-agent cost deltas of ``move`` (matrix untouched after)."""
        self.note_evaluation()
        if agents is None:
            agents = move.beneficiaries()
        with self.speculate(move):
            deltas = tuple((agent, self.cost_delta(agent)) for agent in agents)
        improving = all(value < 0 for _, value in deltas)
        return MoveEvaluation(move=move, cost_deltas=deltas, improving=improving)

    def best(
        self, moves: Iterable[Move]
    ) -> tuple[Move, MoveEvaluation] | None:
        """The candidate with the largest total cost drop.

        A :class:`~repro.core.batch.MovePool` is reduced over the prices
        its scans computed (:func:`repro.core.batch.sweep_best`); any
        other iterable is priced one apply/undo evaluation per candidate.
        Either way the evaluation spies advance by the number of
        candidates, the first best candidate wins ties, and an empty
        stream returns ``None``.

        Deltas compare against the construction-time base snapshot, so
        the reduction cannot compose with a pushed prefix: it raises
        ``RuntimeError`` inside an active speculation scope, and
        ``ValueError`` on a pool built from another state.
        """
        if self._stack:
            raise RuntimeError(
                "best() prices against the base snapshot; it cannot run "
                "inside an active speculation scope"
            )
        if isinstance(moves, batch.MovePool) and moves.state is not self.state:
            raise ValueError("the move pool was built from another state")
        with _trace.span("engine.sweep"):
            return batch.sweep_best(self, moves)

    # -- delegated speculative queries (engine fast paths) ------------------

    def is_bridge(self, u: int, v: int) -> bool:
        """Whether edge ``uv`` is a bridge of the current (speculated)
        graph — O(1) off the engine's maintained bridge set.  Gates the
        search-free removal paths and :meth:`Fold.split`."""
        return self.engine.is_bridge(u, v)

    def fold(self, nodes: Sequence[int]) -> "Fold":
        """Rows-only view of ``nodes`` for query-evaluated move suffixes.

        Seeds a :class:`Fold` from the engine's *current* matrix (any
        pushed deltas are reflected), after which whole addition subsets
        — and removal subsets whose dropped edges are bridges of the
        folded graph — evaluate without touching the engine at all.
        Under a traffic model the fold carries the tracked agents'
        demand rows, so its ``dist_total`` answers are weighted; under a
        cost model it carries the model's value map and aggregate, so
        ``dist_total`` answers are model values (the rows themselves stay
        raw distances — extend/split are untouched).
        """
        order = list(nodes)
        index = {node: position for position, node in enumerate(order)}
        return Fold(
            index, self.engine.matrix[order], self.engine.unreachable,
            self.valuation,
        )


class Fold:
    """Exact distance rows of tracked nodes under hypothetical deltas.

    The one-edge-add identity ``d'(x, y) = min(d(x, y), d(x, u) + 1 +
    d(v, y), d(x, v) + 1 + d(u, y))`` closes over any row set that
    contains both endpoints of every folded edge: all quantities on the
    right live in the tracked rows.  Folding edges one at a time is
    therefore exact, and a DFS over addition subsets can branch by
    keeping the parent fold and extending copies — ``O(|tracked| * n)``
    per candidate, no matrix mutation, no undo, no search.

    The same closure holds for removing any **bridge** of the folded
    graph (forest edges are the special case where every edge qualifies):
    deleting bridge ``uv`` sends exactly the cross pairs between
    ``{x : d(x, u) < d(x, v)}`` and ``{x : d(x, v) < d(x, u)}`` to the
    unreachable sentinel and changes nothing else — ties occur only for
    nodes in other components, whose rows are correctly left untouched.
    Both side masks are read off the tracked endpoint rows
    (:meth:`split`; the caller is responsible for only splitting edges
    that are bridges of the *folded* graph — e.g. certified by
    :meth:`SpeculativeEvaluator.is_bridge` before any fold deltas, or by
    folding on a forest, where removals preserve and additions break the
    property).

    This is the kernel's batch fast path for the BNE and coalition
    searches (their added edges always live inside the tracked set:
    center plus willing partners, or the coalition; removable-edge
    endpoints join the tracked set on forest instances).
    """

    __slots__ = ("_index", "_rows", "_unreachable", "_valuation")

    def __init__(
        self, index: dict, rows: np.ndarray, unreachable: int, valuation
    ):
        self._index = index
        self._rows = rows
        self._unreachable = unreachable
        # rows stay raw distances; the valuation applies only inside
        # dist_total
        self._valuation = valuation

    def restrict(self, nodes: Sequence[int]) -> "Fold":
        """A fold tracking only ``nodes`` (e.g. drop removable-edge
        endpoints before an addition-only suffix — extends get cheaper)."""
        order = list(nodes)
        index = {node: position for position, node in enumerate(order)}
        positions = [self._index[node] for node in order]
        return Fold(
            index, self._rows[positions], self._unreachable, self._valuation
        )

    def extend(self, u: int, v: int) -> "Fold":
        """A new fold with edge ``uv`` added (both endpoints tracked)."""
        index = self._index
        rows = self._rows
        row_u = rows[index[u]]
        row_v = rows[index[v]]
        folded = np.minimum(rows, rows[:, u, None] + (row_v + 1))
        np.minimum(folded, rows[:, v, None] + (row_u + 1), out=folded)
        return Fold(index, folded, self._unreachable, self._valuation)

    def split(self, u: int, v: int) -> "Fold":
        """A new fold with bridge ``uv`` removed (endpoints tracked).

        Exact exactly when ``uv`` is a bridge of the folded graph (every
        path between the cut sides crossed ``uv``, so
        ``d(x, u) != d(x, v)`` for every ``x`` in their component; nodes
        of other components tie and are correctly untouched).  Forests
        are the classic case — there every edge qualifies.
        """
        index = self._index
        rows = self._rows
        row_u = rows[index[u]]
        row_v = rows[index[v]]
        cols_u_side = row_u < row_v
        cols_v_side = row_v < row_u
        tracked_u_side = rows[:, u] < rows[:, v]
        tracked_v_side = rows[:, v] < rows[:, u]
        cross = tracked_u_side[:, None] & cols_v_side[None, :]
        cross |= tracked_v_side[:, None] & cols_u_side[None, :]
        folded = rows.copy()
        folded[cross] = self._unreachable
        return Fold(index, folded, self._unreachable, self._valuation)

    def dist_total(self, node: int) -> int:
        """Exact distance total (row value under the state's valuation)
        of a tracked node under the folded deltas."""
        return self._valuation.row_value(node, self._rows[self._index[node]])
