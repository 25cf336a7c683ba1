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
* **batching semantics** — :meth:`SpeculativeEvaluator.best` sweeps k
  candidates and keeps the move with the largest total beneficiary cost
  drop, breaking ties by enumeration order (first wins); partial
  evaluation state never survives between candidates.  One-edge moves
  (additions, removals, swaps) are evaluated **rows-only** — the add
  identity, the bridge split, the block repair or a BFS from the
  removal's endpoints, never an engine mutation —
  via :meth:`SpeculativeEvaluator.evaluate_rows_only`; only compound
  moves fall back to a per-candidate apply/undo speculation.  Both paths
  produce identical exact deltas, so the sweep's verdicts are
  bit-for-bit those of the speculating path.
* **base snapshot** — deltas compare against the state at evaluator
  construction.  The evaluator is valid as long as the underlying state
  is only mutated *through* its own speculation scopes; apply a move for
  real and the evaluator must be rebuilt.

* **heterogeneous traffic** — when the state carries a non-uniform
  :class:`~repro.core.traffic.TrafficMatrix`, every distance total above
  becomes the demand-weighted row dot product ``sum_v W[u, v] * d(u, v)``
  (base snapshots, live deltas, rows-only evaluations and
  :class:`Fold` totals alike), and the per-agent distance floor used by
  the searchers' size pruning becomes the agent's demand mass.  Uniform
  states bypass all weighted arithmetic and stay bit-exact with the
  historical behaviour.
* **pluggable cost models** — when the state carries a non-linear
  :class:`~repro.core.costmodel.CostModel`, every "distance total" above
  is the model value ``sum_v W[u, v] * f(d(u, v))`` (or the max
  aggregate): base snapshots, live reads, rows-only evaluations and
  :class:`Fold` totals all map hypothetical distance rows through the
  model's int table at the aggregation boundary — the rows themselves
  stay raw distances, so the add identity and the bridge split are
  untouched.  The pruning floor generalises to the model's
  ``floors()`` (demand mass times ``f(1)``, max-weight times ``f(1)``
  for max aggregates), sound because ``f`` is monotone: removals only
  grow distances, hence only grow model values.  Linear models keep
  every historical code path bit-exactly.

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

from repro.core.moves import AddEdge, Move, RemoveEdge, Swap
from repro.core.state import GameState
from repro.graphs.distances import weighted_added_edge_dist_gain
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
        # a non-linear cost model routes every total below through its
        # value arithmetic; the weighted-linear branch is then never
        # taken (the ops object owns the demand matrix itself)
        self._ops = state.model_ops if state.modeled else None
        # heterogeneous traffic: a non-uniform demand matrix switches
        # every distance total below to the weighted row dot product;
        # uniform states keep the historical plain row sums bit-exactly
        self._weights = (
            state.traffic.weights
            if state.weighted and self._ops is None
            else None
        )
        # plain-int snapshots: row sums read straight off the matrix (no
        # forced materialisation of the engine's incremental totals) and
        # the adjacency dict the engine mutates in place, so per-candidate
        # queries cost a handful of C-level ops
        self._adj = self.graph._adj
        if self._ops is not None:
            self._base_totals = [
                int(value) for value in self._ops.totals(self.engine.matrix)
            ]
            # the model's own floor: every destination sits at distance
            # >= 1 and f is monotone, so no value total can ever drop
            # below mass * f(1) (max-weight * f(1) for max aggregates)
            self._floors = [int(value) for value in self._ops.floors()]
        elif self._weights is None:
            self._base_totals = [
                int(value) for value in self.engine.matrix.sum(axis=1)
            ]
            self._floors = None
        else:
            self._base_totals = [
                int(value)
                for value in (self.engine.matrix * self._weights).sum(axis=1)
            ]
            # each positive-demand destination sits at distance >= 1, so
            # an agent's weighted distance total can never drop below its
            # demand mass — the weighted analogue of the n - 1 floor
            self._floors = [
                int(value) for value in self._weights.sum(axis=1)
            ]
        # int64 view of the base totals for the batch kernels' vectorised
        # delta arithmetic (repro.core.batch)
        self._base_totals_arr = np.asarray(self._base_totals, dtype=np.int64)
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
        """``agent``'s distance total (model value when modeled) on the
        live matrix."""
        if self._ops is not None:
            return self._ops.row_value(agent, self.engine.matrix[agent])
        if self._weights is None:
            return int(self.engine.matrix[agent].sum())
        return int((self._weights[agent] * self.engine.matrix[agent]).sum())

    def dist_floor(self, agent: int) -> int:
        """The smallest distance total ``agent`` can ever reach.

        ``n - 1`` uniform (everyone at distance 1); the agent's demand
        mass under a traffic model; the model's ``mass * f(1)`` analogue
        when a cost model is bound (sound since ``f`` is monotone).  The
        lower bound behind the searchers' size pruning.
        """
        if self._floors is None:
            return self.state.n - 1
        return self._floors[agent]

    def row_dist(self, agent: int, row: np.ndarray) -> int:
        """The distance total (model value when modeled) of a hypothetical
        distance row."""
        if self._ops is not None:
            return self._ops.row_value(agent, row)
        if self._weights is None:
            return int(row.sum())
        return int((self._weights[agent] * row).sum())

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
        """Record ``count`` candidate evaluations at once.

        The batch kernels (:mod:`repro.core.batch`) price a whole run of
        candidates in one vectorised pass; charging the run in one call
        keeps the module/instance spies bit-identical to the sequential
        per-candidate loop.
        """
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

    def evaluate_rows_only(self, move: Move) -> MoveEvaluation | None:
        """Exact evaluation of a one-edge move without touching the engine.

        Additions read the one-edge-add identity, removals of bridges the
        two-component split, other removals one BFS from the actor with
        the edge masked out, and swaps compose a removal with the add
        identity (a :class:`Fold` split + extend over ``{actor, old,
        new}`` when the dropped edge is a bridge, the engine's block
        repair of the actor's and partner's rows otherwise) — no matrix
        mutation, no undo token, ever.  Returns ``None`` for
        compound move types (neighborhood / coalition) and inside an
        active speculation scope — deltas compare against the
        construction-time base snapshot, so at depth > 0 only
        :meth:`evaluate` composes correctly with the pushed prefix.
        Where both paths apply they produce bit-identical
        :class:`MoveEvaluation` results.
        """
        if self._stack:
            return None  # base snapshot vs speculated matrix would mix
        if isinstance(move, AddEdge):
            u, v = move.u, move.v
            if self.graph.has_edge(u, v):
                raise ValueError(f"edge {u}-{v} already exists")
            self.note_evaluation()
            gain_u, gain_v = self.add_gain_pair(u, v)
            deltas = (
                (u, self.alpha - gain_u),
                (v, self.alpha - gain_v),
            )
        elif isinstance(move, RemoveEdge):
            actor, other = move.actor, move.other
            self.note_evaluation()
            row = self.engine.rows_after_remove_from(actor, other, (actor,))
            dist_after = self.row_dist(actor, row[0])
            deltas = (
                (actor, dist_after - self._base_totals[actor] - self.alpha),
            )
        elif isinstance(move, Swap):
            actor, old, new = move.actor, move.old, move.new
            if self.graph.has_edge(actor, new):
                raise ValueError(f"edge {actor}-{new} already exists")
            if self.engine.is_bridge(actor, old):
                fold = (
                    self.fold((actor, old, new))
                    .split(actor, old)
                    .extend(actor, new)
                )
                dist_actor = fold.dist_total(actor)
                dist_new = fold.dist_total(new)
            else:
                rows = self.engine.rows_after_remove_from(
                    actor, old, (actor, new)
                )
                dist_actor = self.row_dist(
                    actor, np.minimum(rows[0], 1 + rows[1])
                )
                dist_new = self.row_dist(
                    new, np.minimum(rows[1], 1 + rows[0])
                )
            self.note_evaluation()
            deltas = (
                (actor, Fraction(dist_actor - self._base_totals[actor])),
                (new, dist_new - self._base_totals[new] + self.alpha),
            )
        else:
            return None
        improving = all(value < 0 for _, value in deltas)
        return MoveEvaluation(
            move=move, cost_deltas=deltas, improving=improving
        )

    def best(
        self, moves: Iterable[Move]
    ) -> tuple[Move, MoveEvaluation] | None:
        """Sweep candidates and keep the largest total cost drop.

        Runs of same-type one-edge moves are priced **pool-at-once**
        through the batch kernels of :mod:`repro.core.batch` (one
        vectorised outer-min for additions, side-mask / endpoint-BFS
        batches for removals, block-repair batches for swaps) — no
        engine mutation at all;
        compound moves fall back to one speculation each.  The batched
        sweep is bit-identical to the sequential rows-only loop
        (:meth:`evaluate_rows_only` per candidate), which remains the
        path inside active speculation scopes and under
        ``REPRO_BATCH=0``.  Ties break by enumeration order (the first
        best candidate wins); returns ``None`` for an empty stream.
        """
        from repro.core import batch

        if not self._stack and batch.ENABLED:
            with _trace.span("engine.sweep", arm="batched"):
                return batch.sweep_best(self, moves)
        with _trace.span("engine.sweep", arm="sequential"):
            return self._best_sequential(moves)

    def _best_sequential(
        self, moves: Iterable[Move]
    ) -> tuple[Move, MoveEvaluation] | None:
        """The per-candidate reference sweep behind :meth:`best`."""
        best_move: Move | None = None
        best_eval: MoveEvaluation | None = None
        for move in moves:
            evaluation = self.evaluate_rows_only(move)
            if evaluation is None:
                evaluation = self.evaluate(move)
            if (
                best_eval is None
                or evaluation.total_delta < best_eval.total_delta
            ):
                best_move = move
                best_eval = evaluation
        if best_move is None or best_eval is None:
            return None
        return best_move, best_eval

    # -- delegated speculative queries (engine fast paths) ------------------

    def add_gain_pair(self, u: int, v: int) -> tuple[int, int]:
        """(Weighted/model-valued) distance gains of both endpoints when
        edge ``uv`` is added (one-edge-add identity; no mutation, no
        search)."""
        if self._ops is not None:
            matrix = self.engine.matrix
            new_u = np.minimum(matrix[u], 1 + matrix[v])
            new_v = np.minimum(matrix[v], 1 + matrix[u])
            return (
                self._ops.row_value(u, matrix[u])
                - self._ops.row_value(u, new_u),
                self._ops.row_value(v, matrix[v])
                - self._ops.row_value(v, new_v),
            )
        if self._weights is None:
            return self.engine.add_gain(u, v), self.engine.add_gain(v, u)
        matrix = self.engine.matrix
        return (
            weighted_added_edge_dist_gain(matrix, self._weights[u], u, v),
            weighted_added_edge_dist_gain(matrix, self._weights[v], v, u),
        )

    def remove_loss_pair(self, u: int, v: int) -> tuple[int, int]:
        """(Weighted/model-valued) distance losses of both endpoints when
        edge ``uv`` is removed (a matrix read for bridges — each side
        charged by its demand mass toward the far side — one BFS per
        endpoint otherwise; no mutation)."""
        if self._weights is None and self._ops is None:
            return self.engine.remove_loss_pair(u, v)
        row_u, row_v = self.engine.rows_after_remove(u, v)
        return (
            self.row_dist(u, row_u) - self.current_dist(u),
            self.row_dist(v, row_v) - self.current_dist(v),
        )

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
        if self._ops is not None:
            weights = (
                None
                if self._ops.weights is None
                else self._ops.weights[order]
            )
            return Fold(
                index,
                self.engine.matrix[order],
                self.engine.unreachable,
                weights,
                f_apply=self._ops.apply_f,
                f_max=self._ops.aggregate == "max",
            )
        weights = None if self._weights is None else self._weights[order]
        return Fold(
            index, self.engine.matrix[order], self.engine.unreachable, weights
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
    endpoints join the tracked set on forest instances) and for the
    dynamics schedulers' rows-only sweep over a round's move pool
    (:meth:`SpeculativeEvaluator.best`).
    """

    __slots__ = (
        "_index", "_rows", "_unreachable", "_weights", "_f_apply", "_f_max"
    )

    def __init__(
        self,
        index: dict,
        rows: np.ndarray,
        unreachable: int,
        weights: np.ndarray | None = None,
        f_apply=None,
        f_max: bool = False,
    ):
        self._index = index
        self._rows = rows
        self._unreachable = unreachable
        # demand rows of the tracked nodes (aligned with ``rows``); None
        # means uniform traffic and plain row sums
        self._weights = weights
        # cost-model value map and aggregate flag: rows stay raw
        # distances, the map applies only inside dist_total
        self._f_apply = f_apply
        self._f_max = f_max

    def restrict(self, nodes: Sequence[int]) -> "Fold":
        """A fold tracking only ``nodes`` (e.g. drop removable-edge
        endpoints before an addition-only suffix — extends get cheaper)."""
        order = list(nodes)
        index = {node: position for position, node in enumerate(order)}
        positions = [self._index[node] for node in order]
        return Fold(
            index,
            self._rows[positions],
            self._unreachable,
            None if self._weights is None else self._weights[positions],
            f_apply=self._f_apply,
            f_max=self._f_max,
        )

    def extend(self, u: int, v: int) -> "Fold":
        """A new fold with edge ``uv`` added (both endpoints tracked)."""
        index = self._index
        rows = self._rows
        row_u = rows[index[u]]
        row_v = rows[index[v]]
        folded = np.minimum(rows, rows[:, u, None] + (row_v + 1))
        np.minimum(folded, rows[:, v, None] + (row_u + 1), out=folded)
        return Fold(
            index, folded, self._unreachable, self._weights,
            f_apply=self._f_apply, f_max=self._f_max,
        )

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
        return Fold(
            index, folded, self._unreachable, self._weights,
            f_apply=self._f_apply, f_max=self._f_max,
        )

    def dist_total(self, node: int) -> int:
        """Exact distance total (model value when a cost model is bound)
        of a tracked node under the folded deltas."""
        position = self._index[node]
        row = self._rows[position]
        if self._f_apply is not None:
            values = self._f_apply(row)
            if self._weights is not None:
                values = self._weights[position] * values
            if self._f_max:
                return int(values.max())
            return int(values.sum())
        if self._weights is None:
            return int(row.sum())
        return int((self._weights[position] * row).sum())
