"""Pluggable distance-cost models and the one value algebra of the stack.

The paper's cost function is the linear distance sum, but the same
authors' follow-up (*Cooperation in Bilateral Generalized Network
Creation*, arXiv 2510.00239) generalizes it to

    cost(u) = alpha * deg(u) + sum_v W[u, v] * f(d(u, v))

for a monotone non-decreasing ``f`` — concave regimes (nearby agents
matter, far ones barely more), convex regimes (long detours are
punishing) — plus the **max/eccentricity objective**
``max_v W[u, v] * f(d(u, v))``.  A :class:`CostModel` names one ``(f,
aggregate)`` pair; :class:`~repro.core.traffic.TrafficMatrix` names
``W``.

Every regime the repo serves is one triple ``(W, f, aggregate)``, and
:class:`Valuation` is that triple bound to one game.
:func:`bind_valuation` builds it — together with the distance sentinel
``M`` and every int64 headroom check — once per
:class:`~repro.core.state.GameState`, and every layer (distance engine,
speculative kernel, batch kernels, checkers, move generators) reads
distance rows through it.  The paper's game binds to the shared
:data:`UNIFORM_LINEAR`, whose rows are plain row sums.

Exactness contract (mirrors :mod:`repro.core.traffic`):

* ``f`` is realised as an **int64 lookup table** ``f(0..n-1)`` with
  ``f(0) = 0`` and ``f`` monotone non-decreasing — so every model value
  is an exact integer and cost comparisons stay exact ``Fraction``-vs-int
  (:class:`ConcaveCost` floors ``scale * d**(p/q)`` through an exact
  integer root, never a float; a table past int64 raises ``ValueError``);
* unreachable pairs carry the **value sentinel** ``F`` (the aggregate-
  space analogue of the distance big-M, sized by
  :meth:`CostModel.unreachable_cost` so that reconnecting one
  positive-demand pair dominates any buying saving plus any real value
  total);
* :class:`LinearCost` *is* the paper's game: it binds without a table
  (identity ``f``, the distance sentinel ``M`` as its own value), so
  its costs are byte-identical to no model at all — the same discipline
  as ``TrafficMatrix.uniform``;
* monotonicity is what keeps the searchers' pruning sound: removals only
  grow distances, so with ``f`` non-decreasing they only grow model
  values — the ``dist_floor`` bounds of the BNE/k-BSE DFS
  (:meth:`Valuation.floors`) remain valid lower bounds.

Every model carries a lossless JSON-able ``spec``
(:func:`costmodel_from_spec` is the inverse) so campaign trials naming a
regime stay content-addressed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Mapping, Sequence

import numpy as np

from repro._alpha import big_m, fits_int64
from repro.core.traffic import TrafficMatrix, _int_field, traffic_from_spec

__all__ = [
    "ConcaveCost",
    "ConvexCost",
    "CostModel",
    "LinearCost",
    "MaxCost",
    "TableCost",
    "UNIFORM_LINEAR",
    "Valuation",
    "bind_valuation",
    "costmodel_from_spec",
    "integer_root",
    "regime_from_spec",
]


def integer_root(value: int, k: int) -> int:
    """Exact ``floor(value ** (1/k))`` for non-negative integers.

    Pure-integer Newton iteration from a power of two above the root:
    the iterates fall monotonically onto the floor root, in a number of
    steps logarithmic in ``value`` — no floats, so any magnitude is
    exact and none overflows.
    """
    if k <= 0:
        raise ValueError("the root index must be positive")
    if value < 0:
        raise ValueError("integer roots need a non-negative radicand")
    if value == 0 or k == 1:
        return value
    if value.bit_length() <= k:
        return 1  # 1 <= value < 2**k
    root = 1 << -(-value.bit_length() // k)
    while True:
        below = ((k - 1) * root + value // root ** (k - 1)) // k
        if below >= root:
            return root
        root = below


#: Largest radicand, in bits, a :class:`ConcaveCost` table may root.  An
#: int64 table has radicands below ``2**(63 q)``, so every one with an
#: exponent denominator ``q <= 63`` passes; a root at the cap takes <1 ms.
_MAX_RADICAND_BITS = 4096


def _int64_overflow() -> ValueError:
    return ValueError("cost table values exceed int64 (exact arithmetic)")


def _int64_table(values) -> np.ndarray:
    """Exact integer table values as int64 (``ValueError`` past int64)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise _int64_overflow() from None


def _validate_table(table: np.ndarray) -> np.ndarray:
    """Enforce the table contract: int64, ``f(0) = 0``, monotone, exact."""
    table = np.asarray(table)
    if table.ndim != 1 or table.size == 0:
        raise ValueError("a cost table must be a non-empty 1-d array")
    if not np.issubdtype(table.dtype, np.integer):
        raise ValueError("cost tables must be integer-valued (exact arithmetic)")
    table = table.astype(np.int64)
    if int(table[0]) != 0:
        raise ValueError("cost tables must satisfy f(0) = 0")
    if table.size > 1 and (np.diff(table) < 0).any():
        raise ValueError("cost tables must be monotone non-decreasing")
    table.setflags(write=False)
    return table


class CostModel:
    """One distance-cost regime ``(f, aggregate)``.

    Subclasses fix :attr:`kind`, :attr:`aggregate` (``"sum"`` or
    ``"max"``) and implement :meth:`table` / :attr:`spec`.  Instances
    hash/compare by spec (value semantics, like
    :class:`~repro.core.traffic.TrafficMatrix`).
    """

    kind: str = "abstract"
    aggregate: str = "sum"

    @property
    def is_linear(self) -> bool:
        """Whether this model is the paper's linear sum.

        ``True`` binds without a table (:func:`bind_valuation`), so the
        game's costs are byte-identical to no model at all — the
        cost-model analogue of uniform traffic.
        """
        return False

    def table(self, n: int) -> np.ndarray:
        """The int64 lookup table ``f(0..n-1)`` (read-only)."""
        raise NotImplementedError

    @property
    def spec(self) -> dict[str, Any]:
        """A lossless JSON-able description (for campaign content hashes)."""
        raise NotImplementedError

    def unreachable_cost(self, n: int, alpha: Fraction, max_row_mass: int) -> int:
        """The value sentinel ``F`` for unreachable pairs.

        Sized so one unit of unmet demand dominates any buying saving
        (``<= alpha * n``) plus any real value total
        (``<= max_row_mass * f(n - 1)``) — the aggregate-space analogue
        of :func:`repro._alpha.big_m`, and strictly above every real
        table value.
        """
        top = int(self.table(n)[-1])
        return (
            math.floor(alpha * n)
            + (int(max_row_mass) + 1) * max(top, 1)
            + 1
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CostModel):
            return NotImplemented
        return self.spec == other.spec

    def __hash__(self) -> int:
        return hash(_freeze(self.spec))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec!r})"


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, _freeze(item)) for key, item in value.items()))
    return value


class LinearCost(CostModel):
    """The paper's game: ``f(d) = d``, sum aggregate (binds without a
    table, byte-exact)."""

    kind = "linear"

    @property
    def is_linear(self) -> bool:
        return True

    def table(self, n: int) -> np.ndarray:
        return _validate_table(np.arange(n, dtype=np.int64))

    @property
    def spec(self) -> dict[str, Any]:
        return {"model": "linear"}


class ConcaveCost(CostModel):
    """``f(d) = floor(scale * d**exponent)`` for a rational exponent in
    ``(0, 1]`` — computed exactly as the integer ``q``-th root of
    ``scale**q * d**p`` (no float ever touches a cost)."""

    kind = "concave"

    def __init__(self, exponent=Fraction(1, 2), scale: int = 1):
        exponent = (
            exponent
            if isinstance(exponent, Fraction)
            else Fraction(str(exponent))
        )
        if not 0 < exponent <= 1:
            raise ValueError("a concave exponent must lie in (0, 1]")
        self.exponent = exponent
        self.scale = _int_field("scale", scale)
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")

    def table(self, n: int) -> np.ndarray:
        p, q = self.exponent.numerator, self.exponent.denominator
        # ceil(log2 x) = (x - 1).bit_length() bounds the largest radicand
        # scale**q * (n - 1)**p before it is formed
        bits = q * (self.scale - 1).bit_length() + p * (n - 2).bit_length()
        if bits >= _MAX_RADICAND_BITS:
            raise ValueError(
                f"concave cost table radicands exceed {_MAX_RADICAND_BITS} "
                "bits (exact int64 arithmetic)"
            )
        values = [
            integer_root(self.scale**q * d**p, q) for d in range(n)
        ]
        return _validate_table(_int64_table(values))

    @property
    def spec(self) -> dict[str, Any]:
        return {
            "model": "concave",
            "exponent": str(self.exponent),
            "scale": self.scale,
        }


class ConvexCost(CostModel):
    """``f(d) = scale * d**exponent`` for an integer exponent ``>= 1``."""

    kind = "convex"

    def __init__(self, exponent: int = 2, scale: int = 1):
        self.exponent = _int_field("exponent", exponent)
        self.scale = _int_field("scale", scale)
        if self.exponent < 1:
            raise ValueError("a convex exponent must be an integer >= 1")
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")

    def table(self, n: int) -> np.ndarray:
        # scale * top**exponent is at least 2**(s + exponent * t): decide
        # the overflow before forming any power
        top = n - 1
        s, t = self.scale.bit_length() - 1, top.bit_length() - 1
        if top and s + self.exponent * t >= 63:
            raise _int64_overflow()
        values = [self.scale * d**self.exponent for d in range(n)]
        return _validate_table(_int64_table(values))

    @property
    def spec(self) -> dict[str, Any]:
        return {
            "model": "convex",
            "exponent": self.exponent,
            "scale": self.scale,
        }


class MaxCost(CostModel):
    """The eccentricity objective: ``cost(u) = alpha*deg(u) +
    max_v W[u, v] * d(u, v)`` (``f`` is the identity, max aggregate)."""

    kind = "max"
    aggregate = "max"

    def table(self, n: int) -> np.ndarray:
        return _validate_table(np.arange(n, dtype=np.int64))

    @property
    def spec(self) -> dict[str, Any]:
        return {"model": "max"}


class TableCost(CostModel):
    """An explicit ``f`` table — any monotone integer values with
    ``f(0) = 0``; must cover every distance ``0..n-1`` of the game it is
    used in."""

    kind = "table"

    def __init__(self, values: Sequence[int]):
        self.values = _validate_table(
            _int64_table([_int_field("values", value) for value in values])
        )

    def table(self, n: int) -> np.ndarray:
        if self.values.size < n:
            raise ValueError(
                f"cost table covers distances 0..{self.values.size - 1}, "
                f"the game needs 0..{n - 1}"
            )
        table = self.values[:n].copy()
        table.setflags(write=False)
        return table

    @property
    def spec(self) -> dict[str, Any]:
        return {"model": "table", "values": [int(v) for v in self.values]}


class Valuation:
    """One cost regime ``(W, f, aggregate)`` bound to one game.

    The one value algebra every layer reads distances through:
    ``value(u) = agg_v W[u, v] * f(d(u, v))``.  ``weights`` is an int64
    demand matrix or ``None`` (every off-diagonal demand 1); ``table`` is
    the int64 ``f(0..n-1)`` or ``None`` (``f`` the identity, so the
    distance sentinel ``M`` is its own value); ``sentinel`` is the value
    ``F`` of an unreachable pair under a table; ``aggregate`` is ``"sum"``
    or ``"max"``.  Built by :func:`bind_valuation`, which owns every size
    and int64 headroom check.

    The paper's game — no demands, identity ``f``, a sum — is
    :data:`UNIFORM_LINEAR`, one shared instance for every ``n``: its rows
    are valued by plain row sums, with no demand multiply and no table
    lookup, so it stays byte-exact and allocates nothing per state.
    """

    __slots__ = (
        "weights", "table", "sentinel", "aggregate", "uniform_linear",
        "full_support",
    )

    def __init__(
        self,
        weights: np.ndarray | None = None,
        table: np.ndarray | None = None,
        sentinel: int | None = None,
        aggregate: str = "sum",
    ):
        if aggregate not in ("sum", "max"):
            raise ValueError(f"unknown aggregate {aggregate!r}")
        if table is not None:
            table = _validate_table(table)
            if sentinel is None or int(sentinel) <= int(table[-1]):
                raise ValueError(
                    "the value sentinel must exceed every real table value"
                )
            sentinel = int(sentinel)
        self.weights = weights
        self.table = table
        self.sentinel = sentinel
        self.aggregate = aggregate
        #: the paper's game: plain row sums everywhere
        self.uniform_linear = (
            weights is None and table is None and aggregate == "sum"
        )
        #: every off-diagonal demand is positive (the diagonal is zero), so
        #: disconnecting anyone adds a sentinel to a sum, or lifts a finite
        #: max to one: bridges never pay (a sum, or a max on a connected
        #: graph), and the removal scans skip trees
        self.full_support = weights is None or (
            np.count_nonzero(weights) == weights.shape[0] * (weights.shape[0] - 1)
        )

    def values(self, dist: np.ndarray) -> np.ndarray:
        """``f`` entry-wise over a distance array; sentinel distances
        (``d >= n``, exact because real distances are at most ``n - 1``)
        map to ``F``.  The identity returns ``dist`` itself."""
        table = self.table
        if table is None:
            return dist
        dist = np.asarray(dist)
        top = table.size - 1
        values = table[np.minimum(dist, top)]
        unreachable = dist > top
        if unreachable.any():
            values[unreachable] = self.sentinel
        return values

    def rows_value(self, rows: np.ndarray, owners=None) -> np.ndarray:
        """Per-row values of a distance row stack (the last axis is the
        destination).  Row ``i`` is owned by agent ``owners[i]`` for an
        array, by ``owners`` for one agent, and by agent ``i`` for
        ``None`` (a full matrix) — the owner picks the demand row."""
        if self.uniform_linear:
            return rows.sum(axis=-1)
        values = self.values(rows)
        if self.weights is not None:
            weights = self.weights if owners is None else self.weights[owners]
            values = values * weights
        if self.aggregate == "max":
            return values.max(axis=-1)
        return values.sum(axis=-1)

    def row_value(self, agent: int, row: np.ndarray) -> int:
        """The value of one distance row owned by ``agent``."""
        if self.uniform_linear:
            return int(row.sum())
        return int(self.rows_value(row, agent))

    def floors(self, n: int) -> np.ndarray:
        """Per-agent lower bound on the value in *any* graph.

        Every off-diagonal destination sits at distance at least 1, so a
        sum can never drop below ``mass * f(1)`` and a max never below
        ``max_v W[u, v] * f(1)`` (both achieved on a star) — the
        ``dist_floor`` behind the searchers' size pruning, sound because
        ``f`` is monotone.  ``n - 1`` in the paper's game.
        """
        f1 = 0 if n < 2 else 1 if self.table is None else int(self.table[1])
        if self.weights is None:
            per = f1 if self.aggregate == "max" else (n - 1) * f1
            return np.full(n, per, dtype=np.int64)
        if self.aggregate == "max":
            return self.weights.max(axis=1) * f1
        return self.weights.sum(axis=1) * f1


#: The paper's game (no demands, linear ``f``, sum) for every game size.
UNIFORM_LINEAR = Valuation()


def bind_valuation(
    n: int,
    alpha: Fraction,
    traffic: TrafficMatrix | None = None,
    cost_model: CostModel | None = None,
) -> tuple[int, Valuation]:
    """The distance sentinel ``M`` and the :class:`Valuation` of one game.

    Uniform traffic (``None`` or ``TrafficMatrix.uniform``) and linear
    models (``None`` or :class:`LinearCost`) bind to :data:`UNIFORM_LINEAR`
    with the paper's ``M``.  Non-uniform demands re-size ``M`` so that one
    unit of unmet demand dominates any buying saving (``<= alpha * n``)
    plus any real weighted distance (``<= (n - 1) * max_row_mass``); a
    non-linear model adds its table and value sentinel ``F``
    (:meth:`CostModel.unreachable_cost`).  Every input that would break
    exact int64 arithmetic raises ``ValueError`` here, before any engine
    exists.
    """
    if traffic is not None and traffic.n != n:
        raise ValueError(f"traffic matrix is for n={traffic.n}, game has n={n}")
    if cost_model is not None and not isinstance(cost_model, CostModel):
        raise TypeError(f"cost_model must be a CostModel, got {cost_model!r}")
    weights = None
    if traffic is None or traffic.is_uniform:
        m_constant = big_m(n, alpha)
        mass = n - 1
        headroom = m_constant * n
    else:
        weights = traffic.weights
        if not fits_int64(int(weights.max()) * n):
            raise ValueError("demands too large for exact int64 arithmetic")
        mass = traffic.max_row_mass
        m_constant = max(n, int(alpha * n) + n * mass + 1)
        headroom = m_constant * max(mass, n)
    if not fits_int64(headroom):
        raise ValueError(
            "alpha, n and demand mass too large for exact int64 "
            "distance arithmetic"
        )
    if cost_model is None or cost_model.is_linear:
        if weights is None:
            return m_constant, UNIFORM_LINEAR
        return m_constant, Valuation(weights)
    sentinel = cost_model.unreachable_cost(n, alpha, mass)
    if not fits_int64(sentinel * max(mass, n)):
        raise ValueError(
            "alpha, n, demand mass and cost table too large for "
            "exact int64 model-value arithmetic"
        )
    return m_constant, Valuation(
        weights, cost_model.table(n), sentinel, cost_model.aggregate
    )


def costmodel_from_spec(
    spec: Mapping[str, Any] | None, n: int
) -> CostModel | None:
    """Build a :class:`CostModel` from its JSON-able ``spec`` dict.

    The inverse of :attr:`CostModel.spec`, mirroring
    :func:`repro.core.traffic.traffic_from_spec`: a campaign trial's
    ``costmodel`` parameter is the spec dict, so the regime is a pure
    function of the trial's content-addressed identity.  ``None`` passes
    through (the unmodeled linear game); ``n`` early-validates explicit
    tables.
    """
    if spec is None:
        return None
    if not isinstance(spec, Mapping):
        raise TypeError(f"cost model spec must be a mapping, got {spec!r}")
    payload = dict(spec)
    model = payload.pop("model", None)
    if model == "linear":
        _expect_keys(payload, set())
        return LinearCost()
    if model == "concave":
        _expect_keys(payload, {"exponent", "scale"})
        return ConcaveCost(
            exponent=payload.get("exponent", Fraction(1, 2)),
            scale=payload.get("scale", 1),
        )
    if model == "convex":
        _expect_keys(payload, {"exponent", "scale"})
        return ConvexCost(
            exponent=payload.get("exponent", 2),
            scale=payload.get("scale", 1),
        )
    if model == "max":
        _expect_keys(payload, set())
        return MaxCost()
    if model == "table":
        _expect_keys(payload, {"values"})
        cost = TableCost(payload["values"])
        cost.table(n)  # fail fast if the table is too short for the game
        return cost
    raise ValueError(f"unknown cost model {model!r}")


def regime_from_spec(
    n: int,
    alpha: Fraction,
    traffic: Mapping[str, Any] | None = None,
    costmodel: Mapping[str, Any] | None = None,
) -> tuple[TrafficMatrix | None, CostModel | None]:
    """The demands and cost model of one game from their JSON-able specs,
    bound with ``alpha`` by :func:`bind_valuation`: a regime that cannot
    be played raises here, before any key, engine or store exists.
    Serve's instances and the campaign trial check both parse one here.
    """
    demands = traffic_from_spec(traffic, n)
    cost_model = costmodel_from_spec(costmodel, n)
    bind_valuation(n, alpha, demands, cost_model)
    return demands, cost_model


def _expect_keys(payload: Mapping[str, Any], allowed: set) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise ValueError(f"unknown cost model spec fields: {sorted(unknown)}")
