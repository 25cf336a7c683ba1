"""Heterogeneous traffic: per-pair demand matrices for the weighted BNCG.

The paper's cost model is uniform — every agent wants to reach every
other agent equally, ``cost(u) = alpha * deg(u) + sum_v d(u, v)``.  Its
natural generalization (Àlvarez–Fernàndez 2012; Gawendowicz–Lenzner–
Weyand 2025) attaches an integer *demand* ``W[u, v] >= 0`` to every
ordered pair and charges

    cost(u) = alpha * deg(u) + sum_v W[u, v] * d(u, v).

:class:`TrafficMatrix` is the exact, immutable demand matrix ``W``:
:class:`~repro.core.state.GameState` carries one and binds it, with the
cost model, into the one :class:`~repro.core.costmodel.Valuation` every
layer values distance rows through — so every checker, move generator,
scheduler and analysis sweep answers the same questions for any demand
matrix.

Exactness contract:

* demands are **non-negative int64 integers** (so weighted distance
  totals stay exact integers and cost comparisons stay exact
  ``Fraction``-vs-int); every generator checks integrality, so a demand
  like ``1.5`` raises instead of truncating;
* the diagonal is identically zero (``d(u, u) = 0`` makes it
  meaningless; zeroing it keeps row masses honest);
* ``TrafficMatrix.uniform(n)`` — all off-diagonal demands 1 — is
  **bit-exactly equivalent** to no traffic model at all: it binds the
  paper's plain row sums, so equilibrium verdicts, trajectories and
  reports are byte-identical.

Demand matrices may be asymmetric (``u`` may care about reaching ``v``
more than ``v`` cares back); all weighted formulas in the stack only
assume the *distance* matrix is symmetric.

Zero demand changes the game qualitatively: an agent with no demand
toward a bridge's far side can profitably drop the bridge, so "bridges
are never improving removals" and "trees are always RE" hold only while
every off-diagonal demand is positive (``Valuation.full_support``; under
a max aggregate the graph must be connected too).  The removal scan
prices every edge, bridges included, so both cases come out of the same
pricing; only the tree shortcut reads ``full_support``.
"""

from __future__ import annotations

from numbers import Integral, Real
from typing import Any, Mapping, Sequence

import numpy as np

from repro._alpha import fits_int64
from repro._rng import coerce_rng

__all__ = [
    "TrafficMatrix",
    "traffic_from_spec",
]


def _refuse_bools(name: str, values) -> None:
    """Raise ``ValueError`` naming ``name`` for a bool at any depth of
    ``values``: ``np.asarray([True, 2])`` is already an integer array, so
    the check runs on the values before any cast."""
    if isinstance(values, (bool, np.bool_)):
        raise ValueError(f"{name!r} takes integers only, got {values!r}")
    if isinstance(values, np.ndarray):
        if values.dtype == np.bool_:
            raise ValueError(f"{name!r} takes integers only, got booleans")
        if values.dtype == object:
            for item in values.flat:
                _refuse_bools(name, item)
    elif isinstance(values, (list, tuple)):
        for item in values:
            _refuse_bools(name, item)


def _exact_ints(values, name: str) -> np.ndarray:
    """``values`` as int64, refusing anything that is not an integer in
    int64 range — a bool raises naming ``name``, a float like ``1.5``
    raises instead of truncating, and ``1e19`` or ``2**63`` instead of
    wrapping."""
    _refuse_bools(name, values)
    array = np.asarray(values)
    if np.issubdtype(array.dtype, np.signedinteger):
        return array.astype(np.int64)
    try:
        with np.errstate(invalid="ignore"):
            exact = array.astype(np.int64, casting="unsafe")
        # a cast that truncated or wrapped no longer equals its input
        if not (exact == array).all():
            raise ValueError
    except (ValueError, TypeError, OverflowError):
        raise ValueError(
            "demands must be integers within int64 (exact arithmetic)"
        ) from None
    return exact


def _int_field(name: str, value) -> int:
    """An integer spec field as an int: an integral float is taken
    exactly, while a bool or a value with a fraction part raises
    ``ValueError`` naming ``name`` instead of truncating."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name!r} takes integers only, got {value!r}")


def _as_demand_array(values, name: str, n: int | None = None) -> np.ndarray:
    array = _exact_ints(values, name)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise ValueError("a demand matrix must be square")
    if n is not None and array.shape[0] != n:
        raise ValueError(
            f"demand matrix is {array.shape[0]}x{array.shape[0]}, "
            f"expected {n}x{n}"
        )
    if (array < 0).any():
        raise ValueError("demands must be non-negative")
    array = array.copy()
    np.fill_diagonal(array, 0)
    array.setflags(write=False)
    return array


def _demand_vector(weights, what: str) -> np.ndarray:
    vector = _exact_ints(list(weights), "weights")
    if vector.ndim != 1:
        raise ValueError(f"{what} weights must be a flat sequence")
    if (vector < 0).any():
        raise ValueError(f"{what} weights must be non-negative")
    return vector


class TrafficMatrix:
    """Immutable per-pair integer demand matrix for one game size ``n``.

    Build one with the named constructors (:meth:`uniform`,
    :meth:`per_agent`, :meth:`gravity`, :meth:`hub_spoke`,
    :meth:`broadcast`, :meth:`random_demands`) or :meth:`from_pairs`
    with an explicit matrix.  Instances hash/compare by value and carry
    a lossless JSON-able ``spec`` so campaign trials stay
    content-addressed.
    """

    __slots__ = ("weights", "n", "_spec", "_is_uniform")

    def __init__(self, weights, spec: Mapping[str, Any] | None = None):
        self.weights = _as_demand_array(weights, "weights")
        self.n = int(self.weights.shape[0])
        if self.n == 0:
            raise ValueError("a traffic matrix needs at least one agent")
        self._spec = dict(spec) if spec is not None else None
        off_diagonal = ~np.eye(self.n, dtype=bool)
        self._is_uniform = bool((self.weights[off_diagonal] == 1).all())

    # -- named generators ----------------------------------------------------

    @classmethod
    def uniform(cls, n: int) -> "TrafficMatrix":
        """All off-diagonal demands 1 — the paper's model, bit-exactly."""
        weights = np.ones((n, n), dtype=np.int64)
        return cls(weights, spec={"model": "uniform"})

    @classmethod
    def from_pairs(cls, matrix) -> "TrafficMatrix":
        """Explicit per-pair demands (any square non-negative int matrix)."""
        array = _as_demand_array(matrix, "rows")
        return cls(
            array,
            spec={"model": "explicit", "rows": array.tolist()},
        )

    @classmethod
    def per_agent(cls, weights: Sequence[int]) -> "TrafficMatrix":
        """Destination-importance demands: ``W[u, v] = weight[v]``.

        Everyone wants to reach agent ``v`` in proportion to ``v``'s
        weight (popular content hosts, say); ``W`` is asymmetric unless
        all weights are equal.
        """
        vector = _demand_vector(weights, "per-agent")
        matrix = np.broadcast_to(vector, (len(vector), len(vector)))
        return cls(
            matrix,
            spec={"model": "per_agent", "weights": vector.tolist()},
        )

    @classmethod
    def gravity(cls, weights: Sequence[int]) -> "TrafficMatrix":
        """Gravity demands ``W[u, v] = weight[u] * weight[v]`` (symmetric).

        The classic traffic-engineering model: flow between two networks
        scales with the product of their sizes.
        """
        vector = _demand_vector(weights, "gravity")
        if vector.size and not fits_int64(int(vector.max()) ** 2):
            raise ValueError("gravity weights too large for int64 demands")
        return cls(
            np.outer(vector, vector),
            spec={"model": "gravity", "weights": vector.tolist()},
        )

    @classmethod
    def hub_spoke(
        cls,
        n: int,
        hubs: Sequence[int],
        hub_demand: int = 4,
        spoke_demand: int = 1,
    ) -> "TrafficMatrix":
        """Hub-and-spoke demands: pairs touching a hub carry
        ``hub_demand``, spoke-to-spoke pairs carry ``spoke_demand``."""
        hub_list = sorted({_int_field("hubs", h) for h in hubs})
        for hub in hub_list:
            if not 0 <= hub < n:
                raise ValueError(f"hub {hub} outside 0..{n - 1}")
        hub_demand, spoke_demand = (
            int(_exact_ints(value, name))
            for name, value in (
                ("hub_demand", hub_demand), ("spoke_demand", spoke_demand),
            )
        )
        matrix = np.full((n, n), spoke_demand, dtype=np.int64)
        mask = np.zeros(n, dtype=bool)
        mask[hub_list] = True
        matrix[mask, :] = hub_demand
        matrix[:, mask] = hub_demand
        return cls(
            matrix,
            spec={
                "model": "hub_spoke",
                "hubs": hub_list,
                "hub_demand": int(hub_demand),
                "spoke_demand": int(spoke_demand),
            },
        )

    @classmethod
    def broadcast(cls, n: int, sources: Sequence[int]) -> "TrafficMatrix":
        """Broadcast demands: only pairs touching a source carry traffic.

        ``W[u, v] = 1`` iff ``u`` or ``v`` is a source — the
        one-to-many regime (spoke-to-spoke demand is zero, so e.g.
        dropping a leaf that serves no source can be improving).
        """
        source_list = sorted({_int_field("sources", s) for s in sources})
        return cls.hub_spoke(
            n, source_list, hub_demand=1, spoke_demand=0
        )._with_spec({"model": "broadcast", "sources": source_list})

    @classmethod
    def random_demands(
        cls, n: int, seed: int, high: int = 4, density: float = 1.0
    ) -> "TrafficMatrix":
        """Seeded random symmetric demands in ``0..high``.

        A pure function of ``(n, seed, high, density)`` — campaign
        trials using it stay content-addressed and bit-reproducible.
        ``density < 1`` zeroes pairs independently (exercising the
        zero-demand regime).
        """
        high = _int_field("high", high)
        if not fits_int64(high):
            raise ValueError(
                f"random demand bound high={high} too large for exact "
                "int64 arithmetic"
            )
        if (
            isinstance(density, bool)
            or not isinstance(density, Real)
            or not 0 <= density <= 1
        ):
            raise ValueError(f"density must lie in [0, 1], got {density!r}")
        seed = _int_field("seed", seed)
        rng = coerce_rng(seed)
        matrix = np.zeros((n, n), dtype=np.int64)
        for u in range(n):
            for v in range(u + 1, n):
                demand = (
                    rng.randint(0, high)
                    if rng.random() < density
                    else 0
                )
                matrix[u, v] = matrix[v, u] = demand
        return cls(
            matrix,
            spec={
                "model": "random",
                "seed": seed,
                "high": high,
                "density": float(density),
            },
        )

    def _with_spec(self, spec: Mapping[str, Any]) -> "TrafficMatrix":
        return TrafficMatrix(self.weights, spec=spec)

    # -- queries -------------------------------------------------------------

    @property
    def is_uniform(self) -> bool:
        """Whether every off-diagonal demand is exactly 1.

        Uniform traffic binds the paper's plain row sums, which is what
        makes the uniform-equivalence guarantee *byte*-exact rather than
        merely numerically equal.
        """
        return self._is_uniform

    @property
    def spec(self) -> dict[str, Any]:
        """A lossless JSON-able description (for campaign content hashes)."""
        if self._spec is not None:
            return dict(self._spec)
        return {"model": "explicit", "rows": self.weights.tolist()}

    def row(self, u: int) -> np.ndarray:
        """Demands of agent ``u`` toward every destination (read-only)."""
        return self.weights[u]

    def masses(self) -> np.ndarray:
        """Per-agent demand mass ``sum_v W[u, v]``.

        This is also each agent's weighted distance floor: every
        positive-demand destination sits at distance at least 1.
        """
        return self.weights.sum(axis=1)

    def mass(self, u: int) -> int:
        return int(self.weights[u].sum())

    @property
    def max_row_mass(self) -> int:
        """The largest per-agent demand mass (sizing the big-M constant)."""
        return int(self.weights.sum(axis=1).max())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrafficMatrix):
            return NotImplemented
        return self.n == other.n and bool(
            (self.weights == other.weights).all()
        )

    def __hash__(self) -> int:
        return hash((self.n, self.weights.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        model = (self._spec or {}).get("model", "explicit")
        return f"TrafficMatrix(n={self.n}, model={model!r})"


def traffic_from_spec(
    spec: Mapping[str, Any] | None, n: int
) -> TrafficMatrix | None:
    """Build a :class:`TrafficMatrix` from its JSON-able ``spec`` dict.

    The inverse of :attr:`TrafficMatrix.spec`, used by the campaign
    runners: a trial's ``traffic`` parameter is the spec dict, so the
    demand matrix is a pure function of the trial's content-addressed
    parameters.  ``None`` passes through (uniform game).
    """
    if spec is None:
        return None
    if not isinstance(spec, Mapping):
        raise TypeError(f"traffic spec must be a mapping, got {spec!r}")
    payload = dict(spec)
    model = payload.pop("model", None)
    if model == "uniform":
        _expect_keys(payload, set())
        return TrafficMatrix.uniform(n)
    if model == "explicit":
        _expect_keys(payload, {"rows"})
        return TrafficMatrix.from_pairs(payload["rows"])
    if model == "per_agent":
        _expect_keys(payload, {"weights"})
        return TrafficMatrix.per_agent(payload["weights"])
    if model == "gravity":
        _expect_keys(payload, {"weights"})
        return TrafficMatrix.gravity(payload["weights"])
    if model == "hub_spoke":
        _expect_keys(payload, {"hubs", "hub_demand", "spoke_demand"})
        return TrafficMatrix.hub_spoke(
            n,
            payload["hubs"],
            hub_demand=payload.get("hub_demand", 4),
            spoke_demand=payload.get("spoke_demand", 1),
        )
    if model == "broadcast":
        _expect_keys(payload, {"sources"})
        return TrafficMatrix.broadcast(n, payload["sources"])
    if model == "random":
        _expect_keys(payload, {"seed", "high", "density"})
        if "seed" not in payload:
            raise ValueError("the random traffic model requires a 'seed'")
        return TrafficMatrix.random_demands(
            n,
            payload["seed"],
            high=payload.get("high", 4),
            density=payload.get("density", 1.0),
        )
    raise ValueError(f"unknown traffic model {model!r}")


def _expect_keys(payload: Mapping[str, Any], allowed: set) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise ValueError(f"unknown traffic spec fields: {sorted(unknown)}")
