"""Declarative campaign specs and their deterministic trial expansion.

A *campaign* is a grid of experiment parameters — sizes, exact
``Fraction`` edge prices, solution concepts, schedulers, seed ranges —
plus the name of a runner (:mod:`repro.campaigns.runners`) that knows how
to execute one cell of the grid.  :class:`CampaignSpec` is the
declarative description (dataclass with a lossless dict/JSON round-trip,
so specs can be committed next to the code) and :meth:`CampaignSpec.trials`
is its deterministic expansion into individually-addressable
:class:`Trial` objects.

Identity is content-addressed: a trial's :attr:`Trial.key` is a BLAKE2b
hash of its canonical JSON form (runner kind + sorted, exactly-encoded
parameters).  Two spellings of the same trial — ``alpha: 4.5`` vs
``alpha: "9/2"``, axes listed in a different order — hash identically,
and nothing ambient (time, hostname, worker id) ever enters the key, so
a result store keyed by trial hashes stays valid across re-runs,
machines and worker counts.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from hashlib import blake2b
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro._alpha import as_alpha
from repro.core.concepts import Concept

__all__ = [
    "CampaignSpec",
    "INT_AXES",
    "Trial",
    "check_fields",
    "check_int",
    "from_jsonable",
    "to_jsonable",
    "trial_key",
]


# -- exact JSON codec --------------------------------------------------------
#
# Everything a trial touches must survive JSON exactly: Fractions are
# tagged with their ``p/q`` string form (never floats), Concepts with
# their enum name.  Plain ints/strings/bools/None pass through.

_FRACTION_TAG = "$fraction"
_CONCEPT_TAG = "$concept"


def to_jsonable(value: Any) -> Any:
    """Encode a parameter or result value into exact, JSON-safe form."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return {_FRACTION_TAG: str(value.numerator)}
        return {_FRACTION_TAG: f"{value.numerator}/{value.denominator}"}
    if isinstance(value, Concept):
        return {_CONCEPT_TAG: value.name}
    if isinstance(value, (int, str, float)):
        return value
    if isinstance(value, Mapping):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    raise TypeError(f"cannot encode {value!r} for a campaign record")


def from_jsonable(value: Any) -> Any:
    """Decode :func:`to_jsonable` output back to exact Python values."""
    if isinstance(value, dict):
        if set(value) == {_FRACTION_TAG}:
            return Fraction(value[_FRACTION_TAG])
        if set(value) == {_CONCEPT_TAG}:
            return Concept[value[_CONCEPT_TAG]]
        return {key: from_jsonable(item) for key, item in value.items()}
    if isinstance(value, list):
        return [from_jsonable(item) for item in value]
    return value


def _canonical(kind: str, params: Mapping[str, Any]) -> str:
    payload = {"kind": kind, "params": to_jsonable(dict(params))}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def trial_key(kind: str, params: Mapping[str, Any]) -> str:
    """Content hash of one trial (stable across spellings and sessions).

    Parameters are canonicalised first — ``alpha: 3`` / ``"3"`` /
    ``Fraction(3)`` and ``concept: "PS"`` / ``Concept.PS`` all hash
    identically, and ``None``-valued entries are dropped (absent and
    ``None`` are the same trial).
    """
    canon = {
        name: _normalise_param(name, value)
        for name, value in params.items()
        if value is not None
    }
    return blake2b(
        _canonical(kind, canon).encode("utf-8"), digest_size=16
    ).hexdigest()


# -- trials ------------------------------------------------------------------


@dataclass(frozen=True)
class Trial:
    """One addressable cell of a campaign grid."""

    kind: str
    items: tuple[tuple[str, Any], ...]  # sorted by parameter name

    @property
    def params(self) -> dict[str, Any]:
        return dict(self.items)

    @property
    def key(self) -> str:
        return trial_key(self.kind, self.items_mapping())

    def items_mapping(self) -> dict[str, Any]:
        return dict(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v!r}" for k, v in self.items)
        return f"Trial({self.kind}: {inner})"


def _is_int(value: Any) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass, but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


#: integer axes and their least value (``None``: any int).  Campaign
#: runners and serve requests both read it, so a float, a string or a
#: bool is refused, never truncated by ``int()``, and a count cannot be
#: negative on either side
INT_AXES: dict[str, int | None] = {
    "n": 1,
    "m": None,
    "k": None,
    "i": None,
    "index": None,
    "max_rounds": 0,
    "max_coalition_size": 1,
    "probe_samples": 0,
    "max_certificates": 0,
}


def check_int(name: str, value: Any) -> Any:
    """``value`` itself if it is a JSON integer at least ``name``'s
    :data:`INT_AXES` minimum; ``ValueError`` naming ``name`` otherwise."""
    least = INT_AXES.get(name)
    if not _is_int(value) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name!r} must be an int{bound}, got {value!r}")
    return value


def check_fields(given: Iterable[str], known: Iterable[str], what: str) -> None:
    """``ValueError`` naming every entry of ``given`` outside ``known``.

    The one unknown-field check: spec fields, runner axes and serve
    request bodies go through it, so a misspelt name is refused, never
    silently defaulted.
    """
    known = set(known)
    unknown = sorted(set(given) - known)
    if unknown:
        raise ValueError(f"unknown {what} {unknown}; known: {sorted(known)}")


def _range_values(axis: str, bounds: Any) -> list[int]:
    """The values of ``{"$range": N}`` / ``{"$range": [start, stop]}``."""
    if _is_int(bounds):
        return list(range(bounds))
    if (
        isinstance(bounds, (list, tuple))
        and len(bounds) == 2
        and all(_is_int(bound) for bound in bounds)
    ):
        return list(range(bounds[0], bounds[1]))
    raise ValueError(
        f"grid axis {axis!r}: '$range' takes an int or [start, stop] "
        f"ints, got {bounds!r}"
    )


def _normalise_param(name: str, value: Any) -> Any:
    """Exact-type coercion for well-known axis names.

    ``alpha`` always becomes a positive :class:`Fraction` (accepting ints,
    dyadic floats and ``"p/q"`` strings; ``ValueError`` at or below 0),
    ``concept`` a :class:`Concept` (accepting enum names or values).
    Other axes pass through :func:`from_jsonable` so tagged values decode
    and plain ones survive.
    """
    if name == "alpha":
        alpha = as_alpha(from_jsonable(value))
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        return alpha
    if name == "concept":
        return Concept.parse(from_jsonable(value))
    return from_jsonable(value)


def _emit_param(name: str, value: Any) -> Any:
    """The human-friendly JSON spelling used when serialising specs."""
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else str(value)
    if isinstance(value, Concept):
        return value.name
    return to_jsonable(value)


# -- the spec ----------------------------------------------------------------


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep: named grids over exact parameters.

    ``grids`` is a sequence of axis mappings; each grid expands to the
    cross product of its axes (values in listed order, axes in listed
    order), and the campaign's trial list is the concatenation of its
    grids with duplicate trial keys dropped (first occurrence wins).  A
    grid may override the campaign-level runner ``kind`` with its own
    ``"kind"`` entry.  Scalar axis values are treated as singleton lists,
    so ``{"n": 9, "alpha": [2, 4]}`` means two trials.

    ``seed`` is the campaign's base seed; runners derive every trial's
    randomness from it and the trial's own identity, never from ambient
    state.  The ``dynamics`` runner uses the shared
    :func:`repro._rng.trial_seed` formula (bit-compatible with
    ``convergence_study``); runner kinds whose streams must differ
    across more axes than a seed index should derive through
    :func:`repro._rng.derive_seed`.

    ``report`` configures the default aggregation
    (:mod:`repro.campaigns.aggregate`): a mapping with a ``"reducer"``
    name and reducer-specific options, carried verbatim through the
    dict/JSON round-trip.
    """

    name: str
    kind: str
    grids: tuple[Mapping[str, Any], ...]
    description: str = ""
    seed: int = 0
    report: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a campaign needs a name")
        if not self.grids:
            raise ValueError(f"campaign {self.name!r} has no grids")
        object.__setattr__(self, "grids", tuple(dict(g) for g in self.grids))
        object.__setattr__(self, "report", dict(self.report))

    # -- expansion ----------------------------------------------------------

    def trials(self) -> list[Trial]:
        """The deterministic, duplicate-free trial list of this campaign."""
        seen: set[str] = set()
        out: list[Trial] = []
        for trial in self._expand():
            key = trial.key
            if key in seen:
                continue
            seen.add(key)
            out.append(trial)
        return out

    def _expand(self) -> Iterator[Trial]:
        for grid in self.grids:
            kind = grid.get("kind", self.kind)
            if not isinstance(kind, str) or not kind:
                raise ValueError(f"bad runner kind {kind!r} in {self.name!r}")
            axes: list[tuple[str, list[Any]]] = []
            for axis, values in grid.items():
                if axis == "kind":
                    continue
                if isinstance(values, Mapping) and set(values) == {"$range"}:
                    # {"$range": N} / {"$range": [start, stop]}: the usual
                    # spelling for seed-index axes
                    spread: Sequence[Any] = _range_values(
                        axis, values["$range"]
                    )
                elif isinstance(values, (list, tuple)):
                    spread = values
                else:
                    spread = [values]
                try:
                    normalised = [_normalise_param(axis, v) for v in spread]
                except (ValueError, TypeError, ZeroDivisionError) as exc:
                    raise ValueError(f"grid axis {axis!r}: {exc}") from None
                axes.append((axis, normalised))
            names = [axis for axis, _ in axes]
            for combo in itertools.product(*(vals for _, vals in axes)):
                # absent and None-valued parameters are the same trial:
                # drop Nones so both spellings share one content hash
                params = {
                    name: value
                    for name, value in zip(names, combo)
                    if value is not None
                }
                yield Trial(kind=kind, items=tuple(sorted(params.items())))

    # -- dict / JSON round-trip ---------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "kind": self.kind,
            "seed": self.seed,
            "grids": [
                {
                    axis: (
                        [_emit_param(axis, v) for v in values]
                        if isinstance(values, (list, tuple))
                        else _emit_param(axis, values)
                    )
                    for axis, values in grid.items()
                }
                for grid in self.grids
            ],
            "report": to_jsonable(dict(self.report)),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        """A spec from its dict form; ``ValueError`` names a bad field."""
        if not isinstance(payload, Mapping):
            raise ValueError("a campaign spec must be a JSON object")
        check_fields(
            payload,
            ("name", "description", "kind", "seed", "grids", "report"),
            "campaign spec fields",
        )
        for name in ("name", "kind"):
            if not isinstance(payload.get(name), str) or not payload[name]:
                raise ValueError(f"'{name}' must be a non-empty string")
        grids = payload.get("grids")
        if not isinstance(grids, (list, tuple)) or not all(
            isinstance(grid, Mapping) for grid in grids
        ):
            raise ValueError("'grids' must be a list of objects")
        seed = payload.get("seed", 0)
        if not _is_int(seed):
            raise ValueError(f"'seed' must be an int, got {seed!r}")
        return cls(
            name=payload["name"],
            description=payload.get("description", ""),
            kind=payload["kind"],
            seed=seed,
            grids=tuple(grids),
            report=from_jsonable(payload.get("report", {})) or {},
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "CampaignSpec":
        return cls.from_json(Path(path).read_text())

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())
