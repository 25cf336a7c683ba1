"""The cooperation ladder: solution concepts of the paper, in one enum.

Ordered by increasing cooperation, matching Section 1.1:

RE -> BAE -> PS -> BSwE -> BGE -> BNE -> 2-BSE -> 3-BSE -> ... -> BSE.

The enum is the key used by the checker registry
(:mod:`repro.equilibria.registry`), the dynamics move generators and the
analysis tables.  ``k``-BSE is parametrised separately because ``k`` is an
argument, not a fixed concept.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["Concept", "TREE_LADDER"]


class Concept(str, Enum):
    """Solution concepts for the BNCG (plus the unilateral references)."""

    RE = "remove-equilibrium"
    BAE = "bilateral-add-equilibrium"
    PS = "pairwise-stability"
    BSWE = "bilateral-swap-equilibrium"
    BGE = "bilateral-greedy-equilibrium"
    BNE = "bilateral-neighborhood-equilibrium"
    BSE = "bilateral-strong-equilibrium"
    # unilateral reference concepts (Section 2 comparisons)
    UNILATERAL_AE = "unilateral-add-equilibrium"
    UNILATERAL_NE = "unilateral-nash-equilibrium"

    @classmethod
    def parse(cls, value: object) -> "Concept":
        """The concept named by a member, a member name (``"PS"``) or a
        value (``"pairwise-stability"``); ``ValueError`` otherwise."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            if value in cls.__members__:
                return cls[value]
            try:
                return cls(value)
            except ValueError:
                pass
        raise ValueError(
            f"unknown concept {value!r}; expected one of "
            f"{sorted(cls.__members__)}"
        )

    @property
    def is_bilateral(self) -> bool:
        return self not in (Concept.UNILATERAL_AE, Concept.UNILATERAL_NE)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The tree-PoA ladder of Table 1, weakest to strongest cooperation.
TREE_LADDER = (
    Concept.PS,
    Concept.BSWE,
    Concept.BGE,
    Concept.BNE,
)
