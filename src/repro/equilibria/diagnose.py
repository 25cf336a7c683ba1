"""One-call stability profile of a state across the cooperation ladder.

``diagnose(state)`` answers "where on the ladder does this network sit?":
for every concept it reports stability, the violating move (certificate)
when unstable, and whether the verdict is exhaustive — exponential concepts
degrade gracefully to budgeted/probing verdicts instead of failing.
"""

from __future__ import annotations

from repro._rng import RngLike, coerce_rng
from repro.core.concepts import Concept
from repro.core.state import GameState
from repro.equilibria.add import (
    find_improving_bilateral_add,
    find_improving_unilateral_add,
    pairwise_add_gains,
)
from repro.equilibria.certificates import StabilityReport
from repro.equilibria.neighborhood import (
    SearchBudgetExceeded,
    find_improving_neighborhood_move,
    probe_neighborhood_moves,
)
from repro.equilibria.remove import find_improving_removal
from repro.equilibria.strong import (
    find_improving_coalition_move,
    probe_coalition_moves,
)
from repro.equilibria.swap import find_improving_swap

__all__ = ["diagnose"]


def _report_from(move) -> StabilityReport:
    if move is None:
        return StabilityReport(stable=True)
    return StabilityReport(stable=False, certificate=move)


def _budgeted(finder, prober, note: str) -> StabilityReport:
    try:
        return _report_from(finder())
    except SearchBudgetExceeded:
        move = prober()
        if move is not None:
            return StabilityReport(stable=False, certificate=move)
        return StabilityReport(
            stable=True,
            exhaustive=False,
            note=f"budget exceeded; {note}",
        )


def diagnose(
    state: GameState,
    max_coalition_size: int = 3,
    seed: RngLike = 0,
    probe_samples: int = 2000,
) -> dict[Concept, StabilityReport]:
    """Stability report per concept (k-BSE at ``max_coalition_size``).

    Polynomial concepts are exact.  BNE and k-BSE fall back to seeded
    randomized probing when the exhaustive search exceeds its budget; such
    "stable" verdicts carry ``exhaustive=False`` and a note.  ``seed`` may
    be an integer seed or a ready ``random.Random``, so probe verdicts
    are reproducible end-to-end.
    """
    rng = coerce_rng(seed)
    removal = find_improving_removal(state)
    # one add-gain matrix prices both addition checks and bounds the swaps
    gains = pairwise_add_gains(state)
    addition = find_improving_bilateral_add(state, gains)
    swap = find_improving_swap(state, gains)

    reports = {
        Concept.RE: _report_from(removal),
        Concept.BAE: _report_from(addition),
        Concept.PS: _report_from(removal or addition),
        Concept.BSWE: _report_from(swap),
        Concept.BGE: _report_from(removal or addition or swap),
        Concept.UNILATERAL_AE: _report_from(
            find_improving_unilateral_add(state, gains)
        ),
        Concept.BNE: _budgeted(
            lambda: find_improving_neighborhood_move(state),
            lambda: probe_neighborhood_moves(
                state, rng, samples=probe_samples
            ),
            "randomized neighborhood probing found no violation",
        ),
        Concept.BSE: _budgeted(
            lambda: find_improving_coalition_move(state, max_coalition_size),
            lambda: probe_coalition_moves(
                state, rng, max_coalition_size, samples=probe_samples
            ),
            f"randomized {max_coalition_size}-coalition probing found "
            "no violation",
        ),
    }
    return reports
