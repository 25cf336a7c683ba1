"""beta-approximate stability — how far from equilibrium is a state?

For the unilateral NCG, Lenzner [32] showed that greedy-stable graphs are
3-approximate Nash equilibria.  The bilateral analogue is useful here as a
*measurement* device: a state is in beta-approximate X-equilibrium if no
improving move of X's move space lowers some required beneficiary's cost by
a factor greater than ``beta``, i.e. for every move some beneficiary has

    cost_after * beta >= cost_before.

``beta = 1`` recovers the exact concepts; the smallest stabilising beta,
found by :func:`stability_factor`, quantifies instability — the dynamics
benchmarks use it to show how far random networks start from stability and
how the gap closes along improving paths.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from repro._alpha import AlphaLike, as_alpha
from repro.core.batch import PricedRun
from repro.core.concepts import Concept
from repro.core.moves import Move
from repro.core.speculative import SpeculativeEvaluator
from repro.core.state import GameState
from repro.dynamics.movegen import move_pool

__all__ = [
    "is_approximate_equilibrium",
    "move_improvement_factor",
    "stability_factor",
]


def _factor(spec: SpeculativeEvaluator, cost_deltas) -> Fraction:
    """Smallest ``before / after`` cost ratio over the evaluated agents."""
    ratios = []
    for agent, delta in cost_deltas:
        before = spec.base_cost(agent)
        if before + delta <= 0:
            raise ValueError("costs must stay positive")
        ratios.append(Fraction(before) / Fraction(before + delta))
    return min(ratios)


def _improvement_factor(spec: SpeculativeEvaluator, move: Move) -> Fraction:
    """Smallest beneficiary ``before / after`` ratio via the kernel."""
    with spec.speculate(move):
        agents = move.beneficiaries()
        return _factor(spec, [(a, spec.cost_delta(a)) for a in agents])


def _pool_factors(state: GameState, concept: Concept) -> Iterator[Fraction]:
    """Each pool move's factor, off its scan's prices."""
    spec = SpeculativeEvaluator(state)
    for run in move_pool(state, concept).runs():
        for index, move in enumerate(run):
            if isinstance(run, PricedRun):
                deltas = run.evaluation(index, state.alpha).cost_deltas
                yield _factor(spec, deltas)
            else:
                yield _improvement_factor(spec, move)


def move_improvement_factor(state: GameState, move: Move) -> Fraction:
    """The *smallest* beneficiary improvement factor of a move.

    A move strictly improves every beneficiary iff this factor exceeds 1;
    a state is beta-approximately stable against the move iff the factor
    is at most beta.  Costs are read off the speculative kernel (exact).
    """
    return _improvement_factor(SpeculativeEvaluator(state), move)


def is_approximate_equilibrium(
    state: GameState,
    concept: Concept,
    beta: AlphaLike,
) -> bool:
    """Whether no move of ``concept``'s move space improves its whole
    beneficiary set by a factor above ``beta`` (``beta = 1``: exact)."""
    bound = as_alpha(beta)
    if bound < 1:
        raise ValueError("beta must be at least 1")
    return all(factor <= bound for factor in _pool_factors(state, concept))


def stability_factor(
    state: GameState,
    concept: Concept,
    moves: Iterable[Move] | None = None,
) -> Fraction:
    """The smallest beta making the state beta-approximately stable.

    Returns 1 when the state is an exact equilibrium of the concept.
    """
    if moves is None:
        factors = _pool_factors(state, concept)
    else:
        spec = SpeculativeEvaluator(state)
        factors = (_improvement_factor(spec, move) for move in moves)
    return max([Fraction(1), *factors])
