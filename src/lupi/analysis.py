"""Best responses and equilibrium verification.

The verifier is the adjudicator for equilibrium claims: payoffs and best
responses come from the exact oracle by default, and a profile is a Nash
equilibrium when no player's best pure deviation gains more than epsilon.
Pure deviations suffice because a deviator's payoff is linear in their
weights, so no mixed deviation can beat the best pure one.

Pareto optimality is reported through a sum surrogate: exactly one unit of
utility is paid out per round (or none), so a profile whose payoffs sum to
one cannot make any player better off without hurting another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .game import (
    GameSpec,
    StrategyLike,
    StrategyProfile,
    _mixed_value,
    as_strategy,
    win_probabilities,
)
from .model import MODEL_EXACT, MODEL_PAPER, MODELS, closed_form_payoff

DEFAULT_EPSILON = 1e-9
_TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class VerificationReport:
    """Per-player deviation analysis of one strategy profile.

    ``deviation_gains[i]`` is player i's best-response value minus their
    current payoff; the profile is marked ``is_nash`` when every gain is at
    most epsilon. ``indifferent_deviations[i]`` flags players who cannot
    gain but could switch to an unused pure choice without losing either
    (the profile is then an equilibrium only in the weak sense).
    """

    profile: StrategyProfile
    model: str
    epsilon: float
    payoffs: tuple
    best_response_values: tuple
    best_response_picks: tuple
    deviation_gains: tuple
    indifferent_deviations: tuple
    is_nash: bool
    payoff_sum: float
    is_payoff_sum_maximal: bool


def pure_choice_values(spec: GameSpec, others: Sequence[StrategyLike], model: str = MODEL_EXACT) -> tuple:
    """Deviator's payoff for each pure choice 1..n under the chosen model.

    The closed-form model only describes a deviator facing identical
    opponents, so ``model="paper"`` requires all opponent strategies equal.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    if model == MODEL_EXACT:
        return win_probabilities(spec, others)
    strategies = [as_strategy(s) for s in others]
    if len(strategies) != spec.n - 1:
        raise ValueError(
            f"expected {spec.n - 1} opponent strategies for n={spec.n}, got {len(strategies)}"
        )
    common = strategies[0]
    if any(s.probs != common.probs for s in strategies[1:]):
        raise ValueError("the closed-form model needs all opponents on one common strategy")
    values = []
    for pick in range(1, spec.n + 1):
        unit = [0.0] * spec.n
        unit[pick - 1] = 1.0
        values.append(closed_form_payoff(spec, unit, common))
    return tuple(values)


def best_response(spec: GameSpec, others: Sequence[StrategyLike], model: str = MODEL_EXACT):
    """Value of every pure choice against ``others`` plus the maximizing set.

    Returns ``(values, best_picks)`` where ``values[i]`` is the payoff of
    pure choice i + 1 and ``best_picks`` holds every choice within 1e-12 of
    the maximum (claims like "choice 3 is optimal" are then membership
    checks, robust to exact ties).
    """
    values = pure_choice_values(spec, others, model)
    top = max(values)
    picks = tuple(i + 1 for i, v in enumerate(values) if v >= top - _TIE_TOLERANCE)
    return values, picks


def indifference_spread(spec: GameSpec, common: StrategyLike, model: str = MODEL_EXACT) -> float:
    """Max minus min of the pure-choice payoffs against all-common opponents.

    Zero spread is the defining property of a full-support symmetric
    equilibrium: the deviator's payoff no longer depends on their strategy.
    """
    strategy = as_strategy(common)
    values = pure_choice_values(spec, [strategy] * (spec.n - 1), model)
    return max(values) - min(values)


def verify_profile(
    profile: StrategyProfile,
    epsilon: float = DEFAULT_EPSILON,
    model: str = MODEL_EXACT,
) -> VerificationReport:
    """Full deviation report for a profile; the oracle's verdict is final.

    Claims made about specific profiles elsewhere are not trusted by this
    function: it recomputes payoffs, per-player best responses and gains,
    and labels the profile accordingly.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    spec = GameSpec(profile.n)
    strategies = profile.strategies
    common = strategies[0]
    if model == MODEL_PAPER and any(s.probs != common.probs for s in strategies[1:]):
        raise ValueError("the closed-form model verifies symmetric profiles only")
    payoffs = []
    values_per_player = []
    picks_per_player = []
    gains = []
    weak_flags = []
    for i, own in enumerate(strategies):
        others = strategies[:i] + strategies[i + 1 :]
        # one set of pure-choice values per player gives both the payoff and
        # the best response; the exact payoff is the same dot product as
        # exact_profile_payoffs, so both report bit-equal payoffs
        values, picks = best_response(spec, others, model)
        if model == MODEL_PAPER:
            payoffs.append(closed_form_payoff(spec, own, common))
        else:
            payoffs.append(_mixed_value(own, values))
        gain = max(values) - payoffs[i]
        indifferent = False
        if gain <= epsilon:
            for choice, value in enumerate(values):
                unused = own.probs[choice] <= epsilon
                if unused and abs(value - payoffs[i]) <= epsilon:
                    indifferent = True
                    break
        values_per_player.append(values)
        picks_per_player.append(picks)
        gains.append(gain)
        weak_flags.append(indifferent)
    payoff_sum = sum(payoffs)
    return VerificationReport(
        profile=profile,
        model=model,
        epsilon=epsilon,
        payoffs=tuple(payoffs),
        best_response_values=tuple(max(v) for v in values_per_player),
        best_response_picks=tuple(picks_per_player),
        deviation_gains=tuple(gains),
        indifferent_deviations=tuple(weak_flags),
        is_nash=max(gains) <= epsilon,
        payoff_sum=payoff_sum,
        is_payoff_sum_maximal=abs(payoff_sum - 1.0) <= epsilon,
    )
