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

from typing import Sequence

from .game import (
    DEFAULT_EPSILON, MODEL_EXACT, MODEL_PAPER, MODELS, GameSpec, StrategyLike, StrategyProfile, _opponent_rows,
    _profile_choice_values, _Record, _total, as_strategy, win_probabilities,
)

_TIE_TOLERANCE = 1e-12


class VerificationReport(_Record):
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
    Opponents are renormalized first, unlike in ``closed_form_payoff``, so
    the two can differ in the last bits on a tuple whose sum is not 1.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    if model == MODEL_EXACT:
        return win_probabilities(spec, others)
    from .model import _closed_form_values

    rows = _opponent_rows(spec, others)
    common = rows[0]
    if any(row != common for row in rows[1:]):
        raise ValueError("the closed-form model needs all opponents on one common strategy")
    return tuple(_closed_form_values(spec, common))


def best_response(spec: GameSpec, others: Sequence[StrategyLike], model: str = MODEL_EXACT):
    """Value of every pure choice against ``others`` plus the maximizing set.

    Returns ``(values, best_picks)`` where ``values[i]`` is the payoff of
    pure choice i + 1 and ``best_picks`` holds every choice within 1e-12 of
    the maximum (claims like "choice 3 is optimal" are then membership
    checks, robust to exact ties).
    """
    values = pure_choice_values(spec, others, model)
    return values, _best_picks(values)


def _best_picks(values: Sequence[float]) -> tuple:
    """Every pure choice (1-based) whose value is within 1e-12 of the best one."""
    top = max(values)
    return tuple(i + 1 for i, v in enumerate(values) if v >= top - _TIE_TOLERANCE)


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

    Each model's scores come from the producer that ``exact_profile_payoffs``
    and ``solve_symmetric`` use too, so the payoffs agree bit for bit: under
    ``exact``, one identical-opponent pass when all strategies are equal,
    else one pass of the subset dynamic program; under ``paper``, one read of
    the closed form's values against the common strategy, and the payoff
    mixed from them with ``closed_form_payoff``'s operations. Only the
    ``paper`` routes load :mod:`lupi.model`.
    """
    if not 0.0 < epsilon < float("inf"):
        raise ValueError("epsilon must be positive and finite")
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    spec = GameSpec(profile.n)
    strategies = profile.strategies
    common = strategies[0]
    if model == MODEL_PAPER:
        if any(s.probs != common.probs for s in strategies[1:]):
            raise ValueError("the closed-form model verifies symmetric profiles only")
        from .model import _closed_form_mix, _closed_form_values

        values_per_player = [_closed_form_values(spec, common)] * spec.n
        payoffs = [_closed_form_mix(common.probs, values_per_player[0])] * spec.n
    else:
        values_per_player, payoffs = _profile_choice_values(profile)
    gains = [max(values) - payoff for values, payoff in zip(values_per_player, payoffs)]
    # a player who cannot gain, but has an unused choice that pays as much
    weak_flags = [
        gain <= epsilon and any(p <= epsilon and abs(v - payoff) <= epsilon for p, v in zip(own.probs, values))
        for own, values, payoff, gain in zip(strategies, values_per_player, payoffs, gains)
    ]
    payoff_sum = _total(payoffs)
    return VerificationReport(
        profile=profile,
        model=model,
        epsilon=epsilon,
        payoffs=tuple(payoffs),
        best_response_values=tuple(max(v) for v in values_per_player),
        best_response_picks=tuple(_best_picks(v) for v in values_per_player),
        deviation_gains=tuple(gains),
        indifferent_deviations=tuple(weak_flags),
        is_nash=max(gains) <= epsilon,
        payoff_sum=payoff_sum,
        is_payoff_sum_maximal=abs(payoff_sum - 1.0) <= epsilon,
    )
