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

from .game import (
    DEFAULT_EPSILON, MODEL_EXACT, SUM_TOLERANCE, StrategyProfile, _profile_choice_values, _Record,
    _items, _total, as_strategy,
)

_TIE_TOLERANCE = 1e-12


class VerificationReport(_Record):
    """Per-player deviation analysis of one strategy profile.

    ``deviation_gains[i]`` is player i's best-response value minus their
    current payoff; the profile is marked ``is_nash`` when every gain is at
    most epsilon. ``indifferent_deviations[i]`` flags players who cannot
    gain but could switch to an unused pure choice without losing either
    (the profile is then an equilibrium only in the weak sense).
    ``is_payoff_sum_maximal`` holds when the payoffs sum to 1 within
    ``SUM_TOLERANCE`` (1e-9); epsilon bounds gains only.
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


def pure_choice_values(others: Sequence[StrategyLike], model: str = MODEL_EXACT) -> tuple:
    """Deviator's payoff for each pure choice 1..n against the n - 1 ``others``.

    n is the length of the first opponent's strategy, and every opponent's
    strategy must have n entries. Exact values are win probabilities: entry
    i is the probability that no opponent picks i + 1 and every integer
    below it is picked by a count different from one, and
    ``lupi._kernels_py._plan`` picks the program from the opponents' rows.
    Under any other model the opponents are scored as the symmetric profile
    (deviator on the first opponent's strategy, then the opponents) by
    ``_profile_choice_values``, which rejects an unknown model and, under
    ``paper``, opponents on different strategies.
    """
    strategies = [as_strategy(s) for s in _items(others, "others must be a sequence of opponent strategies")]
    if not strategies:
        raise ValueError("expected at least one opponent strategy")
    n = len(strategies[0])
    if len(strategies) != n - 1:
        raise ValueError(f"expected {n - 1} opponent strategies for n={n}, got {len(strategies)}")
    for i, s in enumerate(strategies):
        if len(s) != n:
            raise ValueError(f"opponent strategy {i} has {len(s)} entries, expected {n}")
    if model == MODEL_EXACT:
        from . import _kernels_py

        return tuple(_kernels_py.win_probs_distinct([list(s.probs) for s in strategies]))
    return _profile_choice_values(StrategyProfile((strategies[0], *strategies)), model)[0][0]


def best_response(others: Sequence[StrategyLike], model: str = MODEL_EXACT):
    """Value of every pure choice against ``others`` plus the maximizing set.

    Returns ``(values, best_picks)`` where ``values[i]`` is the payoff of
    pure choice i + 1 and ``best_picks`` holds every choice within 1e-12 of
    the maximum (claims like "choice 3 is optimal" are then membership
    checks, robust to exact ties).
    """
    values = pure_choice_values(others, model)
    return values, _best_picks(values)


def _best_picks(values: Sequence[float]) -> tuple:
    """Every pure choice (1-based) whose value is within 1e-12 of the best one."""
    top = max(values)
    return tuple(i + 1 for i, v in enumerate(values) if v >= top - _TIE_TOLERANCE)


def indifference_spread(common: StrategyLike, model: str = MODEL_EXACT) -> float:
    """Max minus min of the pure-choice payoffs against all-common opponents.

    Zero spread is the defining property of a full-support symmetric
    equilibrium: the deviator's payoff no longer depends on their strategy.
    """
    strategy = as_strategy(common)
    values = pure_choice_values([strategy] * (strategy.n - 1), model)
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

    Every player's values and payoff come from ``_profile_choice_values``
    under ``model``, the producer that ``exact_profile_payoffs`` and
    ``solve_symmetric`` read too, so the payoffs agree bit for bit; it
    rejects an unknown model, and an asymmetric profile under ``paper``.
    ``epsilon``, an int or a float but not a bool, bounds gains only: a
    player's indifferent deviations are choices they leave unused (weight at
    most ``SUM_TOLERANCE``) that pay within ``epsilon`` of their payoff, and
    the payoff sum is maximal when it is 1 within ``SUM_TOLERANCE``, whatever
    ``epsilon`` is.
    """
    if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)) or not 0.0 < epsilon < float("inf"):
        raise ValueError("epsilon must be positive and finite")
    values_per_player, payoffs = _profile_choice_values(profile, model)
    gains = [max(values) - payoff for values, payoff in zip(values_per_player, payoffs)]
    # a player who cannot gain, but has an unused choice that pays as much
    weak_flags = [
        gain <= epsilon and any(p <= SUM_TOLERANCE and abs(v - payoff) <= epsilon for p, v in zip(own.probs, values))
        for own, values, payoff, gain in zip(profile.strategies, values_per_player, payoffs, gains)
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
        is_payoff_sum_maximal=abs(payoff_sum - 1.0) <= SUM_TOLERANCE,
    )
