"""Closed-form payoff model, its gradient, and the geometric strategy.

The closed-form expression for a deviator's expected winnings counts two
families of winning events when the deviator holds choice i: all opponents
above i, or all opponents on one common integer below i. With two opponents
(n = 3) these are the only ways to win, so the expression is exact there.
From n = 4 on it omits mixed opponent configurations (for example two
opponents on '1' and one above '2' while the deviator holds '2'), and the
exact oracle in :mod:`lupi.game` quantifies the gap. The expression is kept
verbatim here, gap included; nothing is corrected toward the exact game.
Each power is one ``**``, so every route here is linear in n: at n = 10**5
``geometric_payoff`` takes 0.05 s (2-core Xeon VM, Python 3.11.7, ``62cd239``).
"""

from __future__ import annotations

from operator import mul

from .game import GameSpec, MixedStrategy, StrategyLike, _total


def _entries(strategy: StrategyLike, n: int, name: str):
    entries = list(strategy.probs) if isinstance(strategy, MixedStrategy) else [float(v) for v in strategy]
    if len(entries) != n:
        raise ValueError(f"{name} has {len(entries)} entries, expected {n}")
    return entries


def _closed_form_values(spec: GameSpec, common: StrategyLike) -> list:
    """Closed-form payoff of each pure choice against all-``common`` opponents.

    Entry k, for k < n - 1, is (1 - p_0 - ... - p_k)**m + p_0**m + ... +
    p_{k-1}**m with m = n - 1 opponents; the last entry is p_0**m + ... +
    p_{n-2}**m, so ``common``'s last weight is never read.
    """
    n = spec.n
    m = n - 1
    p = _entries(common, n, "opponents_common")
    values = [(1.0 - p[0]) ** m]
    prefix = p[0]
    below = 0.0
    for k in range(1, n - 1):
        prefix += p[k]
        below += p[k - 1] ** m
        values.append((1.0 - prefix) ** m + below)
    values.append(below + p[n - 2] ** m)
    return values


def closed_form_payoff(spec: GameSpec, mine: StrategyLike, opponents_common: StrategyLike) -> float:
    """Deviator's expected winnings under the closed-form model.

    ``mine`` weights the deviator's choices, ``opponents_common`` is the one
    strategy shared by all n - 1 opponents. The final entry of each vector
    is recovered from normalization, exactly as the expression is written.
    Raw sequences are read as given, neither validated nor renormalized
    (finite-difference checks rely on this); ``pure_choice_values`` scores
    validated, renormalized opponents, so the two can differ in the last
    bits on a tuple whose sum is not 1.
    """
    return _closed_form_mix(_entries(mine, spec.n, "mine"), _closed_form_values(spec, opponents_common))


def _closed_form_mix(pi, values) -> float:
    """Closed-form payoff of weights ``pi`` against the choice values ``values``.

    The last weight is 1 minus the others, whatever ``pi`` holds there, so
    the profile scorer, ``game._profile_choice_values``, having read
    ``_closed_form_values`` once, scores the payoff from it with the
    operations ``closed_form_payoff`` runs.
    """
    n = len(values)
    last = (1.0 - _total(pi[: n - 1])) * values[n - 1]
    return _total([pi[0] * values[0], last, *map(mul, pi[1 : n - 1], values[1 : n - 1])])


def closed_form_gradient(spec: GameSpec, opponents_common: StrategyLike) -> tuple:
    """Derivatives of the closed-form payoff in the deviator's first n - 1 weights.

    The payoff is linear in those weights once the last one is eliminated by
    normalization, so the derivatives depend only on the opponents' strategy.
    A symmetric equilibrium candidate is a common strategy at which all n - 1
    derivatives vanish.
    """
    *values, last = _closed_form_values(spec, opponents_common)
    return tuple(v - last for v in values)


def geometric_strategy(spec: GameSpec) -> MixedStrategy:
    """Halving weights: 1/2**i on choice i, with the last weight repeated.

    Sums to one by construction and approximates the symmetric equilibria
    while favouring smaller integers.
    """
    probs = [0.5**i for i in range(1, spec.n)]
    probs.append(probs[-1])
    return MixedStrategy(tuple(probs))


def geometric_payoff(spec: GameSpec) -> float:
    """Per-player payoff when everyone plays the geometric strategy (n >= 3).

    The closed-form payoff at the geometric point; written out, it is the
    published double sum over the deviator's choice k and the opponents'
    common choice j <= k.
    """
    n = spec.n
    if n < 3:
        raise ValueError(f"geometric payoff is defined for n >= 3, got {n}")
    geo = geometric_strategy(spec)
    return closed_form_payoff(spec, geo, geo)


def two_choice_baseline(spec: GameSpec) -> float:
    """Per-player payoff when every player mixes evenly over '1' and '2'.

    Equals 1/2**(n-1): a player wins exactly when all others land on the
    other of the two integers. The reference point the geometric strategy
    is compared against.
    """
    return 0.5 ** (spec.n - 1)
