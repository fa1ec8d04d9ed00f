"""Game definition, adjudication, and exact expected payoffs.

Rules: each of n players secretly picks an integer from 1..n; the player
holding the smallest integer picked by exactly one player wins a utility of
one, and if no integer is picked exactly once nobody wins.

The payoff computations here are exact (no sampling, no model
approximations) and serve as the ground truth the closed-form model and the
solvers are checked against. Two exact routes are used depending on the
opponents: when all opponents share one strategy, a dynamic program over
(integer, opponents not yet placed) with n * n cells; when they differ, a
capped-count dynamic program over 3**n states. A full n**n enumeration is
kept as an independent slow cross-check.

Players are 0-indexed everywhere in this package; command-line output is
1-indexed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ._backend import kernels

SUM_TOLERANCE = 1e-9

StrategyLike = Union["MixedStrategy", Sequence[float]]


@dataclass(frozen=True)
class GameSpec:
    """Player count n, which is also the size of the integer range 1..n."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            raise ValueError(f"player count must be an integer >= 2, got {self.n!r}")


@dataclass(frozen=True)
class MixedStrategy:
    """Probability distribution over the pure choices 1..n.

    Entry i is the probability of choosing the integer i + 1. Entries must
    lie in [0, 1] and sum to 1 within 1e-9; accepted inputs are renormalized
    so downstream code can rely on a unit sum.
    """

    probs: tuple

    def __post_init__(self):
        try:
            probs = tuple(float(p) for p in self.probs)
        except (TypeError, ValueError):
            raise ValueError(f"strategy entries must be numbers, got {self.probs!r}") from None
        if len(probs) < 2:
            raise ValueError("a strategy needs at least two choices")
        for i, p in enumerate(probs):
            if not math.isfinite(p) or p < 0.0 or p > 1.0:
                raise ValueError(f"probability {p!r} at index {i} is outside [0, 1]")
        total = sum(probs)
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total!r}, not 1 within {SUM_TOLERANCE}")
        if total != 1.0:
            probs = tuple(p / total for p in probs)
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return len(self.probs)

    def __len__(self) -> int:
        return len(self.probs)


def as_strategy(value: StrategyLike) -> MixedStrategy:
    """Coerce a sequence of probabilities into a validated MixedStrategy."""
    if isinstance(value, MixedStrategy):
        return value
    return MixedStrategy(tuple(value))


@dataclass(frozen=True)
class StrategyProfile:
    """One mixed strategy per player."""

    strategies: tuple

    def __post_init__(self):
        strategies = tuple(as_strategy(s) for s in self.strategies)
        n = len(strategies)
        if n < 2:
            raise ValueError("a profile needs at least two players")
        for i, s in enumerate(strategies):
            if len(s) != n:
                raise ValueError(
                    f"strategy for player {i} has {len(s)} entries, expected {n}"
                )
        object.__setattr__(self, "strategies", strategies)

    @property
    def n(self) -> int:
        return len(self.strategies)

    @classmethod
    def symmetric(cls, strategy: StrategyLike, n: Optional[int] = None) -> "StrategyProfile":
        """Profile in which all players adopt the same strategy."""
        s = as_strategy(strategy)
        if n is None:
            n = len(s)
        return cls(tuple([s] * n))

    def rows(self):
        """Probabilities as a list of per-player lists (kernel input form)."""
        return [list(s.probs) for s in self.strategies]


def adjudicate(picks: Sequence[int]) -> Optional[int]:
    """Index of the player holding the smallest uniquely-picked integer.

    Returns None when every chosen integer was chosen by at least two
    players. The number of players is the length of ``picks`` and each pick
    must lie in 1..n.
    """
    n = len(picks)
    if n < 2:
        raise ValueError("an outcome needs at least two picks")
    counts = [0] * n
    for i, p in enumerate(picks):
        if not isinstance(p, int) or isinstance(p, bool) or not 1 <= p <= n:
            raise ValueError(f"pick {p!r} of player {i} is outside 1..{n}")
        counts[p - 1] += 1
    for val in range(n):
        if counts[val] == 1:
            return list(picks).index(val + 1)
    return None


def _opponent_rows(spec: GameSpec, others: Sequence[StrategyLike]):
    strategies = [as_strategy(s) for s in others]
    if len(strategies) != spec.n - 1:
        raise ValueError(
            f"expected {spec.n - 1} opponent strategies for n={spec.n}, got {len(strategies)}"
        )
    for i, s in enumerate(strategies):
        if len(s) != spec.n:
            raise ValueError(f"opponent strategy {i} has {len(s)} entries, expected {spec.n}")
    return [list(s.probs) for s in strategies]


def win_probabilities(spec: GameSpec, others: Sequence[StrategyLike]) -> tuple:
    """Exact win probability of each pure choice 1..n against ``others``.

    Entry i is the probability that a player picking i + 1 wins: no opponent
    picks i + 1 and every integer below it is picked by a count different
    from one. Identical opponents go through the polynomial
    identical-opponent dynamic program, distinct opponents through the
    capped-count dynamic program.
    """
    rows = _opponent_rows(spec, others)
    first = rows[0]
    if all(row == first for row in rows[1:]):
        return tuple(kernels.win_probs_common(first, len(rows)))
    return tuple(kernels.win_probs_distinct(rows))


def exact_pure_vs_mixed(spec: GameSpec, my_pick: int, others: Sequence[StrategyLike]) -> float:
    """Exact probability that a player picking ``my_pick`` wins."""
    if not isinstance(my_pick, int) or isinstance(my_pick, bool) or not 1 <= my_pick <= spec.n:
        raise ValueError(f"pick {my_pick!r} is outside 1..{spec.n}")
    return win_probabilities(spec, others)[my_pick - 1]


def exact_profile_payoffs(profile: StrategyProfile) -> tuple:
    """Exact expected payoff of every player under the joint distribution.

    Each player's payoff is the win probability of their pure choices
    against the remaining players, weighted by their own probabilities.
    """
    spec = GameSpec(profile.n)
    strategies = profile.strategies
    payoffs = []
    for i, own in enumerate(strategies):
        others = strategies[:i] + strategies[i + 1 :]
        payoffs.append(_mixed_value(own, win_probabilities(spec, others)))
    return tuple(payoffs)


def _mixed_value(strategy: MixedStrategy, values: Sequence[float]) -> float:
    """Payoff of a mixed strategy: its probabilities dotted, in order, with pure-choice values."""
    total = 0.0
    for p, v in zip(strategy.probs, values):
        total += p * v
    return total


def enumerated_profile_payoffs(profile: StrategyProfile) -> tuple:
    """Profile payoffs by full n**n enumeration through adjudication.

    Independent of the identical-opponent and capped-count dynamic
    programs; intended as a slow cross-check for n <= 5 or so.
    """
    return tuple(kernels.enum_profile_payoffs(profile.rows()))
