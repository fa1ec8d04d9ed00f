"""Game definition and exact expected payoffs.

Rules: each of n players secretly picks an integer from 1..n; the player
holding the smallest integer picked by exactly one player wins a utility of
one, and if no integer is picked exactly once nobody wins.

The payoff computations here are exact (no sampling, no model
approximations) and serve as the ground truth the closed-form model and the
solvers are checked against. This module hands the kernels the rows, and
``lupi._kernels_py._plan`` picks the program from them. A whole profile's
payoffs take one kernel pass over all n players, which scores every player
against the others. That pass is one branch of the one profile scorer,
``_profile_choice_values``; its other branch reads the closed-form model's
values from :mod:`lupi.model`, for the solver, the verifier and
``pure_choice_values`` under ``paper``.

Players are 0-indexed everywhere in this package; command-line output is
1-indexed.
"""

from __future__ import annotations

import sys
from operator import mul

SUM_TOLERANCE = 1e-9

# model names and the verifier's default tolerance
MODEL_PAPER = "paper"
MODEL_EXACT = "exact"
MODELS = (MODEL_PAPER, MODEL_EXACT)
DEFAULT_EPSILON = 1e-9

# lupi's annotations are text that is never evaluated (``from __future__ import annotations``),
# so no module imports a name for them alone. ``Sequence`` and ``Optional`` in them are
# typing's, and a ``StrategyLike`` is a MixedStrategy or a sequence of floats.

# The one summation rule: every float total in lupi is _total(terms), its terms (at
# least one) added left to right in doubles. That is the order every recorded output
# was computed in, and the one a rounding-error bound counts on. Builtin sum adds so
# up to CPython 3.11; from 3.12 it compensates float sums, and a plain loop stands in
if sys.version_info < (3, 12):
    _total = sum
else:
    def _total(terms):
        total = 0.0
        for term in terms:
            total += term
        return total


def _items(value, what: str) -> tuple:
    """``value`` as a tuple, or ValueError ``{what}, got {value!r}`` if it cannot be iterated.

    The one reader of a sequence argument; the message is formatted on failure
    only, since a large profile's repr takes longer than its validation.
    """
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{what}, got {value!r}") from None


class _Record:
    """Base of the package's immutable value records.

    The fields are the names annotated in the subclass body, in order, given
    by position or keyword. Records of one class with equal fields are equal
    and hash alike; they print as ``Name(field=value, ...)`` and refuse
    assignment and deletion with AttributeError. A subclass's
    ``__post_init__``, if any, runs once the fields are set, to validate
    them or replace them with ``object.__setattr__``.
    """

    def __init_subclass__(cls):
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args))
        values.update(kwargs)
        if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        self.__dict__.update(values)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MixedStrategy(_Record):
    """Probability distribution over the pure choices 1..n.

    Entry i is the probability of choosing the integer i + 1. Entries must
    be ints or floats (not bools) in [0, 1], summing to 1 within 1e-9. They
    are kept as the floats given, never rescaled, so ``MixedStrategy(s.probs)
    == s`` and a saved profile reads back with the same bits.
    """

    probs: tuple

    def __post_init__(self):
        probs = _items(self.probs, "strategy entries must be numbers")
        if len(probs) < 2:
            raise ValueError("a strategy needs at least two choices")
        for i, p in enumerate(probs):
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise ValueError(f"entry {p!r} at index {i} is not a number")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p!r} at index {i} is outside [0, 1]")
        probs = tuple(map(float, probs))
        total = _total(probs)
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total!r}, not 1 within {SUM_TOLERANCE}")
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return len(self.probs)

    def __len__(self) -> int:
        return len(self.probs)


def as_strategy(value: StrategyLike) -> MixedStrategy:
    """Coerce a sequence of probabilities into a validated MixedStrategy."""
    return value if isinstance(value, MixedStrategy) else MixedStrategy(value)


class StrategyProfile(_Record):
    """One mixed strategy per player.

    This is the one checker of strategy rows, a profile document's too:
    each row must be a strategy with one entry per player, and a faulty
    row's ValueError starts ``strategies row I: ``, I its 0-based player.
    """

    strategies: tuple

    def __post_init__(self):
        rows = _items(self.strategies, "strategies must be a sequence of strategy rows")
        n = len(rows)
        if n < 2:
            raise ValueError("a profile needs at least two players")
        strategies = []
        for i, row in enumerate(rows):
            try:
                strategy = as_strategy(row)
            except ValueError as exc:
                raise ValueError(f"strategies row {i}: {exc}") from None
            if len(strategy) != n:
                raise ValueError(f"strategies row {i}: has {len(strategy)} entries, expected {n}")
            strategies.append(strategy)
        object.__setattr__(self, "strategies", tuple(strategies))

    @property
    def n(self) -> int:
        return len(self.strategies)

    @classmethod
    def symmetric(cls, strategy: StrategyLike) -> "StrategyProfile":
        """Profile in which all players, one per choice of ``strategy``, adopt it."""
        s = as_strategy(strategy)
        return cls(tuple([s] * len(s)))

    def rows(self):
        """Probabilities as a list of per-player lists (kernel input form)."""
        return [list(s.probs) for s in self.strategies]


def exact_profile_payoffs(profile: StrategyProfile) -> tuple:
    """Exact expected payoff of every player under the joint distribution.

    Each player's payoff is the win probability of their pure choices
    against the remaining players, weighted by their own probabilities. The
    payoffs are ``_profile_choice_values``'s under ``exact``, the scores
    ``verify_profile`` and ``solve_symmetric`` read too, so all three report
    bit-equal payoffs.
    """
    return tuple(_profile_choice_values(profile)[1])


def _profile_choice_values(profile: StrategyProfile, model: str = MODEL_EXACT) -> tuple:
    """Every player's pure-choice values against the others under ``model``, and payoffs.

    Returns ``(values, payoffs)``, one tuple of values and one payoff per
    player. Under ``exact`` the values are win probabilities from one kernel
    pass over all the players that scores every one of them, and a payoff is
    the player's probabilities dotted, in order, with their values. Under
    ``paper`` the profile must be symmetric: the closed form's values are
    read once against the common strategy and mixed into the payoff with
    ``closed_form_payoff``'s operations; only this branch loads
    :mod:`lupi.model`. ``exact_profile_payoffs``, ``verify_profile`` and
    ``solve_symmetric`` take their scores here, and ``pure_choice_values``
    its ``paper`` scores, so this is the one scorer that rejects an unknown
    model.
    """
    if model == MODEL_EXACT:
        from . import _kernels_py

        values = [tuple(wins) for wins in _kernels_py.win_probs_leave_one_out(profile.rows())]
        return values, [_total(map(mul, own.probs, v)) for own, v in zip(profile.strategies, values)]
    if model != MODEL_PAPER:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    common, *others = profile.strategies
    if any(s.probs != common.probs for s in others):
        raise ValueError("the closed-form model scores symmetric profiles only")
    from .model import _closed_form_mix, _closed_form_values

    values = tuple(_closed_form_values(common))
    return [values] * profile.n, [_closed_form_mix(common.probs, values)] * profile.n
