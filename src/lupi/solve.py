"""Symmetric equilibria by one-dimensional shooting.

Both models' equilibrium conditions are triangular: once one scalar is
fixed, the probabilities follow one choice at a time, so the n - 1 unknowns
reduce to one scalar equation.

  * ``exact``: shoot forward on the equilibrium value v. Choice j gets the
    probability p_j at which its exact win probability equals v (win_j
    falls as p_j grows, so this is an inner search), or 0 when win_j is
    already at most v at p_j = 0. The last choice that takes mass gets all
    the mass left, and the map is R(v) = its win probability - v; when that
    win is above v, R(v) is the larger of it and the next choice's win at
    zero mass, minus v. From n = 11 on, the root leaves the top choices at 0.
  * ``paper``: shoot backward from s = p_{n-1}. A zero closed-form gradient
    forces p_{n-2} = s, and then the tail masses t_g = p_{g+1} + ... +
    p_{n-1} follow from t_{n-2} = s, t_{n-3} = 2s and
    t_{g-2} = t_{g-1} * (1 + (1 - (t_g / t_{g-1})**m)**(1/m)), m = n - 1.
    The recurrence is homogeneous of degree 1 in s, so the map
    H(s) = t_{-1} - 1 = s * t_{-1}(1) - 1 is linear: one shot at s = 1 and
    one division give the root, and no search runs.

Every ``exact`` search, outer and inner, is Illinois false position on a
bracket with a bisection fallback, run to full floating-point precision; it
needs no derivatives and stops on its own. A root counts as converged when
the residual, recomputed from the returned strategy, is within the model's
fixed ``_TOLERANCES`` entry, which every root up to the model's
``MAX_SOLVER_N`` entry meets with orders of magnitude to spare, so a result
that is not converged means that an ``exact`` search stopped at its step cap.
Everything is plain Python lists: the solver needs no array library.
"""

from __future__ import annotations

from .game import MODEL_EXACT, MODEL_PAPER, MODELS, MixedStrategy, StrategyProfile, _profile_choice_values, _Record

# largest recomputed residual that counts as converged, per model
_TOLERANCES = {MODEL_PAPER: 1e-12, MODEL_EXACT: 1e-10}

# the solver's range of n, per model. paper: the largest n whose root
# s = 1/(t_{-1}(1) + 1) is a normal double: 2.23e-308 at n = 1023, subnormal at
# 1024, 0.0 at 1025 and 1026, where t_{-1}(1) overflows, and NaN from 1027 on.
# exact: measured over every n up to 100, each search closes its bracket in at
# most 26 steps (n = 58) with a residual of at most 1.6e-14 (n = 70), and one
# solve takes at most 0.58 s in pure Python (n = 93; 0.51 s at n = 100, on a
# 2-core Xeon VM)
MIN_SOLVER_N = 3
MAX_SOLVER_N = {MODEL_PAPER: 1023, MODEL_EXACT: 100}

_EPS = 2.0**-52
# cap on the steps of one search; three steps at least halve its bracket, so
# it closes within about 60 halvings, and the cap only rules out a hang
_MAX_STEPS = 200


class SolveResult(_Record):
    """A symmetric equilibrium candidate and its diagnostics.

    ``residual_norm`` is recomputed from the returned strategy, so a result
    claiming convergence can always be re-verified directly: the largest
    closed-form gradient entry for ``paper``, and for ``exact`` the largest
    win probability minus the smallest one on the support. ``payoff`` is the
    per-player payoff when everyone adopts the strategy, under the same
    model that was solved, bit-equal to ``verify_profile``'s. ``iterations``
    counts the steps of the outer ``exact`` search; it is 0 for ``paper``,
    whose root takes no search. ``converged`` says whether the residual is
    within the model's fixed tolerance (1e-12 ``paper``, 1e-10 ``exact``).
    ``full_support`` is False when some choice has probability 0.
    """

    model: str
    n: int
    strategy: MixedStrategy
    payoff: float
    residual_norm: float
    iterations: int
    converged: bool
    full_support: bool


def _find_root(f, lo, hi, f_lo, f_hi):
    """Shrink a bracket [lo, hi] on which ``f`` changes sign.

    Illinois false position: each step evaluates f where the chord through
    the bracket ends crosses zero, and an end kept twice in a row has its
    value halved so that it gives way. A step bisects instead when the
    bracket is wider than half its width two steps earlier (the widths
    before the first step count as the starting one, so the first step
    bisects). Steps stay two units in the last place inside the bracket, so
    it closes around a root it has come that close to. Stops when the
    bracket has closed, f is exactly 0, or after ``_MAX_STEPS`` evaluations.
    Returns the final (lo, steps); f has the sign of ``f_lo`` at lo, or is
    0 there.
    """
    steps = 0
    if f_lo == 0.0 or f_hi == 0.0:
        return (lo if f_lo == 0.0 else hi), steps
    kept = 0  # end kept by the last step: -1 lo, +1 hi
    older = prev = hi - lo
    while steps < _MAX_STEPS:
        width = hi - lo
        gap = 2.0 * _EPS * max(abs(lo), abs(hi))
        if width <= 2.0 * gap:
            break
        if width > 0.5 * older:
            x = lo + 0.5 * width
        else:
            x = lo + width * (f_lo / (f_lo - f_hi))
        x = min(max(x, lo + gap), hi - gap)
        fx = f(x)
        steps += 1
        if fx == 0.0:
            return x, steps
        if (fx > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, fx
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, fx
            if kept == -1:
                f_lo *= 0.5
            kept = -1
        older, prev = prev, width
    return lo, steps


def _exact_shot(n, v):
    """Forward shot at equilibrium value v: (probabilities, R(v)).

    The last choice that takes mass gets all the mass left when the loop
    ends, and R(v) is its win probability with that mass, minus v. When
    that win is above v, the next choice, unused, is scored at zero mass and
    R(v) takes the larger win: without it R would touch 0 below the root,
    at each support jump where the full-mass win falls to v. The
    inner search compares m-th roots of the win probabilities (m = n - 1
    opponents): early on, win_j is close to (1 - p_0 - ... - p_j)**m, and
    its m-th root is close to linear in p_j. The opponents are read only
    through the kernel's ``common_start``, ``common_win`` and
    ``common_step``.
    """
    from ._kernels_py import common_start, common_step, common_win

    k = 1.0 / (n - 1)
    v_k = v**k
    probs = [0.0] * n
    row = common_start(n - 1)
    rem = 1.0
    last, w_last = 0, 0.0
    for j in range(n):
        w_none = common_win(row, rem)
        if w_none <= v:
            break  # the row and rem stay as they are, so no later choice takes mass either
        w_all = common_win(row, 0.0)  # win probability with all the remaining mass on j
        last, w_last = j, w_all
        if w_all > v:
            if j + 1 < n:
                w_last = max(w_all, common_win(common_step(row, rem), 0.0))
            break

        def excess(p):
            return common_win(row, rem - p) ** k - v_k

        pj = _find_root(excess, 0.0, rem, w_none**k - v_k, w_all**k - v_k)[0]
        probs[j] = pj
        rem -= pj
        row = common_step(row, pj)
    probs[last] += rem
    return probs, w_last - v


def _paper_shot(n, s):
    """Backward shot from p_{n-1} = s: (probabilities, H(s)).

    The tail masses run from t_{n-2} = s down to t_{-1}; p_0 is 1 - t_0, so
    the probabilities sum to one whenever t_0 <= 1.
    """
    m = n - 1
    tails = [s, 2.0 * s]
    while len(tails) < n:
        last = tails[-1]
        ratio = tails[-2] / last if last > 0.0 else 0.0
        tails.append(last * (1.0 + (1.0 - ratio**m) ** (1.0 / m)))
    # tails[k] is t_{n-2-k}; tails[n - 1] is t_{-1}
    probs = [1.0 - tails[n - 2]]
    probs += [tails[k] - tails[k - 1] for k in range(n - 2, 0, -1)]
    probs.append(s)
    return probs, tails[n - 1] - 1.0


def _package(model: str, probs, iterations: int) -> SolveResult:
    strategy = MixedStrategy(tuple(probs))
    values, payoffs = _profile_choice_values(StrategyProfile.symmetric(strategy), model)
    values, payoff = values[0], payoffs[0]
    if model == MODEL_PAPER:
        # the closed-form gradient: each value minus the last
        residual_norm = max(abs(v - values[-1]) for v in values[:-1])
    else:
        residual_norm = max(values) - min(w for p, w in zip(strategy.probs, values) if p > 0.0)
    return SolveResult(
        model=model,
        n=strategy.n,
        strategy=strategy,
        payoff=payoff,
        residual_norm=residual_norm,
        iterations=iterations,
        converged=residual_norm <= _TOLERANCES[model],
        full_support=min(strategy.probs) > 0.0,
    )


def solve_symmetric(n: int, model: str = MODEL_PAPER) -> SolveResult:
    """Find a common strategy for n players that is its own best response under ``model``.

    ``paper`` shoots once from the root of its linear map. ``exact``
    searches the whole domain of its scalar map, whose ends bracket its
    sign change, and returns the strategy shot from the low end of the
    final bracket. n ranges from ``MIN_SOLVER_N`` to the model's
    ``MAX_SOLVER_N`` entry. The result is never fabricated: ``converged`` is
    False whenever the recomputed residual exceeds the model's fixed
    tolerance, which only an ``exact`` search stopped at its step cap leaves,
    and the point reached is reported as-is.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    if not (isinstance(n, int) and MIN_SOLVER_N <= n <= MAX_SOLVER_N[model]):
        raise ValueError(f"the {model} solver supports {MIN_SOLVER_N} <= n <= {MAX_SOLVER_N[model]}, got {n!r}")
    if model == MODEL_PAPER:
        # H(s) = s * t_{-1}(1) - 1, so the root is 1 / t_{-1}(1)
        s = 1.0 / (_paper_shot(n, 1.0)[1] + 1.0)
        return _package(model, _paper_shot(n, s)[0], 0)
    # v <= 1/n because the n payoffs of a symmetric profile sum to at most one
    top = 1.0 / n
    f_lo, f_hi = _exact_shot(n, 0.0)[1], _exact_shot(n, top)[1]
    lo, steps = _find_root(lambda v: _exact_shot(n, v)[1], 0.0, top, f_lo, f_hi)
    return _package(model, _exact_shot(n, lo)[0], steps)
