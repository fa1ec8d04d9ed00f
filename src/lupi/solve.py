"""Symmetric-equilibrium search by damped Newton iteration.

Both models reduce to a root-finding problem in the first n - 1
probabilities (the last one is eliminated by normalization):

  * ``paper``: zero the closed-form payoff gradient,
  * ``exact``: equalize the exact win probabilities of all pure choices
    (the residuals are the consecutive differences).

The Jacobian is approximated by forward differences and the Newton step
solved by Gaussian elimination with partial pivoting; steps are halved until
the residual norm drops. Iterates are clamped to the closed simplex with a
small interior margin so the formulas stay well-defined near the boundary.
Everything is plain Python lists: the systems are at most 11 x 11, so the
solver needs no array library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._backend import kernels
from .game import GameSpec, MixedStrategy, as_strategy
from .model import (
    MODEL_EXACT,
    MODEL_PAPER,
    MODELS,
    closed_form_gradient,
    closed_form_payoff,
    geometric_strategy,
)

MIN_SOLVER_N = 3
MAX_SOLVER_N = 12

DEFAULT_TOLERANCES = {MODEL_PAPER: 1e-12, MODEL_EXACT: 1e-10}

_CLAMP_LO = 1e-12
_CLAMP_HI = 1.0 - 1e-12
_FD_STEP = 1e-7
_MAX_HALVINGS = 40
_RESTART_VALUES = (0.1, 0.3, 0.5)
_SUPPORT_FLOOR = 1e-9
_DISTINCT_ROOT_TOL = 1e-8


@dataclass(frozen=True)
class SolveResult:
    """A symmetric equilibrium candidate and its diagnostics.

    ``residual_norm`` is recomputed from the returned strategy, so a result
    claiming convergence can always be re-verified directly. ``payoff`` is
    the per-player payoff when everyone adopts the strategy, under the same
    model that was solved. ``full_support`` is False when the iteration
    settled essentially on the simplex boundary.
    """

    model: str
    n: int
    strategy: MixedStrategy
    payoff: float
    residual_norm: float
    iterations: int
    converged: bool
    full_support: bool


def _full_probs(x):
    """Extend free variables to a full probability vector (last = remainder)."""
    total = 0.0
    for v in x:
        total += v
    last = 1.0 - total
    if last < 0.0:
        last = 0.0
    return [*x, last]


def _paper_residual(spec: GameSpec):
    def residual(x):
        g = closed_form_gradient(spec, _full_probs(x))
        return g, max(abs(v) for v in g)

    return residual


def _exact_residual(spec: GameSpec):
    m = spec.n - 1

    def residual(x):
        wins = kernels.win_probs_common(_full_probs(x), m)
        r = [wins[i + 1] - wins[i] for i in range(m)]
        return r, max(wins) - min(wins)

    return residual


def _clamp(x):
    out = [min(max(float(v), _CLAMP_LO), _CLAMP_HI) for v in x]
    running = 0.0
    for k in range(len(out)):
        cap = _CLAMP_HI - running
        if out[k] > cap:
            out[k] = max(_CLAMP_LO, cap)
        running += out[k]
    return out


def _solve_linear(a, b):
    """Solve ``a @ x = b`` by Gaussian elimination with partial pivoting.

    ``a`` is a list of rows; both arguments are overwritten. Returns None
    when a pivot is exactly zero, i.e. the matrix is singular.
    """
    k = len(b)
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0.0:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        top = a[col]
        for r in range(col + 1, k):
            row = a[r]
            f = row[col] / top[col]
            for c in range(col + 1, k):
                row[c] -= f * top[c]
            b[r] -= f * b[col]
    x = [0.0] * k
    for r in range(k - 1, -1, -1):
        row = a[r]
        acc = b[r]
        for c in range(r + 1, k):
            acc -= row[c] * x[c]
        x[r] = acc / row[r]
    return x


def _newton(residual, x0, tol, max_iterations):
    x = _clamp(x0)
    r, norm = residual(x)
    iterations = 0
    k = len(x)
    while norm > tol and iterations < max_iterations:
        columns = []
        for j in range(k):
            xp = x[:]
            xp[j] += _FD_STEP
            rj, _ = residual(xp)
            columns.append([(a - b) / _FD_STEP for a, b in zip(rj, r)])
        jac = [list(row) for row in zip(*columns)]
        step = _solve_linear(jac, [-v for v in r])
        if step is None or not all(math.isfinite(v) for v in step):
            break
        t = 1.0
        candidate, rc, nc = None, None, None
        for _ in range(_MAX_HALVINGS):
            candidate = _clamp([xi + t * si for xi, si in zip(x, step)])
            rc, nc = residual(candidate)
            if nc < norm:
                break
            t *= 0.5
        x, r, norm = candidate, rc, nc
        iterations += 1
    return x, iterations


def _grid_points(k, total=0.0):
    """Restart-grid points in k coordinates, in lexicographic order, whose
    running sum from ``total`` stays within the simplex.

    Float sums of positive values never decrease, so a prefix past the bound
    is dropped with all its extensions.
    """
    if k == 0:
        yield []
        return
    for v in _RESTART_VALUES:
        running = total + v
        if running <= 1.0 + 1e-12:
            for rest in _grid_points(k - 1, running):
                yield [v, *rest]


def _starting_points(spec: GameSpec):
    yield list(geometric_strategy(spec).probs[: spec.n - 1])
    yield from _grid_points(spec.n - 1)


def _package(spec: GameSpec, model: str, x, iterations: int, tol: float) -> SolveResult:
    probs = _full_probs(x)
    total = sum(probs)
    strategy = MixedStrategy(tuple(p / total for p in probs))
    if model == MODEL_PAPER:
        grad = closed_form_gradient(spec, strategy)
        residual_norm = max(abs(g) for g in grad)
        payoff = closed_form_payoff(spec, strategy, strategy)
    else:
        wins = kernels.win_probs_common(list(strategy.probs), spec.n - 1)
        residual_norm = max(wins) - min(wins)
        payoff = 0.0
        for p, w in zip(strategy.probs, wins):
            payoff += p * w
    return SolveResult(
        model=model,
        n=spec.n,
        strategy=strategy,
        payoff=payoff,
        residual_norm=residual_norm,
        iterations=iterations,
        converged=residual_norm <= tol,
        full_support=min(strategy.probs) > _SUPPORT_FLOOR,
    )


def _check_args(spec: GameSpec, model: str, tol, max_iterations: int) -> float:
    if not MIN_SOLVER_N <= spec.n <= MAX_SOLVER_N:
        raise ValueError(f"solver supports {MIN_SOLVER_N} <= n <= {MAX_SOLVER_N}, got {spec.n}")
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    tol = DEFAULT_TOLERANCES[model] if tol is None else float(tol)
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    return tol


def solve_symmetric(
    spec: GameSpec,
    model: str = MODEL_PAPER,
    tol: float | None = None,
    max_iterations: int = 100,
    start=None,
) -> SolveResult:
    """Find a common strategy that is its own best response under ``model``.

    Starts from the geometric strategy and, if that fails, retries from a
    deterministic grid of interior points before reporting failure. The
    returned result is never fabricated: ``converged`` is False whenever no
    start drove the residual below the tolerance, and the least-bad point is
    reported as-is.
    """
    tol = _check_args(spec, model, tol, max_iterations)
    residual = _paper_residual(spec) if model == MODEL_PAPER else _exact_residual(spec)
    if start is not None:
        starts = [list(as_strategy(start).probs[: spec.n - 1])]
    else:
        starts = _starting_points(spec)
    best = None
    for x0 in starts:
        x, iterations = _newton(residual, x0, tol, max_iterations)
        result = _package(spec, model, x, iterations, tol)
        if result.converged:
            return result
        if best is None or result.residual_norm < best.residual_norm:
            best = result
    return best


def multistart_roots(
    spec: GameSpec,
    model: str = MODEL_PAPER,
    tol: float | None = None,
    max_iterations: int = 100,
) -> list:
    """All distinct converged strategies over the full deterministic start grid.

    Uniqueness of the symmetric equilibrium is a theorem only for small n,
    so rather than asserting it, this enumerates what the iteration actually
    finds; callers can inspect whether the root is unique. Results are
    sorted by strategy and deduplicated at max-coordinate distance 1e-8.
    """
    tol = _check_args(spec, model, tol, max_iterations)
    residual = _paper_residual(spec) if model == MODEL_PAPER else _exact_residual(spec)
    found = []
    for x0 in _starting_points(spec):
        x, iterations = _newton(residual, x0, tol, max_iterations)
        result = _package(spec, model, x, iterations, tol)
        if not result.converged:
            continue
        duplicate = False
        for other in found:
            gap = max(
                abs(a - b) for a, b in zip(result.strategy.probs, other.strategy.probs)
            )
            if gap <= _DISTINCT_ROOT_TOL:
                duplicate = True
                break
        if not duplicate:
            found.append(result)
    found.sort(key=lambda res: res.strategy.probs)
    return found
