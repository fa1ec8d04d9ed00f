"""Symmetric equilibrium solver: both models, determinism, multistart."""

import itertools
import math
import random

import numpy as np
import pytest

from lupi import (
    GameSpec,
    StrategyProfile,
    closed_form_gradient,
    geometric_payoff,
    geometric_strategy,
    multistart_roots,
    solve_symmetric,
    two_choice_baseline,
    verify_profile,
    win_probabilities,
)
from lupi.solve import _newton, _solve_linear, _starting_points

SQRT3 = math.sqrt(3.0)
ROOT3 = (2 * SQRT3 - 3, 2 - SQRT3, 2 - SQRT3)
PAYOFF3 = 28 - 16 * SQRT3

# frozen from an independent brute-force Newton run (4**3 outcome enumeration
# per win probability); the exact-model root is nothing like the closed-form
# one, and its last two weights differ
EXACT4_ROOT = (0.44773657324723, 0.42487270494538, 0.12565488835007, 0.00173583345732)
EXACT4_PAYOFF = 0.16843752448986


def _spread(spec, strategy):
    wins = win_probabilities(spec, [strategy] * (spec.n - 1))
    return max(wins) - min(wins)


def test_paper_n3_matches_radical_solution():
    result = solve_symmetric(GameSpec(3), model="paper")
    assert result.converged
    assert result.model == "paper"
    for got, want in zip(result.strategy.probs, ROOT3):
        assert abs(got - want) <= 1e-9
    assert abs(result.payoff - PAYOFF3) <= 1e-9
    assert result.residual_norm <= 1e-12


def test_paper_n4_matches_reported_solution():
    result = solve_symmetric(GameSpec(4), model="paper")
    assert result.converged
    rounded = tuple(round(p, 3) for p in result.strategy.probs)
    assert rounded == (0.488, 0.250, 0.131, 0.131)
    assert abs(result.payoff - 0.134) <= 0.0005


@pytest.mark.parametrize("n", [3, 4])
def test_paper_solution_has_equal_last_two_weights(n):
    result = solve_symmetric(GameSpec(n), model="paper")
    probs = result.strategy.probs
    assert abs(probs[-1] - probs[-2]) <= 1e-9


@pytest.mark.parametrize("n", range(5, 9))
def test_paper_solutions_track_geometric_payoff(n):
    spec = GameSpec(n)
    result = solve_symmetric(spec, model="paper")
    assert result.converged
    assert result.payoff > two_choice_baseline(spec)
    assert abs(result.payoff - geometric_payoff(spec)) / geometric_payoff(spec) < 0.05
    recomputed = max(abs(g) for g in closed_form_gradient(spec, result.strategy))
    assert recomputed <= 1e-12


def test_exact_n3_agrees_with_paper_root():
    result = solve_symmetric(GameSpec(3), model="exact")
    assert result.converged
    for got, want in zip(result.strategy.probs, ROOT3):
        assert abs(got - want) <= 1e-9
    assert abs(result.strategy.probs[-1] - result.strategy.probs[-2]) <= 1e-9


def test_exact_n3_converges_quickly_from_geometric():
    spec = GameSpec(3)
    result = solve_symmetric(spec, model="exact", start=geometric_strategy(spec))
    assert result.converged
    assert result.iterations <= 20


def test_exact_n4_root_and_indifference():
    spec = GameSpec(4)
    result = solve_symmetric(spec, model="exact")
    assert result.converged
    assert result.full_support
    for got, want in zip(result.strategy.probs, EXACT4_ROOT):
        assert abs(got - want) <= 1e-6
    assert abs(result.payoff - EXACT4_PAYOFF) <= 1e-8
    assert _spread(spec, result.strategy) <= 1e-10


def test_exact_n4_differs_from_closed_form_root():
    exact = solve_symmetric(GameSpec(4), model="exact").strategy.probs
    paper = solve_symmetric(GameSpec(4), model="paper").strategy.probs
    assert max(abs(a - b) for a, b in zip(exact, paper)) > 0.1
    # the equal-last-two-weights property is an artifact of the closed-form
    # expression; the exact oracle's root does not have it at n = 4
    assert abs(exact[-1] - exact[-2]) > 0.05


@pytest.mark.parametrize("n", range(5, 11))
def test_exact_solver_larger_n(n):
    spec = GameSpec(n)
    result = solve_symmetric(spec, model="exact")
    assert result.converged
    if n < 10:
        # at n = 10 the last weight settles at the clamp floor (about 2e-12)
        assert result.full_support
    assert _spread(spec, result.strategy) <= 1e-10
    assert sum(result.strategy.probs) == pytest.approx(1.0, abs=1e-12)
    assert verify_profile(StrategyProfile([result.strategy] * n)).is_nash


@pytest.mark.parametrize("model", ["paper", "exact"])
def test_residual_claim_is_recomputable(model):
    spec = GameSpec(4)
    result = solve_symmetric(spec, model=model)
    if model == "paper":
        recomputed = max(abs(g) for g in closed_form_gradient(spec, result.strategy))
    else:
        recomputed = _spread(spec, result.strategy)
    assert abs(recomputed - result.residual_norm) <= 1e-15
    assert result.converged == (result.residual_norm <= (1e-12 if model == "paper" else 1e-10))


@pytest.mark.parametrize("model", ["paper", "exact"])
def test_solver_is_deterministic(model):
    first = solve_symmetric(GameSpec(5), model=model)
    second = solve_symmetric(GameSpec(5), model=model)
    assert first == second


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("model", ["paper", "exact"])
def test_multistart_finds_a_single_root(n, model):
    roots = multistart_roots(GameSpec(n), model=model)
    assert len(roots) == 1
    assert roots[0].converged


@pytest.mark.parametrize("n", range(3, 13))
def test_restart_grid_is_the_filtered_product(n):
    spec = GameSpec(n)
    want = [list(geometric_strategy(spec).probs[: n - 1])]
    want += [list(c) for c in itertools.product((0.1, 0.3, 0.5), repeat=n - 1) if sum(c) <= 1.0 + 1e-12]
    assert list(_starting_points(spec)) == want


@pytest.mark.parametrize("k", range(1, 12))
def test_linear_solve_matches_numpy(k):
    rng = random.Random(k)
    for _ in range(20):
        # a diagonally dominant matrix with its rows permuted is well
        # conditioned; a near-zero leading entry makes elimination without
        # row swaps fail
        perm = list(range(k))
        rng.shuffle(perm)
        a = [[rng.uniform(-1.0, 1.0) for c in range(k)] for r in range(k)]
        for r in range(k):
            a[r][perm[r]] += rng.choice((-k, k))
        if perm[0] != 0:
            a[0][0] = 1e-20
        b = [rng.uniform(-1.0, 1.0) for _ in range(k)]
        want = np.linalg.solve(np.array(a), np.array(b))
        got = _solve_linear([row[:] for row in a], b[:])
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12 * np.max(np.abs(want))


def test_singular_jacobian_stops_newton():
    assert _solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]) is None

    def residual(x):
        # the second residual is exactly twice the first, so every
        # forward-difference Jacobian is singular
        r0 = x[0] + x[1] - 0.9
        return [r0, 2.0 * r0], abs(2.0 * r0)

    x, iterations = _newton(residual, [0.2, 0.3], 1e-12, 100)
    assert iterations == 0
    assert x == [0.2, 0.3]


def test_failure_is_reported_not_fabricated():
    result = solve_symmetric(GameSpec(4), model="paper", max_iterations=1)
    assert not result.converged
    assert result.residual_norm > 1e-12


def test_argument_validation():
    with pytest.raises(ValueError):
        solve_symmetric(GameSpec(2))
    with pytest.raises(ValueError):
        solve_symmetric(GameSpec(13))
    with pytest.raises(ValueError):
        solve_symmetric(GameSpec(4), model="bogus")
    with pytest.raises(ValueError):
        solve_symmetric(GameSpec(4), max_iterations=0)
    with pytest.raises(ValueError):
        solve_symmetric(GameSpec(4), tol=-1.0)
