"""Symmetric equilibrium solver: both models, determinism, uniqueness of the root."""

import math

import pytest

from _oracle import egf_win_probs, poisson_equilibrium, poisson_win_probs
from lupi import (
    MAX_SOLVER_N,
    MIN_SOLVER_N,
    MODELS,
    GameSpec,
    StrategyProfile,
    closed_form_gradient,
    exact_profile_payoffs,
    geometric_payoff,
    solve_symmetric,
    two_choice_baseline,
    verify_profile,
    win_probabilities,
)
from lupi.solve import _exact_shot, _paper_shot

SQRT3 = math.sqrt(3.0)
ROOT3 = (2 * SQRT3 - 3, 2 - SQRT3, 2 - SQRT3)
PAYOFF3 = 28 - 16 * SQRT3

# frozen from an independent brute-force Newton run (4**3 outcome enumeration
# per win probability); the exact-model root is nothing like the closed-form
# one, and its last two weights differ
EXACT4_ROOT = (0.44773657324723, 0.42487270494538, 0.12565488835007, 0.00173583345732)
EXACT4_PAYOFF = 0.16843752448986


def _spread(spec, strategy):
    """Largest win probability minus the smallest one on the support."""
    wins = win_probabilities(spec, [strategy] * (spec.n - 1))
    return max(wins) - min(w for p, w in zip(strategy.probs, wins) if p > 0.0)


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


@pytest.mark.parametrize("n", range(3, MAX_SOLVER_N + 1))
def test_paper_solution_has_equal_last_two_weights(n):
    # the map is linear (test_paper_map_is_linear_in_its_last_weight), so
    # one division gives its root and no search runs
    result = solve_symmetric(GameSpec(n), model="paper")
    probs = result.strategy.probs
    assert result.iterations == 0
    assert result.converged
    assert probs[n - 2] == probs[n - 1]
    assert abs(_paper_shot(n, probs[n - 1])[1]) <= 1e-14


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


@pytest.mark.parametrize("n", range(3, MAX_SOLVER_N + 1))
def test_exact_solver_larger_n(n):
    spec = GameSpec(n)
    result = solve_symmetric(spec, model="exact")
    assert result.converged
    # the README's claim: the bracket closes in at most 23 steps (23 at n = 28)
    assert result.iterations <= 23
    # every choice is used up to n = 10 (the last weight at n = 10 is about
    # 2.5e-12); from n = 11 on the root leaves the top choices unused
    assert result.full_support == (n <= 10)
    assert _spread(spec, result.strategy) <= 1e-10
    assert sum(result.strategy.probs) == pytest.approx(1.0, abs=1e-12)
    assert verify_profile(StrategyProfile([result.strategy] * n), epsilon=1e-12).is_nash


@pytest.mark.parametrize("model", MODELS)
def test_solved_payoff_is_the_verifiers_bit_for_bit(model):
    # the solver and the verifier score a symmetric strategy with one producer per model
    for n in range(MIN_SOLVER_N, MAX_SOLVER_N + 1):
        result = solve_symmetric(GameSpec(n), model=model)
        profile = StrategyProfile.symmetric(result.strategy)
        assert result.payoff == verify_profile(profile, model=model).payoffs[0]
        if model == "exact":
            assert result.payoff == exact_profile_payoffs(profile)[0]


@pytest.mark.parametrize("n", [20, 30, 40])
def test_exact_root_is_an_equilibrium_of_the_generating_function_oracle(n):
    # above n = 16 no other exact route runs: the oracle is an algorithm
    # apart from the kernel's, in 50-digit arithmetic
    probs = solve_symmetric(GameSpec(n), model="exact").strategy.probs
    oracle = egf_win_probs(probs)
    kernel = win_probabilities(GameSpec(n), [probs] * (n - 1))
    assert kernel == pytest.approx(oracle, rel=0.0, abs=1e-13)
    assert max(oracle) - min(w for p, w in zip(probs, oracle) if p > 0.0) <= 1e-13


@pytest.mark.parametrize("N", [2, 11, 39, 99, 1000])
def test_poisson_limit_pays_one_over_n_plus_one(N):
    # the closed-form Poisson equilibrium makes every choice on its support
    # win with probability v = 1/(N+1), with no root search
    wins = poisson_win_probs(poisson_equilibrium(N), N)
    assert max(abs(w * (N + 1) - 1.0) for w in wins) <= 1e-15


def test_exact_root_approaches_poisson_limit():
    # the strategy closes in on the Poisson game's with N = n - 1, tail
    # included: L1 distance 0.056, 0.043, 0.029. n * v, the chance that a
    # round has a winner, stays just below N/(N+1), but the gap is not
    # monotone at these n: 0.00419, 0.00428, 0.00233
    gaps, distances = [], []
    for n in (12, 20, 40):
        result = solve_symmetric(GameSpec(n), model="exact")
        limit = poisson_equilibrium(n - 1)
        size = max(n, len(limit))
        probs = list(result.strategy.probs) + [0.0] * (size - n)
        limit += [0.0] * (size - len(limit))
        gaps.append((n - 1) / n - n * result.payoff)
        distances.append(sum(abs(p - q) for p, q in zip(probs, limit)))
    assert all(0.0 < gap < 0.005 for gap in gaps)
    assert gaps[2] < min(gaps[:2])
    assert distances[2] < distances[1] < distances[0]


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


@pytest.mark.parametrize("n", range(3, MAX_SOLVER_N + 1))
def test_exact_map_changes_sign_once(n):
    # no theorem makes the exact root unique: this is the evidence that the
    # one root the solver's bracket closes on is the only one in [0, 1/n]
    values = [_exact_shot(n, i / (64 * n))[1] for i in range(65)]
    assert sum((a > 0.0) != (b > 0.0) for a, b in zip(values, values[1:])) == 1


@pytest.mark.parametrize("n", range(3, MAX_SOLVER_N + 1))
def test_paper_map_is_linear_in_its_last_weight(n):
    # the backward recurrence is homogeneous of degree 1 in s, so
    # H(s) = s * t_{-1}(1) - 1 is linear and has exactly one root
    slope = _paper_shot(n, 1.0)[1] + 1.0
    for k in range(1, 65):
        s = 2.0**-k
        assert _paper_shot(n, s)[1] == s * slope - 1.0, k


def test_failure_is_reported_not_fabricated():
    # the search runs to full precision, so only a tolerance below what
    # floating point reaches leaves the root unconverged
    result = solve_symmetric(GameSpec(4), model="exact", tol=1e-17)
    assert not result.converged
    assert result.residual_norm > 1e-17


def test_argument_validation():
    with pytest.raises(ValueError):
        solve_symmetric(GameSpec(2))
    with pytest.raises(ValueError):
        solve_symmetric(GameSpec(MAX_SOLVER_N + 1))
    with pytest.raises(ValueError):
        solve_symmetric(GameSpec(4), model="bogus")
    with pytest.raises(ValueError):
        solve_symmetric(GameSpec(4), tol=-1.0)


@pytest.mark.parametrize("tol", [0.0, -0.0, float("nan"), float("-inf"), float("inf")])
def test_tolerance_must_be_a_positive_number(tol):
    for model in ("paper", "exact"):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            solve_symmetric(GameSpec(5), model=model, tol=tol)
