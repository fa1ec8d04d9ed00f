"""Symmetric equilibrium solver: both models, determinism, uniqueness of the root."""

import itertools
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import lupi.model
from _oracle import (
    EXACT4_P1_POLY, EXACT4_POINT, EXACT4_VALUE, brute_winner, egf_gain, egf_win_probs, poisson_equilibrium,
    poisson_win_probs,
)
from lupi import (
    MAX_SOLVER_N,
    MIN_SOLVER_N,
    MODELS,
    StrategyProfile,
    closed_form_gradient,
    closed_form_payoff,
    exact_profile_payoffs,
    geometric_payoff,
    pure_choice_values,
    solve_symmetric,
    two_choice_baseline,
    verify_profile,
)
import lupi.solve
from lupi.solve import _EPS, _TOLERANCES, _exact_shot, _find_root, _paper_shot

SQRT3 = math.sqrt(3.0)
ROOT3 = (2 * SQRT3 - 3, 2 - SQRT3, 2 - SQRT3)
PAYOFF3 = 28 - 16 * SQRT3

# points on [0, 1/n] at which the exact map's sign changes are counted; the
# README states this number (tests/test_docs.py)
SIGN_POINTS = 65

# a sample of each solver's range: every n up to 40, then for exact the n
# with the most search steps (58), the largest residual and gain (70) and its
# limit, and for paper every 50th n above 40 and the last four up to its limit.
# The exact maxima were measured over every n up to 100
EXACT_NS = [*range(MIN_SOLVER_N, 41), 58, 70, 100]
PAPER_NS = [*range(MIN_SOLVER_N, 41), *range(41, MAX_SOLVER_N["paper"] - 3, 50),
            *range(MAX_SOLVER_N["paper"] - 3, MAX_SOLVER_N["paper"] + 1)]
# the exact map's checks run at n = 4, 12 and 40 and at one n above 40; the
# sign count also at every n up to 40. The README names these n (tests/test_docs.py)
MAP_NS = [4, 12, 40, 50]
SIGN_NS = [*range(MIN_SOLVER_N, 41), 50]


def _spread(strategy):
    """Largest win probability minus the smallest one on the support."""
    wins = pure_choice_values([strategy] * (strategy.n - 1))
    return max(wins) - min(w for p, w in zip(strategy.probs, wins) if p > 0.0)


def test_paper_n3_matches_radical_solution():
    result = solve_symmetric(3, model="paper")
    assert result.converged
    assert result.model == "paper"
    for got, want in zip(result.strategy.probs, ROOT3):
        assert abs(got - want) <= 1e-9
    assert abs(result.payoff - PAYOFF3) <= 1e-9
    assert result.residual_norm <= 1e-12


def test_paper_n4_matches_reported_solution():
    result = solve_symmetric(4, model="paper")
    assert result.converged
    rounded = tuple(round(p, 3) for p in result.strategy.probs)
    assert rounded == (0.488, 0.250, 0.131, 0.131)
    assert abs(result.payoff - 0.134) <= 0.0005


@pytest.mark.parametrize("n", PAPER_NS)
def test_paper_solution_has_equal_last_two_weights(n):
    # the map is linear (test_paper_map_is_linear_in_its_last_weight), so
    # one division gives its root and no search runs
    result = solve_symmetric(n, model="paper")
    probs = result.strategy.probs
    assert result.iterations == 0
    assert result.converged and result.full_support
    assert result.residual_norm < 1e-4 * _TOLERANCES["paper"]
    assert probs[n - 2] == probs[n - 1]
    assert abs(_paper_shot(n, probs[n - 1])[1]) <= 1e-14


def test_exact_support_follows_the_poisson_step_count(exact_root):
    # the Poisson game's equilibrium (Myerson 1998) puts weight ln(x)/n on one
    # integer per step of x = n + 1, x <- x - ln x, until x <= 1.0, which floats
    # reach exactly; from n = 9 on, the exact root's support has that many
    # integers or one fewer
    for n in (n for n in EXACT_NS if n >= 9):
        x, steps = n + 1.0, 0
        while x > 1.0:
            x, steps = x - math.log(x), steps + 1
        assert steps - sum(p > 0.0 for p in exact_root(n).strategy.probs) in (0, 1), n


def test_paper_limit_is_the_last_n_whose_root_is_a_normal_double():
    # test_paper_solution_has_equal_last_two_weights checks the roots up to
    # the limit; each model refuses the n above its own limit, and names it
    top = MAX_SOLVER_N["paper"]
    assert solve_symmetric(top).strategy.probs[-1] >= sys.float_info.min > 1.0 / (_paper_shot(top + 1, 1.0)[1] + 1.0)
    for model, n in (("paper", top + 1), ("exact", MAX_SOLVER_N["exact"] + 1)):
        with pytest.raises(ValueError, match=rf"^the {model} solver supports 3 <= n <= {n - 1}, got {n}$"):
            solve_symmetric(n, model)


@pytest.mark.parametrize("n", range(5, 9))
def test_paper_solutions_track_geometric_payoff(n):
    result = solve_symmetric(n, model="paper")
    assert result.converged
    assert result.payoff > two_choice_baseline(n)
    assert abs(result.payoff - geometric_payoff(n)) / geometric_payoff(n) < 0.05
    recomputed = max(abs(g) for g in closed_form_gradient(result.strategy))
    assert recomputed <= 1e-12


def test_exact_n3_agrees_with_paper_root():
    result = solve_symmetric(3, model="exact")
    assert result.converged
    for got, want in zip(result.strategy.probs, ROOT3):
        assert abs(got - want) <= 1e-9
    assert abs(result.strategy.probs[-1] - result.strategy.probs[-2]) <= 1e-9


def test_exact_n4_root_and_indifference():
    # the float root lies within 1e-15 of the 40-digit algebraic point
    # (measured 1.3e-16 in the weights and 7.8e-17 in payoff)
    result = solve_symmetric(4, model="exact")
    assert result.converged
    assert result.full_support
    for got, want in zip(result.strategy.probs, EXACT4_POINT):
        assert abs(Decimal(got) - Decimal(want)) <= Decimal("1e-15")
    assert abs(Decimal(result.payoff) - Decimal(EXACT4_VALUE)) <= Decimal("1e-15")
    assert _spread(result.strategy) <= 1e-10


def test_exact_n4_point_equalises_the_brute_force_win_probabilities():
    # every pure choice wins with probability v against three opponents on the
    # point, summed over the 4**3 opponent picks in 50-digit decimal with the
    # oracle's winner rule and no float (measured within 7.3e-41 of v, and the
    # weights sum to 1 within 3.7e-41)
    with localcontext() as ctx:
        ctx.prec = 50
        point = [Decimal(p) for p in EXACT4_POINT]
        assert abs(sum(point) - 1) <= Decimal("1e-39")
        for mine in range(1, 5):
            win = Decimal(0)
            for picks in itertools.product(range(1, 5), repeat=3):
                if brute_winner((mine, *picks)) == 0:
                    win += point[picks[0] - 1] * point[picks[1] - 1] * point[picks[2] - 1]
            assert abs(win - Decimal(EXACT4_VALUE)) <= Decimal("1e-39"), mine


def _taylor_shift(coeffs):
    """Coefficients of P(x + 1), lowest power first, from those of P."""
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1):
        for k in range(len(coeffs) - 2, i - 1, -1):
            coeffs[k] += coeffs[k + 1]
    return coeffs


def _roots_in_unit_interval(coeffs):
    """Real roots in (0, 1) of a square-free integer polynomial, lowest power first.

    Descartes' rule of signs on (1 + t)**d P(1 / (1 + t)) bounds the count, and is
    exact when it reads 0 or 1; otherwise the interval is halved, as in Collins and
    Akritas (1976), with the midpoint itself counted when it is a root.
    """
    signs = [c > 0 for c in _taylor_shift(coeffs[::-1]) if c]
    bound = sum(s != t for s, t in zip(signs, signs[1:]))
    if bound <= 1:
        return bound
    degree = len(coeffs) - 1
    left = [c << (degree - k) for k, c in enumerate(coeffs)]  # 2**d P(x / 2)
    right = _taylor_shift(left)  # 2**d P((x + 1) / 2)
    return _roots_in_unit_interval(left) + _roots_in_unit_interval(right) + (right[0] == 0)


def _value(coeffs, x):
    """P(x) by Horner's rule, highest power first."""
    total = 0
    for c in coeffs:
        total = total * x + c
    return total


def test_exact_n4_first_weight_is_the_one_root_of_its_polynomial(exact_root):
    # in integers and Fraction only: the committed polynomial has one root in
    # [0, 1], and it lies within 4 ulp of the float root's p1 and within 1e-40
    # of the committed 40-digit p1
    assert (len(EXACT4_P1_POLY), EXACT4_P1_POLY[0], EXACT4_P1_POLY[-1]) == (28, 2977189198336, -1792430668)
    lowest_first = EXACT4_P1_POLY[::-1]
    assert _value(EXACT4_P1_POLY, 0) != 0 and _value(EXACT4_P1_POLY, 1) != 0
    assert _roots_in_unit_interval(lowest_first) == 1
    p1 = exact_root(4).strategy.probs[0]
    for centre, step in ((Fraction(p1), Fraction(4 * math.ulp(p1))),
                         (Fraction(EXACT4_POINT[0]), Fraction(1, 10**40))):
        assert _value(EXACT4_P1_POLY, centre - step) * _value(EXACT4_P1_POLY, centre + step) < 0


def _mulmod(u, v, monic, p):
    """u * v modulo the monic ``monic`` over GF(p), all lowest power first."""
    d = len(monic) - 1
    product = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            product[i + j] += x * y
    for k in range(len(product) - 1, d - 1, -1):
        top = product[k] % p
        for j in range(d):
            product[k - d + j] -= top * monic[j]
    return [c % p for c in product[:d]]


def _gcd_degree(u, v, p):
    """Degree of gcd(u, v) over GF(p), lowest power first."""
    def trim(w):
        w = [c % p for c in w]
        while w and not w[-1]:
            w.pop()
        return w

    u, v = trim(u), trim(v)
    while v:
        inverse = pow(v[-1], -1, p)
        while len(u) >= len(v):
            top, shift = u[-1] * inverse, len(u) - len(v)
            u = trim([c - top * v[j - shift] if j >= shift else c for j, c in enumerate(u)])
        u, v = v, u
    return len(u) - 1


def test_exact_n4_polynomial_is_irreducible_so_p1_has_degree_27():
    # Rabin's test over GF(17), where the leading coefficient does not vanish:
    # f of degree 27 is irreducible iff x**(17**27) = x mod f and
    # gcd(x**(17**9) - x, f) = 1 (3 is the one prime factor of 27). A factor
    # over the integers would survive mod 17, so f is irreducible over Q
    p, d = 17, len(EXACT4_P1_POLY) - 1
    assert EXACT4_P1_POLY[0] % p
    inverse = pow(EXACT4_P1_POLY[0], -1, p)
    monic = [c * inverse % p for c in EXACT4_P1_POLY[::-1]]
    x = [0, 1] + [0] * (d - 2)
    power = x
    for k in range(1, d + 1):
        frobenius = [1] + [0] * (d - 1)
        for bit in bin(p)[2:]:  # power**p by squaring
            frobenius = _mulmod(frobenius, frobenius, monic, p)
            if bit == "1":
                frobenius = _mulmod(frobenius, power, monic, p)
        power = frobenius  # x**(p**k) mod f
        if k == d // 3:
            assert _gcd_degree([a - b for a, b in zip(power, x)], monic, p) == 0
    assert power == x


def test_exact_n4_differs_from_closed_form_root():
    exact = solve_symmetric(4, model="exact").strategy.probs
    paper = solve_symmetric(4, model="paper").strategy.probs
    assert max(abs(a - b) for a, b in zip(exact, paper)) > 0.1
    # the equal-last-two-weights property is an artifact of the closed-form
    # expression; the exact oracle's root does not have it at n = 4
    assert abs(exact[-1] - exact[-2]) > 0.05


@pytest.mark.parametrize("n", EXACT_NS)
def test_exact_solver_larger_n(n, exact_root):
    result = exact_root(n)
    assert result.converged
    # the README's step bound is checked against the largest iterations over
    # these roots in tests/test_docs.py
    # every choice is used up to n = 10 (the last weight at n = 10 is about
    # 2.5e-12); from n = 11 on the root leaves the top choices unused
    assert result.full_support == (n <= 10)
    assert _spread(result.strategy) <= 1e-10
    assert sum(result.strategy.probs) == pytest.approx(1.0, abs=1e-12)
    assert verify_profile(StrategyProfile([result.strategy] * n), epsilon=1e-12).is_nash


@pytest.mark.parametrize("model", MODELS)
def test_solved_payoff_is_the_verifiers_bit_for_bit(model, exact_root):
    # the solver and the verifier score a symmetric strategy with one producer per model
    for n in EXACT_NS:
        result = exact_root(n) if model == "exact" else solve_symmetric(n, model=model)
        profile = StrategyProfile.symmetric(result.strategy)
        assert result.payoff == verify_profile(profile, model=model).payoffs[0]
        if model == "exact":
            assert result.payoff == exact_profile_payoffs(profile)[0]


def test_paper_routes_read_the_closed_form_once(monkeypatch):
    # the solver and the verifier take the gradient, the values and the payoff
    # from one read, with the floats of the public closed-form functions
    for n in EXACT_NS:
        result = solve_symmetric(n, model="paper")
        strategy = result.strategy
        assert result.payoff == closed_form_payoff(strategy, strategy)
        assert result.residual_norm == max(abs(g) for g in closed_form_gradient(strategy))
        report = verify_profile(StrategyProfile.symmetric(strategy), model="paper")
        assert report.payoffs == (result.payoff,) * n
        assert report.best_response_values == (max(lupi.model._closed_form_values(strategy)),) * n
    reads = []
    read = lupi.model._closed_form_values
    monkeypatch.setattr(lupi.model, "_closed_form_values", lambda *args: reads.append(1) or read(*args))
    result = solve_symmetric(12, model="paper")
    assert len(reads) == 1
    verify_profile(StrategyProfile.symmetric(result.strategy), model="paper")
    assert len(reads) == 2


@pytest.mark.parametrize("n", [20, 30, 40, 100])
def test_exact_root_is_an_equilibrium_of_the_generating_function_oracle(n, exact_root):
    # above n = 16 no other exact route runs: the oracle is an algorithm
    # apart from the kernel's, in 50-digit arithmetic (at n = 100 the
    # oracle's spread measured 5.6e-15, and the kernel matched it to 2.1e-16)
    probs = exact_root(n).strategy.probs
    oracle = egf_win_probs(probs)
    kernel = pure_choice_values([probs] * (n - 1))
    assert kernel == pytest.approx(oracle, rel=0.0, abs=1e-13)
    assert max(oracle) - min(w for p, w in zip(probs, oracle) if p > 0.0) <= 1e-13


@pytest.mark.parametrize("n", [4, 12, 20, 30])
def test_exact_root_gain_is_within_1e_14_in_50_digits(n, exact_root):
    # the printed weights, taken exactly, against the oracle: no pure choice
    # beats the root's payoff by more than 1e-14 (6.2e-16 at n = 12)
    assert egf_gain(exact_root(n).strategy.probs) <= Decimal("1e-14")


@pytest.mark.parametrize("n", [58, 70, 100])
def test_exact_root_gain_above_n40_is_within_1e_13_in_50_digits(n, exact_root):
    # the sampled n above 40: the largest gain of every root up to n = 100
    # measured 1.6e-14, at n = 70
    assert egf_gain(exact_root(n).strategy.probs) <= Decimal("1e-13")


def test_exact_root_shifted_by_1e_13_fails_the_gain_bound(exact_root):
    # moving 1e-13 of mass from the first choice to the second raises the
    # gain to about 1.1e-13, so the bound above tells such a root apart
    probs = list(exact_root(12).strategy.probs)
    probs[0] -= 1e-13
    probs[1] += 1e-13
    assert egf_gain(probs) > Decimal("1e-14")


@pytest.mark.parametrize("N", [2, 11, 39, 99, 1000])
def test_poisson_limit_pays_one_over_n_plus_one(N):
    # the closed-form Poisson equilibrium makes every choice on its support
    # win with probability v = 1/(N+1), with no root search
    wins = poisson_win_probs(poisson_equilibrium(N), N)
    assert max(abs(w * (N + 1) - 1.0) for w in wins) <= 1e-15


def test_exact_root_approaches_poisson_limit(exact_root):
    # the strategy closes in on the Poisson game's with N = n - 1, tail
    # included: L1 distance 0.056, 0.043, 0.029, 0.016. n * v, the chance that
    # a round has a winner, stays just below N/(N+1), but the gap is not
    # monotone at these n: 0.00419, 0.00428, 0.00233, 0.00070
    gaps, distances = [], []
    for n in (12, 20, 40, 100):
        result = exact_root(n)
        limit = poisson_equilibrium(n - 1)
        size = max(n, len(limit))
        probs = list(result.strategy.probs) + [0.0] * (size - n)
        limit += [0.0] * (size - len(limit))
        gaps.append((n - 1) / n - n * result.payoff)
        distances.append(sum(abs(p - q) for p, q in zip(probs, limit)))
    assert all(0.0 < gap < 0.005 for gap in gaps)
    assert gaps[3] < gaps[2] < min(gaps[:2])
    assert distances[3] < distances[2] < distances[1] < distances[0]


@pytest.mark.parametrize("model", ["paper", "exact"])
def test_residual_claim_is_recomputable(model):
    result = solve_symmetric(4, model=model)
    if model == "paper":
        recomputed = max(abs(g) for g in closed_form_gradient(result.strategy))
    else:
        recomputed = _spread(result.strategy)
    assert abs(recomputed - result.residual_norm) <= 1e-15
    assert result.converged == (result.residual_norm <= (1e-12 if model == "paper" else 1e-10))


@pytest.mark.parametrize("model", ["paper", "exact"])
def test_solver_is_deterministic(model):
    first = solve_symmetric(5, model=model)
    second = solve_symmetric(5, model=model)
    assert first == second


@pytest.mark.parametrize("n", SIGN_NS)
def test_exact_map_changes_sign_once(n):
    # no theorem makes the exact root unique: this is the evidence that the
    # one root the solver's bracket closes on is the only one in [0, 1/n]
    values = [_exact_shot(n, i / ((SIGN_POINTS - 1) * n))[1] for i in range(SIGN_POINTS)]
    assert sum((a > 0.0) != (b > 0.0) for a, b in zip(values, values[1:])) == 1


def _support_and_map(n, v):
    """(v, number of choices up to the last with mass, R(v)) of the exact shot at v."""
    probs, value = _exact_shot(n, v)
    return v, max(j for j, p in enumerate(probs) if p > 0.0) + 1, value


@pytest.mark.parametrize("n", MAP_NS)
def test_exact_map_stays_above_zero_at_every_support_jump_below_the_root(n):
    # where the last choice's full-mass win falls to v, that choice wins v
    # exactly and R would touch 0, though the next choice, unused, wins more;
    # scoring that choice keeps R clear of 0. Bisecting on the support count
    # finds each jump below the root, in a cell narrower than a thousandth of
    # its distance to the root; a cell whose ends differ by more than one
    # choice is split down to adjacent floats. One choice enters at each
    # jump, and R on either side is at least its distance to the root (2.7
    # times it or more at n = 4, 12, 40 and 50, measured). A check at sampled
    # n, not a proof
    top = 1.0 / n
    root, _ = _find_root(lambda v: _exact_shot(n, v)[1], 0.0, top, _exact_shot(n, 0.0)[1], _exact_shot(n, top)[1])
    cells, jumps = [(_support_and_map(n, 0.0), _support_and_map(n, root))], []
    size = cells[0][1][1]
    while cells:
        left, right = cells.pop()
        if left[1] != right[1]:
            middle = left[0] + 0.5 * (right[0] - left[0])
            narrow = right[1] - left[1] == 1 and right[0] - left[0] <= 1e-3 * (root - right[0])
            if narrow or middle in (left[0], right[0]):
                jumps.append((left, right))
            else:
                middle = _support_and_map(n, middle)
                cells += [(left, middle), (middle, right)]
    jumps.sort()
    assert [(left[1], right[1]) for left, right in jumps] == [(s, s + 1) for s in range(1, size)]
    for end in (point for jump in jumps for point in jump):
        assert end[2] >= root - end[0], end


@pytest.mark.parametrize("n", MAP_NS)
def test_exact_map_stays_below_zero_above_the_root(n):
    # points from 1/n halfway down towards the root, 48 times or until they
    # are as close to it as the search's final bracket is wide, inside which
    # R may still have the sign it has below the root: R at each is at most
    # minus its distance to the root (2.2, 7.0, 22.9 and 3.07 times it or more
    # at n = 4, 12, 40 and 50, measured, the smallest at 1/n for the first
    # three). A check at sampled n, not a proof
    top = 1.0 / n
    root, _ = _find_root(lambda v: _exact_shot(n, v)[1], 0.0, top, _exact_shot(n, 0.0)[1], _exact_shot(n, top)[1])
    for k in range(48):
        v = root + (top - root) * 2.0**-k
        if v - root <= 4.0 * _EPS * v:
            break
        assert _exact_shot(n, v)[1] <= -(v - root), (k, v)


@pytest.mark.parametrize("n", PAPER_NS)
def test_paper_map_is_linear_in_its_last_weight(n):
    # the backward recurrence is homogeneous of degree 1 in s, so
    # H(s) = s * t_{-1}(1) - 1 is linear and has exactly one root
    slope = _paper_shot(n, 1.0)[1] + 1.0
    for k in range(1, 65):
        s = 2.0**-k
        assert _paper_shot(n, s)[1] == s * slope - 1.0, k


def test_failure_is_reported_not_fabricated(monkeypatch):
    # the search runs to full precision, so only a search cut at its step
    # cap leaves the root unconverged; the point reached is still reported
    monkeypatch.setattr(lupi.solve, "_MAX_STEPS", 1)
    result = solve_symmetric(6, model="exact")
    assert (result.converged, result.iterations) == (False, 1)
    assert result.residual_norm > 1e-10
    assert len(result.strategy.probs) == 6


def test_argument_validation():
    with pytest.raises(ValueError):
        solve_symmetric(2)
    with pytest.raises(ValueError):
        solve_symmetric(MAX_SOLVER_N["paper"] + 1)
    with pytest.raises(ValueError):
        solve_symmetric(4, model="bogus")
    with pytest.raises(TypeError):
        solve_symmetric(4, tol=1e-17)  # the tolerance is fixed per model
