"""Closed-form model: payoff expression, gradient, geometric strategy."""

import math
import random
import sys
import time

import pytest

from _oracle import random_interior, random_strategy, repeated_product_closed_form_values
from lupi import (
    MixedStrategy,
    as_strategy,
    closed_form_gradient,
    closed_form_payoff,
    geometric_payoff,
    geometric_strategy,
    pure_choice_values,
    solve_symmetric,
    two_choice_baseline,
)
from lupi.model import MAX_GEOMETRIC_N, _closed_form_values

SQRT3 = math.sqrt(3.0)
ROOT3 = (2 * SQRT3 - 3, 2 - SQRT3, 2 - SQRT3)
PAYOFF3 = 28 - 16 * SQRT3  # 4 * (7 - 4 * sqrt(3))


# ---------------------------------------------------------------------------
# payoff expression


def test_symmetric_root_payoff_n3():
    value = closed_form_payoff(ROOT3, ROOT3)
    assert value == pytest.approx(PAYOFF3, abs=1e-12)


def test_known_gap_against_exact_oracle_at_n4():
    # the expression only counts all-above and all-on-one-lower events, so a
    # deviator holding '2' against (2/3, 0, 1/3, 0) gets p1^3 + (1-p1-p2)^3
    value = closed_form_payoff((0, 1, 0, 0), (2 / 3, 0, 1 / 3, 0))
    assert value == pytest.approx(1 / 3, abs=1e-12)


def test_opponents_all_on_one():
    value = closed_form_payoff((1, 0, 0), (1, 0, 0))
    assert value == 0.0


def test_exact_at_n3_against_oracle():
    rng = random.Random(301)
    for _ in range(100):
        mine = random_strategy(rng, 3, zeros=True)
        common = random_strategy(rng, 3, zeros=True)
        wins = pure_choice_values([common, common])
        oracle = sum(m * w for m, w in zip(mine, wins))
        assert closed_form_payoff(mine, common) == pytest.approx(oracle, abs=1e-12)


def test_linear_in_deviator_weights():
    rng = random.Random(302)
    for n in (3, 4, 6):
        for _ in range(20):
            a = random_strategy(rng, n)
            b = random_strategy(rng, n)
            common = random_strategy(rng, n)
            lam = rng.random()
            mix = tuple(lam * x + (1 - lam) * y for x, y in zip(a, b))
            blended = lam * closed_form_payoff(a, common) + (1 - lam) * closed_form_payoff(b, common)
            assert closed_form_payoff(mix, common) == pytest.approx(blended, abs=1e-12)


# ---------------------------------------------------------------------------
# gradient


def test_gradient_matches_printed_forms_at_n3():
    rng = random.Random(303)
    for _ in range(100):
        p = random_strategy(rng, 3, zeros=True)
        p1, p2 = p[0], p[1]
        g = closed_form_gradient(p)
        assert g[0] == pytest.approx(1 - 2 * p1 - p2 **2, abs=1e-12)
        assert g[1] == pytest.approx(1 - 2 * p1 + p1 **2 - 2 * p2 + 2 * p1 * p2, abs=1e-12)


def test_gradient_point_values():
    assert closed_form_gradient(ROOT3) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert closed_form_gradient((1, 0, 0))[0] == pytest.approx(-1.0, abs=1e-15)
    assert closed_form_gradient((0.5, 0.5, 0)) == pytest.approx((-0.25, -0.25), abs=1e-15)


@pytest.mark.parametrize("n", range(3, 9))
def test_gradient_matches_centered_finite_differences(n):
    rng = random.Random(400 + n)
    step = 1e-6
    for _ in range(100):
        p = random_interior(rng, n)
        grad = closed_form_gradient(p)
        base = list(random_interior(rng, n))
        for i in range(n - 1):
            up = list(base)
            down = list(base)
            up[i] += step
            down[i] -= step
            fd = (closed_form_payoff(up, p) - closed_form_payoff(down, p)) / (2 * step)
            assert grad[i] == pytest.approx(fd, abs=1e-6)


def test_pure_choice_values_payoff_and_gradient_agree_bitwise():
    # all three read one per-choice value loop: a pure choice's value is the
    # payoff of that unit vector, and the gradient is each value minus the last
    # also on raw tuples whose float sum is not 1, which a strategy keeps as given
    rng = random.Random(304)
    raw = 0
    for n in range(3, 41):
        for draw in range(10):
            common = random_strategy(rng, n, zeros=True)
            if draw % 2 == 0:
                common = as_strategy(common)
            else:
                raw += sum(common) != 1.0
            values = pure_choice_values([common] * (n - 1), model="paper")
            units = [tuple(float(i == k) for i in range(n)) for k in range(n)]
            assert values == tuple(closed_form_payoff(u, common) for u in units)
            assert closed_form_gradient(common) == tuple(v - values[-1] for v in values[:-1])
    assert raw >= 50


@pytest.mark.parametrize("n", range(3, 41))
def test_closed_form_values_match_repeated_products(n):
    # one ``**`` per power against m repeated multiplications: the two round
    # differently in the last bits, never by more than 1e-15 relative
    for common in (geometric_strategy(n), solve_symmetric(n, model="paper").strategy):
        values = _closed_form_values(common)
        reference = repeated_product_closed_form_values(list(common.probs))
        assert len(values) == len(reference) == n
        for value, ref in zip(values, reference):
            assert abs(value - ref) <= 1e-15 * abs(ref)


def _halving(n):
    """The geometric strategy's weights, built without its range check."""
    return MixedStrategy([0.5**i for i in range(1, n)] + [0.5 ** (n - 1)])


def test_closed_form_routes_are_linear_in_n():
    # O(n): about 0.03 s at n = 10**5, where n - 1 multiplications per power
    # would take minutes. geometric_payoff runs this route, but refuses that
    # n, whose payoff underflows to 0
    geo = _halving(10**5)
    start = time.perf_counter()
    assert 0.0 <= closed_form_payoff(geo, geo) <= 1.0
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match=r", got 100000$"):
        geometric_payoff(10**5)


def test_geometric_limit_is_the_last_n_whose_payoff_is_a_normal_double():
    assert geometric_payoff(MAX_GEOMETRIC_N) >= sys.float_info.min
    geo = _halving(MAX_GEOMETRIC_N + 1)
    assert closed_form_payoff(geo, geo) < sys.float_info.min


# ---------------------------------------------------------------------------
# geometric strategy and baselines


def test_geometric_strategy_values():
    assert geometric_strategy(3).probs == (0.5, 0.25, 0.25)
    assert geometric_strategy(4).probs == (0.5, 0.25, 0.125, 0.125)
    assert geometric_strategy(2).probs == (0.5, 0.5)


@pytest.mark.parametrize("n", range(2, 13))
def test_geometric_strategy_sums_to_one_with_repeated_tail(n):
    probs = geometric_strategy(n).probs
    assert sum(probs) == 1.0
    assert probs[-1] == probs[-2]


def test_geometric_payoff_values():
    assert geometric_payoff(3) == pytest.approx(9 / 32, abs=1e-15)
    assert geometric_payoff(4) == pytest.approx(0.13330078125, abs=1e-15)
    assert geometric_payoff(8) == pytest.approx(0.00784313725490196, abs=1e-15)


def test_geometric_payoff_rejects_small_n():
    with pytest.raises(ValueError, match=r"^geometric payoff is defined for n >= 3, got 2$"):
        geometric_payoff(2)


@pytest.mark.parametrize(
    "function", [geometric_strategy, geometric_payoff, two_choice_baseline, solve_symmetric],
    ids=lambda function: function.__name__,
)
def test_player_count_must_be_an_int_in_range(function):
    # 3.0 and "3" are not ints, 1, 0 and True fall below the range, and the
    # geometric functions' range ends at MAX_GEOMETRIC_N; the message names the value
    above = (MAX_GEOMETRIC_N + 1,) if function in (geometric_strategy, geometric_payoff) else ()
    for bad in (1, 0, True, 3.0, "3", *above):
        with pytest.raises(ValueError) as info:
            function(bad)
        assert str(info.value).endswith(f", got {bad!r}")


@pytest.mark.parametrize("n", range(3, 41))
def test_geometric_payoff_equals_expression_at_geometric_point(n):
    # geometric_payoff is the closed-form payoff at the geometric point; the
    # published double sum sum_k 2^-k sum_{j<=k} 2^-j(n-1) + 2^-(n-1) sum_j
    # 2^-j(n-1), written out here, is the same number to the last bit
    m = n - 1
    total = 0.0
    for k in range(1, n):
        inner = 0.0
        for j in range(1, k + 1):
            inner += 2.0 ** -(j * m)
        total += 2.0**-k * inner
    tail = 0.0
    for j in range(1, n):
        tail += 2.0 ** -(j * m)
    total += 2.0**-m * tail
    assert geometric_payoff(n) == total


def test_two_choice_baseline_values():
    assert two_choice_baseline(2) == 0.5
    assert two_choice_baseline(3) == 0.25
    assert two_choice_baseline(6) == 0.03125


@pytest.mark.parametrize("n", range(3, 9))
def test_geometric_beats_two_choice_baseline(n):
    assert geometric_payoff(n) > two_choice_baseline(n)
