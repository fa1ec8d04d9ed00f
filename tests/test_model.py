"""Closed-form model: payoff expression, gradient, geometric strategy."""

import math
import random

import pytest

from _oracle import random_interior, random_strategy
from lupi import (
    GameSpec,
    as_strategy,
    closed_form_gradient,
    closed_form_payoff,
    geometric_payoff,
    geometric_strategy,
    pure_choice_values,
    two_choice_baseline,
    win_probabilities,
)

SQRT3 = math.sqrt(3.0)
ROOT3 = (2 * SQRT3 - 3, 2 - SQRT3, 2 - SQRT3)
PAYOFF3 = 28 - 16 * SQRT3  # 4 * (7 - 4 * sqrt(3))


# ---------------------------------------------------------------------------
# payoff expression


def test_symmetric_root_payoff_n3():
    value = closed_form_payoff(GameSpec(3), ROOT3, ROOT3)
    assert value == pytest.approx(PAYOFF3, abs=1e-12)


def test_known_gap_against_exact_oracle_at_n4():
    # the expression only counts all-above and all-on-one-lower events, so a
    # deviator holding '2' against (2/3, 0, 1/3, 0) gets p1^3 + (1-p1-p2)^3
    value = closed_form_payoff(GameSpec(4), (0, 1, 0, 0), (2 / 3, 0, 1 / 3, 0))
    assert value == pytest.approx(1 / 3, abs=1e-12)


def test_opponents_all_on_one():
    value = closed_form_payoff(GameSpec(3), (1, 0, 0), (1, 0, 0))
    assert value == 0.0


def test_exact_at_n3_against_oracle():
    rng = random.Random(301)
    spec = GameSpec(3)
    for _ in range(100):
        mine = random_strategy(rng, 3, zeros=True)
        common = random_strategy(rng, 3, zeros=True)
        wins = win_probabilities(spec, [common, common])
        oracle = sum(m * w for m, w in zip(mine, wins))
        assert closed_form_payoff(spec, mine, common) == pytest.approx(oracle, abs=1e-12)


def test_linear_in_deviator_weights():
    rng = random.Random(302)
    for n in (3, 4, 6):
        spec = GameSpec(n)
        for _ in range(20):
            a = random_strategy(rng, n)
            b = random_strategy(rng, n)
            common = random_strategy(rng, n)
            lam = rng.random()
            mix = tuple(lam * x + (1 - lam) * y for x, y in zip(a, b))
            blended = lam * closed_form_payoff(spec, a, common) + (1 - lam) * closed_form_payoff(spec, b, common)
            assert closed_form_payoff(spec, mix, common) == pytest.approx(blended, abs=1e-12)


def test_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        closed_form_payoff(GameSpec(3), (0.5, 0.5), ROOT3)
    with pytest.raises(ValueError):
        closed_form_gradient(GameSpec(4), ROOT3)


# ---------------------------------------------------------------------------
# gradient


def test_gradient_matches_printed_forms_at_n3():
    rng = random.Random(303)
    spec = GameSpec(3)
    for _ in range(100):
        p = random_strategy(rng, 3, zeros=True)
        p1, p2 = p[0], p[1]
        g = closed_form_gradient(spec, p)
        assert g[0] == pytest.approx(1 - 2 * p1 - p2 **2, abs=1e-12)
        assert g[1] == pytest.approx(1 - 2 * p1 + p1 **2 - 2 * p2 + 2 * p1 * p2, abs=1e-12)


def test_gradient_point_values():
    spec = GameSpec(3)
    assert closed_form_gradient(spec, ROOT3) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert closed_form_gradient(spec, (1, 0, 0))[0] == pytest.approx(-1.0, abs=1e-15)
    assert closed_form_gradient(spec, (0.5, 0.5, 0)) == pytest.approx((-0.25, -0.25), abs=1e-15)


@pytest.mark.parametrize("n", range(3, 9))
def test_gradient_matches_centered_finite_differences(n):
    rng = random.Random(400 + n)
    spec = GameSpec(n)
    step = 1e-6
    for _ in range(100):
        p = random_interior(rng, n)
        grad = closed_form_gradient(spec, p)
        base = list(random_interior(rng, n))
        for i in range(n - 1):
            up = list(base)
            down = list(base)
            up[i] += step
            down[i] -= step
            fd = (closed_form_payoff(spec, up, p) - closed_form_payoff(spec, down, p)) / (2 * step)
            assert grad[i] == pytest.approx(fd, abs=1e-6)


def test_pure_choice_values_payoff_and_gradient_agree_bitwise():
    # all three read one per-choice value loop: a pure choice's value is the
    # payoff of that unit vector, and the gradient is each value minus the last
    rng = random.Random(304)
    for n in range(3, 41):
        spec = GameSpec(n)
        for _ in range(5):
            common = as_strategy(random_strategy(rng, n, zeros=True))
            values = pure_choice_values(spec, [common] * (n - 1), model="paper")
            units = [tuple(float(i == k) for i in range(n)) for k in range(n)]
            assert values == tuple(closed_form_payoff(spec, u, common) for u in units)
            assert closed_form_gradient(spec, common) == tuple(v - values[-1] for v in values[:-1])


# ---------------------------------------------------------------------------
# geometric strategy and baselines


def test_geometric_strategy_values():
    assert geometric_strategy(GameSpec(3)).probs == (0.5, 0.25, 0.25)
    assert geometric_strategy(GameSpec(4)).probs == (0.5, 0.25, 0.125, 0.125)
    assert geometric_strategy(GameSpec(2)).probs == (0.5, 0.5)


@pytest.mark.parametrize("n", range(2, 13))
def test_geometric_strategy_sums_to_one_with_repeated_tail(n):
    probs = geometric_strategy(GameSpec(n)).probs
    assert sum(probs) == 1.0
    assert probs[-1] == probs[-2]


def test_geometric_payoff_values():
    assert geometric_payoff(GameSpec(3)) == pytest.approx(9 / 32, abs=1e-15)
    assert geometric_payoff(GameSpec(4)) == pytest.approx(0.13330078125, abs=1e-15)
    assert geometric_payoff(GameSpec(8)) == pytest.approx(0.00784313725490196, abs=1e-15)


def test_geometric_payoff_rejects_small_n():
    with pytest.raises(ValueError):
        geometric_payoff(GameSpec(2))


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
    assert geometric_payoff(GameSpec(n)) == total


def test_two_choice_baseline_values():
    assert two_choice_baseline(GameSpec(2)) == 0.5
    assert two_choice_baseline(GameSpec(3)) == 0.25
    assert two_choice_baseline(GameSpec(6)) == 0.03125


@pytest.mark.parametrize("n", range(3, 9))
def test_geometric_beats_two_choice_baseline(n):
    spec = GameSpec(n)
    assert geometric_payoff(spec) > two_choice_baseline(spec)
