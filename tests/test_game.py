"""Game core: strategy validation and the exact payoff oracles."""

import math
import random
from functools import reduce
from operator import add, mul

import pytest

from _oracle import brute_payoffs, brute_win_prob, random_profile, random_strategy
from lupi import (
    MixedStrategy,
    StrategyProfile,
    exact_profile_payoffs,
    geometric_strategy,
    pure_choice_values,
)
from lupi import _kernels_py as kernels
from lupi.game import _total

HALF = (0.5, 0.5, 0.0)
HALF4 = (0.5, 0.5, 0.0, 0.0)


# ---------------------------------------------------------------------------
# strategy and profile validation


def test_strategy_renormalizes_within_tolerance():
    s = MixedStrategy((0.3, 0.3, 0.4 + 5e-10))
    assert abs(sum(s.probs) - 1.0) < 1e-15


def test_strategy_rejects_bad_entries():
    with pytest.raises(ValueError):
        MixedStrategy((0.5, 0.6))  # sum clearly off
    with pytest.raises(ValueError):
        MixedStrategy((-0.1, 1.1))
    with pytest.raises(ValueError):
        MixedStrategy((1.2, -0.2))
    with pytest.raises(ValueError):
        MixedStrategy((0.3, 0.3, 0.4 + 1e-8))
    with pytest.raises(ValueError):
        MixedStrategy((1.0,))
    with pytest.raises(ValueError):
        MixedStrategy((float("nan"), 1.0))


def test_profile_shape_validation():
    with pytest.raises(ValueError):
        StrategyProfile(((0.5, 0.5),))
    with pytest.raises(ValueError):
        StrategyProfile(((0.5, 0.5, 0.0), (0.5, 0.5), (0.5, 0.5)))
    profile = StrategyProfile.symmetric((0.5, 0.25, 0.25))
    assert profile.n == 3


# ---------------------------------------------------------------------------
# deviator win probabilities


def test_win_pick3_against_two_half_half():
    assert pure_choice_values([HALF, HALF])[3 - 1] == pytest.approx(0.5, abs=1e-15)


def test_win_pick3_n4():
    assert pure_choice_values([HALF4] * 3)[3 - 1] == pytest.approx(0.25, abs=1e-15)


def test_win_pick2_n4_mixed_opponent_configurations():
    # brute-force enumeration of all 4**3 opponent outcomes gives 7/9,
    # including wins through configurations like {1, 1, 3}
    others = [(2 / 3, 0.0, 1 / 3, 0.0)] * 3
    value = pure_choice_values(others)[2 - 1]
    assert value == pytest.approx(7 / 9, abs=1e-12)
    assert value == pytest.approx(brute_win_prob(4, 2, others), abs=1e-12)


def test_win_probabilities_at_geometric_n4():
    geo = (0.5, 0.25, 0.125, 0.125)
    wins = pure_choice_values([geo] * 3)
    assert wins == pytest.approx((0.125, 0.328125, 0.259765625, 0.142578125), abs=1e-15)


def test_rejects_wrong_opponent_count_and_length():
    with pytest.raises(ValueError):
        pure_choice_values([HALF])
    with pytest.raises(ValueError):
        pure_choice_values([HALF4, HALF4])


def test_identical_and_distinct_routes_agree_on_identical_opponents():
    # win_probs_distinct hands one group of rows to win_probs_common, so the
    # grouped program is called on that one group directly
    rng = random.Random(103)
    for _ in range(60):
        n = rng.randint(2, 6)
        m = n - 1
        p = list(random_strategy(rng, n, zeros=True))
        common = kernels.win_probs_common(p, m)
        groups = [(p, m)]
        steps = kernels._grouped_steps(groups, kernels._count_moves(groups, m + 1))
        dp = [sum(map(mul, dist, above)) for dist, above in steps]
        assert common == pytest.approx(dp, abs=1e-12)
    # the identical-opponent route against independent brute force, also
    # with fewer opponents than the integer range
    for n in range(2, 8):
        for m in sorted({1, n // 2, n - 1}):
            p = list(random_strategy(rng, n, zeros=True))
            common = kernels.win_probs_common(p, m)
            for pick in range(1, n + 1):
                assert common[pick - 1] == pytest.approx(
                    brute_win_prob(n, pick, [p] * m), abs=1e-12
                )


def test_identical_opponents_at_large_n():
    n = 30
    geo = geometric_strategy(n).probs
    wins = pure_choice_values([geo] * (n - 1))
    assert len(wins) == n
    assert all(math.isfinite(w) for w in wins)
    assert wins[0] == pytest.approx((1 - geo[0]) ** (n - 1), abs=1e-15)
    for w, p in zip(wins, geo):
        # choice j wins only if no opponent picks it
        assert 0.0 <= w <= (1 - p) ** (n - 1)


def test_heterogeneous_route_matches_independent_brute_force():
    rng = random.Random(104)
    for _ in range(50):
        n = rng.randint(2, 5)
        rows = [random_strategy(rng, n, zeros=True) for _ in range(n - 1)]
        wins = pure_choice_values(rows)
        for pick in range(1, n + 1):
            assert wins[pick - 1] == pytest.approx(
                brute_win_prob(n, pick, rows), abs=1e-12
            )


def test_opponent_reordering_invariance():
    rng = random.Random(105)
    for _ in range(30):
        n = rng.randint(3, 5)
        rows = [random_strategy(rng, n, zeros=True) for _ in range(n - 1)]
        base = pure_choice_values(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert pure_choice_values(shuffled) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# profile payoffs


def test_asymmetric_profile_payoffs_n3():
    profile = StrategyProfile(((0, 0, 1), HALF, HALF))
    payoffs = exact_profile_payoffs(profile)
    assert payoffs == pytest.approx((0.5, 0.25, 0.25), abs=1e-15)
    assert sum(payoffs) == pytest.approx(1.0, abs=1e-12)


def test_asymmetric_profile_payoffs_n4():
    profile = StrategyProfile(((0, 0, 1, 0), HALF4, HALF4, HALF4))
    payoffs = exact_profile_payoffs(profile)
    assert payoffs == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-15)
    assert sum(payoffs) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_everyone_on_one_scores_zero(n):
    pure_one = tuple([1.0] + [0.0] * (n - 1))
    payoffs = exact_profile_payoffs(StrategyProfile.symmetric(pure_one))
    assert payoffs == tuple([0.0] * n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_profile_payoffs_match_full_enumeration(n):
    rng = random.Random(200 + n)
    for _ in range(15):
        profile = random_profile(rng, n, zeros=True)
        fast = exact_profile_payoffs(profile)
        slow = brute_payoffs(profile.rows())
        assert fast == pytest.approx(slow, abs=1e-12)


def test_profile_payoffs_match_independent_brute_force():
    rng = random.Random(106)
    for n in (3, 4):
        for _ in range(10):
            profile = random_profile(rng, n, zeros=True)
            expected = brute_payoffs(profile.rows())
            assert exact_profile_payoffs(profile) == pytest.approx(expected, abs=1e-12)


def test_payoff_vector_bounds_and_winner_mass():
    rng = random.Random(107)
    for _ in range(25):
        n = rng.randint(2, 5)
        profile = random_profile(rng, n, zeros=True)
        payoffs = exact_profile_payoffs(profile)
        assert all(0.0 <= p <= 1.0 for p in payoffs)
        assert sum(payoffs) <= 1.0 + 1e-12
        # the payoff mass is exactly the probability that a round has a winner
        assert sum(payoffs) == pytest.approx(sum(brute_payoffs(profile.rows())), abs=1e-12)


def test_permutation_equity():
    rng = random.Random(108)
    for _ in range(20):
        n = rng.randint(2, 5)
        profile = random_profile(rng, n, zeros=True)
        payoffs = exact_profile_payoffs(profile)
        order = list(range(n))
        rng.shuffle(order)
        permuted = StrategyProfile(tuple(profile.strategies[i] for i in order))
        expected = tuple(payoffs[i] for i in order)
        assert exact_profile_payoffs(permuted) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# the summation rule


def _left_to_right(terms):
    return reduce(add, terms, 0.0)


def test_every_float_total_adds_left_to_right():
    # 1 + 2**-53 rounds to 1 (a tie, to even) and so does adding 2**-53 again, but
    # the correctly rounded sum is 1 + 2**-52: builtin sum returns that from CPython 3.12
    terms = [1.0, 2**-53, 2**-53]
    assert _left_to_right(terms) == 1.0 != math.fsum(terms)
    assert _total(terms) == _total(iter(terms)) == 1.0
    # the unit total leaves the weights as given
    assert MixedStrategy(tuple(terms)).probs == tuple(terms)
    low = (0.5 - 2**-40, 0.5, 2**-54, 2**-54)
    total = _left_to_right(low)
    assert total != math.fsum(low)
    assert MixedStrategy(low).probs == tuple(p / total for p in low)
    # an identical-opponent state row whose terms, with a mass of 1/2 above, are the same three
    assert kernels.common_win([1.0, 2**-52, 2**-51], 0.5) == 1.0
    # distinct rows: at the second integer, the products of the count states'
    # weights and masses above sum differently in the two orders
    rows = [[0.1, 0.9, 0.0], [0.1, 0.0, 0.9], [0.1, 0.45, 0.45]]
    groups, _, moves = kernels._plan(rows, len(rows))
    steps = kernels._grouped_steps(groups, moves)
    terms = [list(map(mul, dist, above)) for dist, above in steps]
    assert _left_to_right(terms[1]) != math.fsum(terms[1])
    assert kernels.win_probs_distinct(rows) == [_left_to_right(t) for t in terms]
