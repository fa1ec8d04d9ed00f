"""Game core: strategy validation and the exact payoff oracles."""

import math
import random
from functools import reduce
from operator import add, mul

import pytest

from _oracle import brute_payoffs, brute_win_prob, random_profile, random_strategy
from lupi import MixedStrategy, StrategyProfile, exact_profile_payoffs, pure_choice_values, solve_symmetric
from lupi import _kernels_py as kernels
from lupi.game import _total

HALF = (0.5, 0.5, 0.0)
HALF4 = (0.5, 0.5, 0.0, 0.0)


# ---------------------------------------------------------------------------
# strategy and profile validation


def test_strategy_keeps_its_entries_as_given(exact_root):
    # within the tolerance a sum off 1 is kept, not rescaled, so rebuilding a
    # strategy from its weights gives the same strategy: every root the solvers
    # return, and normalised random rows, many with a float sum other than 1
    probs = (0.3, 0.3, 0.4 + 5e-10)
    assert MixedStrategy(probs).probs == probs
    rng = random.Random(1)
    rows = [random_strategy(rng, 12, zeros=i % 2 == 1) for i in range(1000)]
    assert any(_total(row) != 1.0 for row in rows) and any(0.0 in row for row in rows)
    roots = [solve_symmetric(n, model="paper").strategy for n in range(3, 41)]
    roots += [exact_root(n).strategy for n in range(3, 41)]
    for s in [*map(MixedStrategy, rows), *roots]:
        assert MixedStrategy(s.probs) == s


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
    # a strategy's sum check reads the same total, which its message prints
    low = (0.5 - 2**-29, 0.5, 2**-54, 2**-54)
    total = _left_to_right(low)
    assert total != math.fsum(low)
    with pytest.raises(ValueError) as info:
        MixedStrategy(low)
    assert str(info.value) == f"probabilities sum to {total!r}, not 1 within 1e-09"
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
