"""Monte Carlo simulation: determinism, statistics, and the sampling rule."""

import math
import random

import pytest

from _oracle import random_strategy
from lupi import GameSpec, StrategyProfile, exact_profile_payoffs, geometric_strategy, simulate, solve_symmetric
from lupi._backend import kernels

HALF = (0.5, 0.5, 0.0)
ASYM3 = StrategyProfile(((0, 0, 1), HALF, HALF))


def test_identical_inputs_reproduce_identical_stats():
    first = simulate(ASYM3, 50_000, seed=42)
    second = simulate(ASYM3, 50_000, seed=42)
    assert first == second


def test_seeded_counts_are_pinned():
    # counts recorded from the scalar round-by-round sampler; a kernel change
    # must not move them
    stats = simulate(ASYM3, 50_000, seed=42)
    assert (stats.wins, stats.no_winner_rounds) == ((25066, 12613, 12321), 0)
    geometric = StrategyProfile.symmetric(geometric_strategy(GameSpec(12)))
    stats = simulate(geometric, 20_000, seed=2026)
    assert stats.wins == (1302, 1333, 1360, 1368, 1367, 1367, 1299, 1341, 1346, 1320, 1361, 1450)
    assert stats.no_winner_rounds == 3786


def test_different_seeds_differ():
    a = simulate(ASYM3, 50_000, seed=1)
    b = simulate(ASYM3, 50_000, seed=2)
    assert a.wins != b.wins


def test_everyone_on_one_never_wins():
    profile = StrategyProfile.symmetric((1.0, 0.0, 0.0))
    stats = simulate(profile, 2_000, seed=0)
    assert stats.wins == (0, 0, 0)
    assert stats.no_winner_rounds == 2_000


def test_counts_are_conserved():
    rng = random.Random(601)
    for _ in range(10):
        n = rng.randint(2, 5)
        profile = StrategyProfile(tuple(random_strategy(rng, n, zeros=True) for _ in range(n)))
        stats = simulate(profile, 5_000, seed=rng.randint(0, 2**63))
        assert sum(stats.wins) + stats.no_winner_rounds == stats.rounds


def test_standard_error_formula():
    stats = simulate(ASYM3, 10_000, seed=3)
    for f, se in zip(stats.payoffs, stats.standard_errors):
        assert se == pytest.approx(math.sqrt(f * (1 - f) / stats.rounds), abs=1e-15)


@pytest.mark.parametrize("seed", [0, 7, 123456789])
def test_empirical_payoffs_near_exact_values(seed):
    exact = exact_profile_payoffs(ASYM3)
    stats = simulate(ASYM3, 100_000, seed=seed)
    for emp, ref, se in zip(stats.payoffs, exact, stats.standard_errors):
        assert abs(emp - ref) <= 3 * se


def test_empirical_payoffs_at_symmetric_equilibrium():
    strategy = solve_symmetric(GameSpec(3), model="exact").strategy
    profile = StrategyProfile.symmetric(strategy)
    exact = exact_profile_payoffs(profile)
    stats = simulate(profile, 100_000, seed=11)
    for emp, ref, se in zip(stats.payoffs, exact, stats.standard_errors):
        assert abs(emp - ref) <= 3 * se


def test_empirical_payoffs_at_the_n40_exact_equilibrium():
    # the sampler shares no code with the dynamic program that both the
    # solver and verify_profile use, so this checks the n = 40 root
    # independently of them
    result = solve_symmetric(GameSpec(40), model="exact")
    stats = simulate(StrategyProfile.symmetric(result.strategy), 200_000, seed=2026)
    for emp, se in zip(stats.payoffs, stats.standard_errors):
        assert abs(emp - result.payoff) <= 4 * se


def test_empirical_payoffs_on_random_profiles():
    rng = random.Random(602)
    for trial in range(3):
        n = rng.randint(3, 5)
        profile = StrategyProfile(tuple(random_strategy(rng, n) for _ in range(n)))
        exact = exact_profile_payoffs(profile)
        stats = simulate(profile, 200_000, seed=603 + trial)
        for emp, ref, se in zip(stats.payoffs, exact, stats.standard_errors):
            assert abs(emp - ref) <= 3 * se


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        simulate(ASYM3, 0)
    with pytest.raises(ValueError):
        simulate(ASYM3, -5)
    with pytest.raises(ValueError):
        simulate(ASYM3, 10.5)
    with pytest.raises(ValueError):
        simulate(ASYM3, 10, seed=1.5)


def test_negative_seed_is_accepted():
    stats = simulate(ASYM3, 1_000, seed=-7)
    assert sum(stats.wins) + stats.no_winner_rounds == 1_000
    # seeds are taken mod 2**64
    same = simulate(ASYM3, 1_000, seed=2**64 - 7)
    assert (same.wins, same.no_winner_rounds) == (stats.wins, stats.no_winner_rounds)


# ---------------------------------------------------------------------------
# sampling convention


def test_boundary_draw_selects_higher_index():
    assert kernels.choose_index([0.5, 1.0], 0.5) == 1
    assert kernels.choose_index([0.25, 0.5, 1.0], 0.25) == 1
    assert kernels.choose_index([0.25, 0.5, 1.0], 0.0) == 0
    assert kernels.choose_index([0.25, 0.5, 1.0], 0.999999) == 2


def test_shortfall_draw_lands_on_top_support():
    # cumulative sum can fall a few ulp short of 1; the draw then goes to the
    # last index carrying probability, never to a zero-probability choice
    assert kernels.choose_index([0.4, 0.9999999999999999, 0.9999999999999999], 0.99999999999999995) == 1


def test_substreams_depend_on_player_index():
    assert kernels.stream_state(42, 0) != kernels.stream_state(42, 1)
    assert kernels.stream_state(42, 0) == kernels.stream_state(42, 0)
