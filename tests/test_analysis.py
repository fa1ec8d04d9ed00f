"""Best responses, equilibrium verification, and indifference spreads."""

import math
import random
import time

import pytest

from _oracle import brute_payoffs, random_profile, random_strategy
from lupi import (
    StrategyProfile,
    best_response,
    closed_form_gradient,
    closed_form_payoff,
    exact_profile_payoffs,
    indifference_spread,
    load_profile,
    pure_choice_values,
    save_profile,
    simulate,
    solve_symmetric,
    verify_profile,
)
from lupi.game import _profile_choice_values
from test_solve import EXACT_NS

SQRT3 = math.sqrt(3.0)
ROOT3 = (2 * SQRT3 - 3, 2 - SQRT3, 2 - SQRT3)
PAYOFF3 = 28 - 16 * SQRT3

HALF = (0.5, 0.5, 0.0)
HALF4 = (0.5, 0.5, 0.0, 0.0)

ASYM3 = StrategyProfile(((0, 0, 1), HALF, HALF))
ASYM4 = StrategyProfile(((0, 0, 1, 0), HALF4, HALF4, HALF4))

# os.fspath's refusal of a value that is not a path
NOT_A_PATH = "expected str, bytes or os.PathLike object, not"
# the sampler's refusal on ASYM3, 4 thresholds and 3 mask windows a round: 2e7 * 2**9 // (4 + 32 * 3) rounds
ROUNDS3 = ("rounds must be <= 102400000 for this profile, at 512 sampler comparisons to a multiply-add: the sampler "
           "needs about")


# ---------------------------------------------------------------------------
# best response


def test_best_response_against_two_half_half():
    values, picks = best_response([HALF, HALF])
    assert values == pytest.approx((0.25, 0.25, 0.5), abs=1e-15)
    assert picks == (3,)


def test_best_response_at_symmetric_root_is_indifferent():
    values, picks = best_response([ROOT3, ROOT3])
    assert values == pytest.approx((PAYOFF3,) * 3, abs=1e-12)
    assert picks == (1, 2, 3)


def test_best_response_n4_ties_are_a_set():
    values, picks = best_response([HALF4] * 3)
    assert values == pytest.approx((0.125, 0.125, 0.25, 0.25), abs=1e-15)
    assert picks == (3, 4)
    assert 3 in picks  # the named optimal choice is a member, '4' simply ties


def test_paper_and_exact_best_responses_agree_at_n3():
    rng = random.Random(501)
    for _ in range(40):
        common = random_strategy(rng, 3, zeros=True)
        exact_values, _ = best_response([common, common], model="exact")
        paper_values, _ = best_response([common, common], model="paper")
        assert paper_values == pytest.approx(exact_values, abs=1e-12)


@pytest.mark.parametrize("n", range(3, 11))
def test_best_response_agrees_with_verify_to_rounding(n):
    # best_response scores a player on the other rows alone, verify (through
    # _profile_choice_values) in the one pass over all the rows, so their sums run in
    # different orders and may differ in the last bits
    for zeros in (False, True):
        profile = random_profile(random.Random(520 + n), n, zeros=zeros)
        values_per_player = _profile_choice_values(profile)[0]
        for i in range(n):
            values, _ = best_response(profile.strategies[:i] + profile.strategies[i + 1:])
            assert max(abs(a - b) for a, b in zip(values, values_per_player[i])) <= 2e-15


def test_paper_model_requires_common_opponents():
    with pytest.raises(ValueError):
        best_response([(0, 0, 1), HALF], model="paper")
    with pytest.raises(ValueError, match=r"expected 2 opponent strategies for n=3, got 1"):
        pure_choice_values([HALF], model="paper")


def test_unknown_model_is_rejected():
    message = r"unknown model 'closed', expected one of \('paper', 'exact'\)"
    with pytest.raises(ValueError, match=message):
        pure_choice_values([HALF, HALF], model="closed")
    with pytest.raises(ValueError, match=message):
        verify_profile(StrategyProfile.symmetric(HALF), model="closed")


def test_pure_choice_values_checks_the_opponents_then_the_model():
    # the opponents' count and lengths come first whatever the model; then an unknown
    # model is named as such even against differing opponents, and only
    # then does the closed form ask for one common strategy
    for others, message in (([HALF], "expected 2 opponent strategies for n=3, got 1"),
                            ([HALF, (0.5, 0.5)], "opponent strategy 1 has 2 entries, expected 3"),
                            ([(0.5, 0.5), HALF], "expected 1 opponent strategies for n=2, got 2")):
        with pytest.raises(ValueError, match=message):
            pure_choice_values(others, model="closed")
    with pytest.raises(ValueError, match=r"unknown model 'closed'"):
        pure_choice_values([HALF, (0, 0, 1)], model="closed")
    with pytest.raises(ValueError, match="the closed-form model scores symmetric profiles only"):
        pure_choice_values([HALF, (0, 0, 1)], model="paper")
    # n is the first opponent's length: no opponent, or one choice, is no game
    for model in ("exact", "paper"):
        with pytest.raises(ValueError, match="expected at least one opponent strategy"):
            pure_choice_values([], model=model)
        with pytest.raises(ValueError, match="a strategy needs at least two choices"):
            pure_choice_values([(1.0,)], model=model)


# ---------------------------------------------------------------------------
# verification


def test_symmetric_root_profile_is_nash():
    report = verify_profile(StrategyProfile.symmetric(ROOT3))
    assert report.is_nash
    assert report.payoffs == pytest.approx((PAYOFF3,) * 3, abs=1e-12)
    assert report.payoff_sum == pytest.approx(3 * PAYOFF3, abs=1e-12)
    assert not report.is_payoff_sum_maximal
    assert report.indifferent_deviations == (False, False, False)


def test_asymmetric_n4_profile_is_weak_nash_and_sum_maximal():
    report = verify_profile(ASYM4)
    assert report.is_nash
    assert report.payoffs == pytest.approx((0.25,) * 4, abs=1e-12)
    assert report.payoff_sum == pytest.approx(1.0, abs=1e-12)
    assert report.is_payoff_sum_maximal
    # the pure-3 player could switch to '4' without losing anything
    assert report.indifferent_deviations[0]
    assert report.indifferent_deviations[1:] == (False, False, False)


def test_indifferent_deviations_need_an_unused_choice_at_any_epsilon():
    # epsilon bounds a gain, not a weight or the payoff sum: a loose epsilon
    # flags nobody in a dense profile, still flags every player with an
    # unused choice, and leaves a payoff sum of about 0.85 short of maximal
    rng = random.Random(508)
    for profile in (StrategyProfile.symmetric(ROOT3), random_profile(rng, 9)):
        assert verify_profile(profile, epsilon=1.0).indifferent_deviations == (False,) * profile.n
    assert verify_profile(ASYM4, epsilon=1.0).indifferent_deviations == (True,) * 4
    assert not verify_profile(StrategyProfile.symmetric(ROOT3), epsilon=1.0).is_payoff_sum_maximal


def test_asymmetric_n3_profile_report():
    # payoffs are (1/2, 1/4, 1/4) with maximal sum, but the oracle finds the
    # mixing players can deviate to pure '1' for 1/2, so this is not an
    # equilibrium; the report is the authority here
    report = verify_profile(ASYM3)
    assert report.payoffs == pytest.approx((0.5, 0.25, 0.25), abs=1e-12)
    assert report.payoff_sum == pytest.approx(1.0, abs=1e-12)
    assert report.is_payoff_sum_maximal
    assert report.best_response_values[1] == pytest.approx(0.5, abs=1e-12)
    assert report.best_response_values[2] == pytest.approx(0.5, abs=1e-12)
    assert report.deviation_gains[1] == pytest.approx(0.25, abs=1e-12)
    assert not report.is_nash


def test_report_internal_consistency():
    for profile in (ASYM3, ASYM4, StrategyProfile.symmetric(ROOT3)):
        report = verify_profile(profile)
        for i in range(profile.n):
            assert report.deviation_gains[i] == pytest.approx(
                report.best_response_values[i] - report.payoffs[i], abs=1e-15
            )
            assert report.deviation_gains[i] >= -report.epsilon


def test_solver_outputs_verify_under_their_models():
    for n in (3, 4):
        exact = solve_symmetric(n, model="exact")
        report = verify_profile(StrategyProfile.symmetric(exact.strategy), model="exact")
        assert report.is_nash
        paper = solve_symmetric(n, model="paper")
        report = verify_profile(StrategyProfile.symmetric(paper.strategy), model="paper")
        assert report.is_nash


def test_paper_model_verification_rejects_asymmetric_profiles():
    with pytest.raises(ValueError):
        verify_profile(ASYM3, model="paper")


def test_payoff_never_beats_best_response():
    rng = random.Random(502)
    for _ in range(20):
        n = rng.randint(2, 5)
        report = verify_profile(random_profile(rng, n, zeros=True))
        for payoff, value in zip(report.payoffs, report.best_response_values):
            assert payoff <= value + 1e-12


def test_is_nash_monotone_in_epsilon():
    rng = random.Random(503)
    profiles = [StrategyProfile.symmetric(ROOT3), ASYM4, ASYM3]
    profiles += [random_profile(rng, 3) for _ in range(10)]
    for profile in profiles:
        tight = verify_profile(profile, epsilon=1e-12)
        loose = verify_profile(profile, epsilon=1e-6)
        if tight.is_nash:
            assert loose.is_nash


def test_symmetric_profiles_report_identical_rows():
    rng = random.Random(504)
    for _ in range(10):
        n = rng.randint(3, 5)
        profile = StrategyProfile.symmetric(random_strategy(rng, n))
        report = verify_profile(profile)
        # every player faces the same opponents, evaluated once
        for i in range(1, n):
            assert report.payoffs[i] == report.payoffs[0]
            assert report.deviation_gains[i] == report.deviation_gains[0]


def test_nash_verdicts_survive_enumeration_recheck():
    candidates = [
        StrategyProfile.symmetric(ROOT3),
        ASYM4,
        StrategyProfile.symmetric(solve_symmetric(4, model="exact").strategy),
    ]
    for profile in candidates:
        report = verify_profile(profile)
        assert report.is_nash
        n = profile.n
        for i in range(n):
            base = brute_payoffs(profile.rows())[i]
            for pick in range(1, n + 1):
                unit = tuple(1.0 if k == pick - 1 else 0.0 for k in range(n))
                deviated = StrategyProfile(
                    profile.strategies[:i] + (unit,) + profile.strategies[i + 1 :]
                )
                gain = brute_payoffs(deviated.rows())[i] - base
                assert gain <= 1e-9


def _unit(n, pick):
    return [1.0 if k == pick else 0.0 for k in range(n)]


def test_payoff_and_verify_report_bit_equal_payoffs():
    rng = random.Random(506)
    symmetric = StrategyProfile.symmetric(solve_symmetric(6, model="exact").strategy)
    common = random_strategy(rng, 7)
    one_deviant = StrategyProfile((random_strategy(rng, 7),) + (common,) * 6)
    dense = random_profile(rng, 8)
    sparse = random_profile(rng, 9, zeros=True)
    for profile in (symmetric, one_deviant, dense, sparse):
        assert exact_profile_payoffs(profile) == verify_profile(profile).payoffs


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_verdicts_match_brute_force_deviations(n):
    rng = random.Random(507 + n)
    common = random_strategy(rng, n)
    profiles = [
        random_profile(rng, n, zeros=True),
        random_profile(rng, n),
        StrategyProfile((random_strategy(rng, n, zeros=True),) + (common,) * (n - 1)),
    ]
    if n >= 3:
        profiles.append(StrategyProfile.symmetric(solve_symmetric(n, model="exact").strategy))
    for profile in profiles:
        rows = profile.rows()
        base = brute_payoffs(rows)
        gains = []
        for i in range(n):
            best = max(
                brute_payoffs(rows[:i] + [_unit(n, pick)] + rows[i + 1 :])[i]
                for pick in range(n)
            )
            gains.append(best - base[i])
        report = verify_profile(profile)
        assert report.payoffs == pytest.approx(base, abs=1e-12)
        assert report.deviation_gains == pytest.approx(gains, abs=1e-12)
        assert report.is_nash == (max(gains) <= report.epsilon)


# every argument kind has one reader: StrategyProfile reads a profile, MixedStrategy a
# strategy, game._weights a weight entry and os.fspath a path, so each fault is a
# ValueError that names it, and none leaves a file behind
@pytest.mark.parametrize("call, message", [
    (lambda: exact_profile_payoffs(5), "strategies must be a sequence of strategy rows, got 5"),
    (lambda: verify_profile(5), "strategies must be a sequence of strategy rows, got 5"),
    (lambda: simulate(5, 10), "strategies must be a sequence of strategy rows, got 5"),
    (lambda: save_profile("p.json", 5), "strategies must be a sequence of strategy rows, got 5"),
    (lambda: StrategyProfile(5), "strategies must be a sequence of strategy rows, got 5"),
    (lambda: StrategyProfile(None), "strategies must be a sequence of strategy rows, got None"),
    (lambda: closed_form_gradient(5), "strategy entries must be numbers, got 5"),
    (lambda: closed_form_gradient((0.7, 0.7)), "probabilities sum to 1.4, not 1 within 1e-09"),
    (lambda: closed_form_gradient([1.0]), "a strategy needs at least two choices"),
    (lambda: closed_form_gradient([]), "a strategy needs at least two choices"),
    (lambda: closed_form_payoff((0.5, 0.5), None), "strategy entries must be numbers, got None"),
    (lambda: closed_form_payoff((0.5, 0.5), (2.0, -1.0)), "probability 2.0 at index 0 is outside [0, 1]"),
    (lambda: closed_form_payoff([1.0], [1.0]), "a strategy needs at least two choices"),
    (lambda: closed_form_payoff([], []), "a strategy needs at least two choices"),
    (lambda: closed_form_payoff(5, (0.5, 0.5)), "mine must be a sequence of weights, got 5"),
    (lambda: closed_form_payoff(("a", "b"), (0.5, 0.5)), "entry 'a' at index 0 is not a number"),
    (lambda: closed_form_payoff(("0.5", "0.5"), (0.5, 0.5)), "entry '0.5' at index 0 is not a number"),
    (lambda: closed_form_payoff((True, False), (0.5, 0.5)), "entry True at index 0 is not a number"),
    (lambda: closed_form_payoff((0.5, None), (0.5, 0.5)), "entry None at index 1 is not a number"),
    (lambda: closed_form_payoff((0.5, 0.5), ROOT3), "mine has 2 entries, expected 3"),
    (lambda: pure_choice_values(5), "others must be a sequence of opponent strategies, got 5"),
    (lambda: best_response(5), "others must be a sequence of opponent strategies, got 5"),
    (lambda: pure_choice_values([5, 5]), "strategy entries must be numbers, got 5"),
    (lambda: indifference_spread(5), "strategy entries must be numbers, got 5"),
    (lambda: verify_profile(ASYM3, epsilon=0.0), "epsilon must be positive and finite"),
    (lambda: verify_profile(ASYM3, epsilon=float("inf")), "epsilon must be positive and finite"),
    (lambda: verify_profile(ASYM3, epsilon="x"), "epsilon must be positive and finite"),
    (lambda: verify_profile(ASYM3, epsilon=True), "epsilon must be positive and finite"),
    (lambda: simulate(ASYM3, 0), "rounds must be a positive integer, got 0"),
    (lambda: simulate(ASYM3, -5), "rounds must be a positive integer, got -5"),
    (lambda: simulate(ASYM3, 10.5), "rounds must be a positive integer, got 10.5"),
    (lambda: simulate(ASYM3, 10, seed=1.5), "seed must be an integer, got 1.5"),
    # past the work budget, refused before a draw (played, it would run for centuries), also past a float's range
    (lambda: simulate(ASYM3, 2**63), f"{ROUNDS3} 1.8e+18 multiply-adds, over the budget of 2e+07"),
    (lambda: simulate(ASYM3, 10**400), f"{ROUNDS3} inf multiply-adds, over the budget of 2e+07"),
    (lambda: load_profile(None), f"cannot read profile file None: {NOT_A_PATH} NoneType"),
    (lambda: load_profile("a\0b"), "cannot read profile file 'a\\x00b': embedded null byte"),
    (lambda: save_profile(None, ASYM3), f"cannot write profile file None: {NOT_A_PATH} NoneType"),
    (lambda: save_profile(1.5, ASYM3), f"cannot write profile file 1.5: {NOT_A_PATH} float"),
])
def test_argument_faults_are_value_errors_that_name_the_fault(call, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
    assert not any(tmp_path.iterdir())


def test_profile_entries_read_rows_as_strategy_profile_does(tmp_path):
    rows = ((0, 0, 1), HALF, HALF)
    for entry in (exact_profile_payoffs, verify_profile, lambda profile: simulate(profile, 1_000, seed=5)):
        assert entry(rows) == entry(StrategyProfile(rows))
    save_profile(tmp_path / "rows.json", rows)
    save_profile(tmp_path / "profile.json", StrategyProfile(rows))
    assert (tmp_path / "rows.json").read_bytes() == (tmp_path / "profile.json").read_bytes()


# ---------------------------------------------------------------------------
# indifference spread


def test_spread_examples():
    assert indifference_spread(ROOT3) <= 1e-12
    assert indifference_spread(HALF) == pytest.approx(0.25, abs=1e-15)


def test_models_coincide_at_n3():
    rng = random.Random(505)
    for _ in range(25):
        common = random_strategy(rng, 3, zeros=True)
        gap = abs(
            indifference_spread(common, model="paper")
            - indifference_spread(common, model="exact")
        )
        assert gap <= 1e-12


def test_spread_separates_models_at_n4():
    paper_root = solve_symmetric(4, model="paper").strategy
    assert indifference_spread(paper_root, model="paper") <= 1e-12
    assert indifference_spread(paper_root, model="exact") > 0.1


@pytest.mark.parametrize("n", EXACT_NS)
def test_paper_root_is_an_exact_equilibrium_only_at_n3(n):
    # the paper's claim at every n, both ways: the closed-form root is an
    # equilibrium of the closed-form model, and of the exact game only at
    # n = 3; from n = 4 on it leaves a best exact deviation gain above 0.1
    # (the gain is not monotone in n)
    profile = StrategyProfile.symmetric(solve_symmetric(n, model="paper").strategy)
    assert max(verify_profile(profile, model="paper").deviation_gains) <= 1e-12
    gain = max(verify_profile(profile).deviation_gains)
    if n == 3:
        assert gain <= 1e-12
    else:
        assert gain > 0.1


# ---------------------------------------------------------------------------
# the work budget


EXACT_ENTRY_POINTS = {
    "pure_choice_values": lambda n, s: pure_choice_values([s] * (n - 1)),
    "exact_profile_payoffs": lambda n, s: exact_profile_payoffs(StrategyProfile.symmetric(s)),
    "verify_profile": lambda n, s: verify_profile(StrategyProfile.symmetric(s)),
    "best_response": lambda n, s: best_response([s] * (n - 1)),
    "indifference_spread": lambda n, s: indifference_spread(s),
}


@pytest.mark.parametrize("name", EXACT_ENTRY_POINTS)
def test_exact_entry_points_reject_work_above_the_budget(name):
    # n = 343 is the smallest n whose identical-opponent pass, about
    # n * (n - 1)**2 / 2 multiply-adds, is above the budget; it would run for
    # seconds, so it must be refused before it starts
    call = EXACT_ENTRY_POINTS[name]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="the identical-opponent program needs about .* over the budget"):
        call(343, (1.0 / 343,) * 343)
    assert time.perf_counter() - start < 0.1
    assert call(4, (0.25,) * 4) is not None
