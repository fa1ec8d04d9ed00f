"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass line on success (visible with ``pytest -s``); a
failing criterion shows up as an ordinary pytest failure. Run with

    pytest tests/test_acceptance.py -v
"""

import csv
import io
import json
import math
import random

import pytest

from _oracle import brute_payoffs, random_interior, random_strategy
from lupi import (
    GameSpec,
    StrategyProfile,
    closed_form_gradient,
    closed_form_payoff,
    exact_profile_payoffs,
    indifference_spread,
    simulate,
    solve_symmetric,
    verify_profile,
    win_probabilities,
)
from lupi.cli import EXIT_OK, main

SQRT3 = math.sqrt(3.0)
ROOT3 = (2 * SQRT3 - 3, 2 - SQRT3, 2 - SQRT3)
PAYOFF3 = 28 - 16 * SQRT3

HALF = (0.5, 0.5, 0.0)
HALF4 = (0.5, 0.5, 0.0, 0.0)
ASYM3 = StrategyProfile(((0, 0, 1), HALF, HALF))
ASYM4 = StrategyProfile(((0, 0, 1, 0), HALF4, HALF4, HALF4))

MC_ROUNDS = 1_000_000
MC_SEED = 1


def _report(cid, text):
    print(f"criterion {cid:>2}: PASS - {text}")


def _run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_01_closed_form_n3_equilibrium(capsys):
    code, data = _run_json(capsys, "solve", "--n", "3", "--model", "paper", "--format", "json")
    assert code == EXIT_OK
    for got, want in zip(data["strategy"], ROOT3):
        assert abs(got - want) <= 1e-9
    assert abs(data["payoff"] - PAYOFF3) <= 1e-9
    _report(1, "solve --n 3 --model paper returns (2sqrt3-3, 2-sqrt3, 2-sqrt3)")


def test_criterion_02_n4_equilibrium(capsys):
    code, data = _run_json(capsys, "solve", "--n", "4", "--model", "paper", "--format", "json")
    assert code == EXIT_OK
    assert [round(p, 3) for p in data["strategy"]] == [0.488, 0.250, 0.131, 0.131]
    assert abs(data["payoff"] - 0.134) <= 0.0005
    _report(2, "solve --n 4 --model paper returns (0.488, 0.250, 0.131, 0.131)")


def test_criterion_03_table_reproduction(capsys):
    code = main(["table", "--max-n", "8", "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[1] == ["approx", "0.281", "0.133", "0.0645", "0.0317", "0.0157", "0.00784"]
    assert rows[2] == ["reference", "0.25", "0.125", "0.0625", "0.0313", "0.0156", "0.00781"]
    _report(3, "table --max-n 8 matches both reported rows at 3 significant figures")


def test_criterion_04_models_agree_at_n3():
    rng = random.Random(1234)
    spec = GameSpec(3)
    for _ in range(100):
        mine = random_strategy(rng, 3, zeros=True)
        common = random_strategy(rng, 3, zeros=True)
        wins = win_probabilities(spec, [common, common])
        oracle = sum(m * w for m, w in zip(mine, wins))
        assert abs(closed_form_payoff(spec, mine, common) - oracle) <= 1e-12
    assert indifference_spread(spec, ROOT3, model="paper") <= 1e-12
    assert indifference_spread(spec, ROOT3, model="exact") <= 1e-12
    _report(4, "closed form equals the oracle at n=3; root spread <= 1e-12 in both models")


def test_criterion_05_model_gap_at_n4():
    spec = GameSpec(4)
    others = [(2 / 3, 0.0, 1 / 3, 0.0)] * 3
    model_value = closed_form_payoff(spec, (0, 1, 0, 0), others[0])
    oracle_value = win_probabilities(spec, others)[2 - 1]
    assert abs(model_value - 1 / 3) <= 1e-12
    assert abs(oracle_value - 7 / 9) <= 1e-12
    _report(5, "deviator on '2' vs (2/3, 0, 1/3, 0): model 1/3, oracle 7/9")


def test_criterion_06_asymmetric_profile_payoffs():
    pay3 = exact_profile_payoffs(ASYM3)
    pay4 = exact_profile_payoffs(ASYM4)
    assert max(abs(a - b) for a, b in zip(pay3, (0.5, 0.25, 0.25))) <= 1e-12
    assert max(abs(a - b) for a, b in zip(pay4, (0.25, 0.25, 0.25, 0.25))) <= 1e-12
    assert abs(sum(pay3) - 1.0) <= 1e-12
    assert abs(sum(pay4) - 1.0) <= 1e-12
    _report(6, "asymmetric profiles pay (1/2, 1/4, 1/4) and (1/4 each), sums exactly 1")


def test_criterion_07_verification_verdicts():
    for n in (3, 4):
        for model in ("paper", "exact"):
            strategy = solve_symmetric(GameSpec(n), model=model).strategy
            report = verify_profile(StrategyProfile.symmetric(strategy), epsilon=1e-9, model=model)
            assert report.is_nash, f"n={n} {model} solver output failed verification"
    report = verify_profile(ASYM3, epsilon=1e-9)
    for i in (1, 2):
        assert abs(report.best_response_values[i] - 0.5) <= 1e-12
    for i in range(3):
        assert abs(
            report.deviation_gains[i]
            - (report.best_response_values[i] - report.payoffs[i])
        ) <= 1e-15
    _report(7, "solver outputs verify as equilibria; asymmetric n=3 report is self-consistent")


def test_criterion_08_gradient_correctness():
    step = 1e-6
    for n in range(3, 9):
        spec = GameSpec(n)
        rng = random.Random(8000 + n)
        for _ in range(100):
            p = random_interior(rng, n)
            grad = closed_form_gradient(spec, p)
            base = list(random_interior(rng, n))
            for i in range(n - 1):
                up = list(base)
                down = list(base)
                up[i] += step
                down[i] -= step
                fd = (
                    closed_form_payoff(spec, up, p) - closed_form_payoff(spec, down, p)
                ) / (2 * step)
                assert abs(grad[i] - fd) <= 1e-6
    rng = random.Random(8100)
    spec = GameSpec(3)
    for _ in range(100):
        p = random_strategy(rng, 3, zeros=True)
        g = closed_form_gradient(spec, p)
        assert abs(g[0] - (1 - 2 * p[0] - p[1] ** 2)) <= 1e-12
        assert abs(g[1] - (1 - 2 * p[0] + p[0] ** 2 - 2 * p[1] + 2 * p[0] * p[1])) <= 1e-12
    _report(8, "gradient matches centered differences (n=3..8) and the printed n=3 forms")


def test_criterion_09_monte_carlo_consistency():
    profiles = [StrategyProfile.symmetric(ROOT3), ASYM3, ASYM4]
    for profile in profiles:
        exact = exact_profile_payoffs(profile)
        stats = simulate(profile, MC_ROUNDS, seed=MC_SEED)
        for emp, ref, se in zip(stats.payoffs, exact, stats.standard_errors):
            assert abs(emp - ref) <= 3 * se
        assert simulate(profile, MC_ROUNDS, seed=MC_SEED) == stats
    _report(9, f"10^6-round simulations land within 3 standard errors (seed {MC_SEED})")


def test_criterion_10_brute_force_equivalence():
    rng = random.Random(9000)
    for n in (2, 3, 4, 5):
        for _ in range(25):
            profile = StrategyProfile(
                tuple(random_strategy(rng, n, zeros=True) for _ in range(n))
            )
            fast = exact_profile_payoffs(profile)
            slow = brute_payoffs(profile.rows())
            assert max(abs(a - b) for a, b in zip(fast, slow)) <= 1e-12
    _report(10, "oracle equals full n**n enumeration on 100 random profiles (n <= 5)")
