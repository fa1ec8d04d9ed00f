"""The kernels against independent reference loops.

The sampler draws and picks in exact integer arithmetic, with thresholds
that agree with the float comparison of the scalar round loop in
``_oracle`` on every draw, so its counts must be equal, not close.
The distinct-opponent kernels run a dynamic program over subsets of
players, an algorithm apart from the oracle's scalar loop over 3**n
capped-count states, so they are checked against that loop to 1e-14, and
whole-profile payoffs against brute-force enumeration. The
identical-opponent kernel is checked against the generating-function
oracle, which reads the same win probabilities off power series.
"""

import itertools
import random

import pytest

from _oracle import (
    _scalar_choose_index,
    brute_payoffs,
    egf_win_probs,
    random_strategy,
    scalar_simulate_rounds,
    scalar_win_probs_distinct,
)
from lupi import _kernels_py as kernels

SEEDS = (0, 2**64 - 1)


def check_sampler_matches_scalar_loop(n):
    rng = random.Random(800 + n)
    rows = [list(random_strategy(rng, n, zeros=True)) for _ in range(n)]
    # one whole block of the size that simulate_rounds uses at this n, and a partial second
    rounds = kernels._block_rounds(n) + 3
    for seed in SEEDS:
        assert kernels.simulate_rounds(rows, rounds, seed) == scalar_simulate_rounds(rows, rounds, seed)


def force_block(monkeypatch, block):
    """Make ``simulate_rounds`` use ``block`` rounds per block at every n."""
    monkeypatch.setattr(kernels, "_BLOCK_ROUNDS", block)
    monkeypatch.setattr(kernels, "_BLOCK_DRAWS", 0)


@pytest.mark.parametrize("n", range(2, 13))
def test_sampler_matches_scalar_loop(n):
    check_sampler_matches_scalar_loop(n)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("n", range(2, 13))
def test_sampler_matches_scalar_loop_small_blocks(n, block, monkeypatch):
    force_block(monkeypatch, block)
    assert kernels._block_rounds(n) == block
    check_sampler_matches_scalar_loop(n)


@pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33, 64, 65])
def test_sampler_matches_scalar_loop_at_mask_widths(n, monkeypatch):
    force_block(monkeypatch, 7)
    rng = random.Random(900 + n)
    profiles = [
        [list(random_strategy(rng, n, zeros=True)) for _ in range(n)],
        # all but the last player on integers 1 and 2, the last on 1 or n: most
        # rounds are won at n, the top bit of an n-bit mask
        [[0.5, 0.5] + [0.0] * (n - 2)] * (n - 1) + [[0.5] + [0.0] * (n - 2) + [0.5]],
        # integers 1 and 2 only: most rounds have no winner
        [[0.5, 0.5] + [0.0] * (n - 2)] * n,
    ]
    for rows in profiles:
        for seed in SEEDS:
            assert kernels.simulate_rounds(rows, 60, seed) == scalar_simulate_rounds(rows, 60, seed)


@pytest.mark.parametrize("n", [4, 66])
def test_sampler_returns_python_ints(n):
    # an np.int64 in the counts makes `simulate --format json` fail
    rows = [[0.5, 0.5] + [0.0] * (n - 2)] * n
    wins, no_winner = kernels.simulate_rounds(rows, 100, 1)
    assert all(type(w) is int for w in wins)
    assert type(no_winner) is int


EDGE_ROWS = [
    # cumulative sum ends at 0.9999999999999999
    [[0.1] * 10] * 10,
    # trailing zeros
    [[0.5, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.25, 0.25, 0.5, 0.0], [0.2, 0.3, 0.5, 0.0]],
    # cumulative sums ending well below 1: draws above them fall back to
    # the top index with positive mass
    [[0.3, 0.3, 0.0], [0.0, 0.5, 0.0], [0.2, 0.2, 0.2]],
    # a cumulative sum of exactly 1.0 below the top index: its threshold is
    # 2**53, which no draw reaches
    [[0.5, 0.5, 2.3e-16], [0.25, 0.25, 0.5], [0.0, 1.0, 0.0]],
    # a last positive entry too small to move the sum below 1: a draw past
    # 0.9999999999999999 takes the index before it
    [[0.5, 0.4999999999999999, 1e-17], [0.25, 0.25, 0.5], [0.0, 1.0, 0.0]],
    # a cumulative sum above 1.0 before the last entry that moves it
    [[0.5, 0.5000000000000002, 2.3e-16], [0.25, 0.25, 0.5], [0.0, 0.0, 1.0]],
]


@pytest.mark.parametrize("rows", EDGE_ROWS)
def test_sampler_matches_scalar_loop_on_edge_rows(rows):
    for seed in SEEDS + (12345,):
        assert kernels.simulate_rounds(rows, 3001, seed) == scalar_simulate_rounds(rows, 3001, seed)


def test_thresholds_match_float_choice_at_every_boundary():
    # seeded draws never land exactly on a cumulative sum, so probe the
    # 53-bit draws m next to each threshold, and next to each sum scaled by 2**53
    rng = random.Random(77)
    rows = [row for rows in EDGE_ROWS for row in rows]
    rows += [list(random_strategy(rng, n, zeros=True)) for n in range(1, 41) for _ in range(3)]
    for row in rows:
        cums = list(itertools.accumulate(row))
        thresholds = kernels._thresholds(row)
        assert thresholds == sorted(thresholds)
        probes = {0, 2**53 - 1} | {int(c * 2.0**53) for c in cums} | {t >> 11 for t in thresholds}
        for m in {t + d for t in probes for d in (-1, 0, 1)}:
            if 0 <= m < 2**53:
                pick = sum(t <= m << 11 for t in thresholds)
                assert pick == _scalar_choose_index(cums, m * 2.0**-53), (row, m)


def test_sampler_second_window_of_64_integers():
    # integers 1..32 are each held by two players, so the lowest unique
    # integer is 65, past the first 64-integer mask
    n = 66
    rows = []
    for k in range(32):
        rows += [[1.0 if j == k else 0.0 for j in range(n)]] * 2
    rows += [[1.0 if j == 64 else 0.0 for j in range(n)], [1.0 if j == 65 else 0.0 for j in range(n)]]
    for seed in SEEDS:
        got = kernels.simulate_rounds(rows, 500, seed)
        assert got == scalar_simulate_rounds(rows, 500, seed)
        assert got == ([0] * 64 + [500, 0], 0)


def test_sampler_matches_scalar_loop_past_64_integers():
    rng = random.Random(870)
    rows = [list(random_strategy(rng, 70, zeros=True)) for _ in range(70)]
    assert kernels.simulate_rounds(rows, 1000, 5) == scalar_simulate_rounds(rows, 1000, 5)


def test_sampler_single_round():
    rows = [[0.5, 0.5]] * 2
    for seed in range(20):
        assert kernels.simulate_rounds(rows, 1, seed) == scalar_simulate_rounds(rows, 1, seed)


def _check_distinct(rows):
    got = kernels.win_probs_distinct(rows)
    assert got == pytest.approx(scalar_win_probs_distinct(rows), rel=0.0, abs=1e-14)


@pytest.mark.parametrize("n", range(2, 9))
def test_fold_matches_scalar_loop(n):
    rng = random.Random(900 + n)
    for _ in range(10 if n < 7 else 3):
        _check_distinct([list(random_strategy(rng, n, zeros=True)) for _ in range(n - 1)])
    _check_distinct([list(random_strategy(rng, n, zeros=True))])


def test_fold_matches_scalar_loop_on_sparse_rows():
    rows = [[0.0, 1.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.3, 0.7, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]]
    _check_distinct(rows)


def _check_leave_one_out(rows):
    wins = kernels.win_probs_leave_one_out(rows)
    assert len(wins) == len(rows)
    for i, got in enumerate(wins):
        expected = scalar_win_probs_distinct(rows[:i] + rows[i + 1 :])
        assert got == pytest.approx(expected, rel=0.0, abs=1e-14)


@pytest.mark.parametrize("n", range(2, 9))
def test_leave_one_out_matches_scalar_loop(n):
    rng = random.Random(1000 + n)
    rows = [list(random_strategy(rng, n, zeros=True)) for _ in range(n)]
    _check_leave_one_out(rows)
    # a pure strategy and a repeated row
    rows[0] = [0.0] * n
    rows[0][rng.randrange(n)] = 1.0
    rows[-1] = rows[1][:]
    _check_leave_one_out(rows)


def test_leave_one_out_matches_scalar_loop_dense_n10():
    rng = random.Random(1010)
    _check_leave_one_out([list(random_strategy(rng, 10)) for _ in range(10)])


@pytest.mark.parametrize("n", range(2, 7))
def test_leave_one_out_payoffs_match_brute_force(n):
    rng = random.Random(1100 + n)
    rows = [list(random_strategy(rng, n, zeros=True)) for _ in range(n)]
    # a pure strategy, a repeated row and an integer nobody picks
    rows[0] = [0.0] * n
    rows[0][rng.randrange(n)] = 1.0
    rows[-1] = rows[1][:]
    unused = rng.randrange(n)
    for row in rows:
        row[unused] = 0.0
        if not any(row):
            row[(unused + 1) % n] = 1.0
        total = sum(row)
        row[:] = [v / total for v in row]
    wins = kernels.win_probs_leave_one_out(rows)
    payoffs = [sum(p * w for p, w in zip(row, win)) for row, win in zip(rows, wins)]
    assert payoffs == pytest.approx(brute_payoffs(rows), rel=0.0, abs=1e-14)


@pytest.mark.parametrize("n", [20, 40])
def test_common_matches_generating_function_oracle(n):
    rng = random.Random(1200 + n)
    for zeros in (False, True, True):
        probs = list(random_strategy(rng, n, zeros=zeros))
        assert kernels.win_probs_common(probs, n - 1) == pytest.approx(egf_win_probs(probs), rel=0.0, abs=1e-13)


def test_fold_size_guard(monkeypatch):
    # two rows of 17 integers are 136 multiply-adds
    assert len(kernels.win_probs_distinct([[1.0 / 17] * 17] * 2)) == 17
    # the boundary of the budget on each estimate, with the kernels' work
    # stubbed out: within it the call must get past the check
    monkeypatch.setattr(kernels, "_subset_steps", lambda rows, halves: iter(()))
    monkeypatch.setattr(kernels, "common_step", lambda row, pj: row)
    monkeypatch.setattr(kernels, "common_win", lambda row, above: 0.0)
    assert 16 * 16 * 2**16 <= kernels._WORK_BUDGET < 17 * 17 * 2**17
    kernels.win_probs_leave_one_out([[1.0 / 16] * 16] * 16)
    with pytest.raises(ValueError, match="the subset program needs about 3.79e\\+07 multiply-adds"):
        kernels.win_probs_leave_one_out([[1.0 / 17] * 17] * 17)
    with pytest.raises(ValueError, match="the subset program"):
        kernels.win_probs_distinct([[1.0 / 17] * 17] * 17)
    # identical opponents: n players take about n * (n - 1)**2 / 2
    n = next(n for n in itertools.count(2) if n * (n - 1) ** 2 / 2 > kernels._WORK_BUDGET)
    assert n == 343
    assert kernels.win_probs_common([1.0 / (n - 1)] * (n - 1), n - 2) == [0.0] * (n - 1)
    with pytest.raises(ValueError, match="the identical-opponent program needs about 2.01e\\+07 multiply-adds"):
        kernels.win_probs_common([1.0 / n] * n, n - 1)


def test_subset_size_guard_counts_players():
    # the subset table doubles with each row, whatever the row length:
    # 22 rows of 2 integers are 22 * 2 * 2**22 = 1.8e8 multiply-adds
    with pytest.raises(ValueError, match="the subset program"):
        kernels.win_probs_distinct([[0.5, 0.5]] * 22)
    with pytest.raises(ValueError, match="the subset program"):
        kernels.win_probs_leave_one_out([[0.5, 0.5]] * 22)
