"""The kernels against independent reference loops.

The sampler draws and picks in exact integer arithmetic, with thresholds
that agree with the float comparison of the scalar round loop in
``_oracle`` on every draw, so its counts must be equal, not close.
The distinct-opponent kernels run a dynamic program over how many rows of
each group of equal rows sit below an integer (subsets of players when all
rows differ), an algorithm apart from the oracle's scalar loop over 3**n
capped-count states, so they are checked against that loop to 1e-14, and
whole-profile payoffs against brute-force enumeration. The
identical-opponent kernel is checked against the generating-function
oracle, which reads the same win probabilities off power series.
"""

import ast
import itertools
import random
from pathlib import Path

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
from test_package import _owned_nodes

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


def test_sampler_matches_scalar_loop_with_uint16_picks(monkeypatch):
    # n = 300 holds its picks in uint16; blocks of 7 rounds, the last one partial
    force_block(monkeypatch, 7)
    rng = random.Random(300)
    rows = [list(random_strategy(rng, 300, zeros=True)) for _ in range(300)]
    for seed in SEEDS:
        assert kernels.simulate_rounds(rows, 40, seed) == scalar_simulate_rounds(rows, 40, seed)


def test_sampler_fifth_window_of_64_integers():
    # integers 1..140 are each held by two players, 281 by one and 282..300 by
    # one each, so every round goes past four empty or duplicated windows to the
    # one from integer 257, and the player on 281 wins it
    n = 300
    rows = []
    for k in range(140):
        rows += [[1.0 if j == k else 0.0 for j in range(n)]] * 2
    rows += [[1.0 if j == k else 0.0 for j in range(n)] for k in range(280, 300)]
    for seed in SEEDS:
        got = kernels.simulate_rounds(rows, 100, seed)
        assert got == scalar_simulate_rounds(rows, 100, seed)
        assert got == ([0] * 280 + [100] + [0] * 19, 0)


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


def _grouped_rows(rng, n, shape):
    """n rows with zero entries, in groups of equal rows of the sizes in ``shape``, in a seeded order."""
    rows = [row for g in shape for row in [list(random_strategy(rng, n, zeros=True))] * g]
    rng.shuffle(rows)
    return rows


def _shapes(n):
    """Group sizes of n rows: one deviator, two, pairs, and two blocks."""
    return [[n - 1, 1], [n - 2, 1, 1], [2] * (n // 2) + [1] * (n % 2), [n // 2, n - n // 2]]


@pytest.mark.parametrize("n", range(2, 9))
def test_grouped_rows_match_scalar_loop(n):
    rng = random.Random(1050 + n)
    for shape in _shapes(n):
        rows = _grouped_rows(rng, n, [g for g in shape if g])
        _check_leave_one_out(rows)
        _check_distinct(rows)
        _check_distinct(rows[1:])


def test_leave_one_out_gives_every_player_a_list_of_its_own():
    # equal rows share a group, in the identical-opponent program and in the grouped one
    for rows in ([[0.5, 0.5]] * 3, [[0.5, 0.5]] * 2 + [[1.0, 0.0]]):
        wins = kernels.win_probs_leave_one_out(rows)
        assert len({id(win) for win in wins}) == len(rows)


@pytest.mark.parametrize("n", [16, 40])
def test_one_deviator_faces_the_identical_opponent_program(n, exact_root):
    # the exact root for all but one player, who picks 1: that player's row is
    # the root's win probabilities against n - 1 identical opponents
    root = list(exact_root(n).strategy.probs)
    rows = [root] * (n - 1) + [[1.0] + [0.0] * (n - 1)]
    deviator = kernels.win_probs_leave_one_out(rows)[-1]
    assert deviator == pytest.approx(kernels.win_probs_common(root, n - 1), rel=0.0, abs=1e-15)
    assert deviator == pytest.approx(egf_win_probs(root), rel=0.0, abs=1e-14)


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


def _distinct_rows(m, n):
    """m rows of n integers that all differ."""
    return [[(1.0 + i * (j == 0)) / (n + i) for j in range(n)] for i in range(m)]


def test_fold_size_guard():
    # two rows of 17 integers are 136 multiply-adds
    assert len(kernels.win_probs_distinct(_distinct_rows(2, 17))) == 17
    # each route's limit is a row of tests/test_docs.py::test_readme_limit:
    # at it the plan gets past its check on the route the row names, and
    # above it both public kernels stop before any work
    groups, _, moves = kernels._plan(_distinct_rows(16, 16), 15)
    assert len(groups) == len(moves) == 16
    with pytest.raises(ValueError, match="the subset program needs about 3.79e\\+07 multiply-adds"):
        kernels.win_probs_leave_one_out(_distinct_rows(17, 17))
    with pytest.raises(ValueError, match="the subset program"):
        kernels.win_probs_distinct(_distinct_rows(17, 17))
    # identical opponents: n players take about n * (n - 1)**2 / 2
    n, message = 343, "the identical-opponent program needs about 2.01e\\+07 multiply-adds"
    groups, _, moves = kernels._plan([[1.0 / (n - 1)] * (n - 1)] * (n - 1), n - 2)
    assert len(groups) == 1 and moves is None
    with pytest.raises(ValueError, match=message):
        kernels.win_probs_leave_one_out([[1.0 / n] * n] * n)
    with pytest.raises(ValueError, match=message):
        kernels.win_probs_distinct([[1.0 / n] * n] * (n - 1))
    # equal rows are one group: 17 of them take the identical-opponent program
    kernels.win_probs_leave_one_out([[1.0 / 17] * 17] * 17)


def test_the_budget_is_checked_in_one_place():
    # _plan is the one route choice of the exact kernels: the budget is
    # checked there and in the sampler only, and the two distinct-opponent
    # kernels call _plan
    package = Path(kernels.__file__).resolve().parent
    callers = {"_check_work": set(), "_plan": set()}
    for path in sorted(package.glob("*.py")):
        for owner, node in _owned_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in callers:
                    callers[name].add(f"{path.stem}.{owner}")
    assert callers == {
        "_check_work": {"_kernels_py._plan", "_kernels_py.simulate_rounds"},
        "_plan": {"_kernels_py.win_probs_distinct", "_kernels_py.win_probs_leave_one_out"},
    }


def test_subset_size_guard_counts_players():
    # the subset table doubles with each distinct row, whatever the row length:
    # 22 distinct rows of 2 integers are 22 * 2 * 2**22 = 1.8e8 multiply-adds
    rows = _distinct_rows(22, 2)
    with pytest.raises(ValueError, match="the subset program"):
        kernels.win_probs_distinct(rows)
    with pytest.raises(ValueError, match="the subset program"):
        kernels.win_probs_leave_one_out(rows)
