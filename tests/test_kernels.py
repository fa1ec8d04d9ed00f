"""The kernels against independent reference loops.

The sampler draws and picks in exact integer arithmetic, with thresholds
that agree with the float comparison of the scalar round loop in
``_oracle`` on every draw, so its counts must be equal, not close.
The exact kernels meet their oracles in one conformance table,
``test_kernels_meet_their_oracle``: profile shapes crossed with every entry
point (the identical-opponent program, the distinct-opponent one, every
player's leave-one-out wins and payoff), each checked against the oracle
that reaches it at that oracle's relative bound, in units of u = 2**-53 as
a function of n, one test per row. The oracles are algorithms apart from
the kernels: the scalar loop over 3**n capped-count states, brute-force
enumeration, and the generating function in 50-digit arithmetic.
``test_oracle_bound_is_not_vacuous`` holds each bound to at most 1000
times the worst error its rows measure, and ``pytest -s -k oracle`` prints
that error. A new route adds rows, not a test.
"""

import ast
import itertools
import math
import random
from decimal import Decimal
from operator import mul
from pathlib import Path

import pytest

from _oracle import (_egf_wins, _scalar_choose_index, brute_win_prob, random_strategy, scalar_simulate_rounds,
                     scalar_win_probs_distinct)
from lupi import StrategyProfile, geometric_strategy
from lupi import _kernels_py as kernels
from lupi.game import _profile_choice_values, _total
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


def test_leave_one_out_gives_every_player_a_list_of_its_own():
    # equal rows share a group, in the identical-opponent program and in the grouped one
    for rows in ([[0.5, 0.5]] * 3, [[0.5, 0.5]] * 2 + [[1.0, 0.0]]):
        wins = kernels.win_probs_leave_one_out(rows)
        assert len({id(win) for win in wins}) == len(rows)


U = 2.0**-53


def _brute_wins(rows):
    """Brute force over the opponents' picks, n**m outcomes a pick: it reaches fewer opponents than integers."""
    n = len(rows[0])
    return [brute_win_prob(n, pick, rows) for pick in range(1, n + 1)] if len(rows) < n else None


def _egf_identical(rows):
    """The generating function in 50 digits: it reaches n - 1 identical opponents."""
    return _egf_wins(rows[0]) if len(rows) == len(rows[0]) - 1 == rows.count(rows[0]) else None


# each oracle: its wins against the opponents it reaches (None elsewhere), its relative bound in u at n, and its
# rows (shape, n, seed, profiles drawn). Every kernel route and both float oracles only add, multiply and divide
# non-negative numbers, so each errs by a relative K * u (Higham 2002, ch. 3), K measured within n**2 / 2 here.
# The bound holds the kernel's error and a float oracle's own; the generating function's 50 digits add none
ORACLES = {
    "scalar loop": (scalar_win_probs_distinct, lambda n: 4 * n * n, [
        *((shape, n, seed + n, draws) for n in range(2, 9) for shape, seed, draws in [
            ("sparse", 900, 2), ("sparse", 1000, 1), ("pure row", 1000, 1), ("one deviator", 1050, 1),
            ("two deviators", 1050, 1), ("pairs", 1050, 1), ("two blocks", 1050, 1)]),
        *(("symmetric", n, 103, 4) for n in range(3, 9)),
        *((shape, n, 0, 1) for n in range(3, 9) for shape in ("geometric", "exact root", "one deviator on 1")),
        # seed 1286 draws a row with almost all its mass on one integer, so the distinct pass returns wins of 1e-14
        ("dense", 10, 1010, 1), ("two deviators", 7, 1286, 1)]),
    "brute force": (_brute_wins, lambda n: 4 * n * n, [
        *((shape, n, seed, 1) for n in range(2, 7) for shape, seed in [("symmetric", 103), ("pure row", 1100 + n)]),
        *(("sparse", n, seed, draws) for n in range(2, 6) for seed, draws in [(104, 3), (200 + n, 5)])]),
    "generating function": (_egf_identical, lambda n: n * n, [
        *((shape, n, 0, 1) for n in (16, 40, 100) for shape in ("exact root", "one deviator on 1")),
        ("symmetric", 20, 1220, 3), ("symmetric", 40, 1240, 3), ("geometric", 30, 0, 1)]),
}


def _profile(shape, n, rng, root):
    """n rows of n integers in ``shape``. Seeded shapes draw one row with zero entries (none if dense) for each
    group of equal rows, in a seeded order; "pure row" has a pure first row, a last row equal to the second and an
    integer no one picks. The geometric row or the exact root goes to every player, but for the deviator on 1."""
    if shape in ("geometric", "exact root", "one deviator on 1"):
        row = list(geometric_strategy(n).probs if shape == "geometric" else root(n).strategy.probs)
        return [row] * n if shape != "one deviator on 1" else [row] * (n - 1) + [[1.0] + [0.0] * (n - 1)]
    sizes = {"symmetric": [n], "one deviator": [n - 1, 1], "two deviators": [n - 2, 1, 1],
             "pairs": [2] * (n // 2) + [n % 2], "two blocks": [n // 2, n - n // 2]}.get(shape, [1] * n)
    width = n - (shape == "pure row")
    rows = [row for g in sizes if g for row in [list(random_strategy(rng, width, zeros=shape != "dense"))] * g]
    rng.shuffle(rows)
    if shape == "pure row":
        rows[0], rows[-1], unused = [0.0] * width, rows[1], rng.randrange(n)
        rows[0][rng.randrange(width)] = 1.0
        rows = [row[:unused] + [0.0] + row[unused:] for row in rows]
    return rows


def _entries(rows):
    """(entry point, opponents as a sorted tuple of rows, values, own row or None) of each kernel entry point on
    ``rows``. Every player's wins and payoff, its row dotted with them, come from the one pass of ``payoff`` and
    ``verify``; the first m rows' wins, m = 1, n // 2 and n - 1, from ``win_probs_distinct``, and where those rows
    are equal from ``win_probs_common`` and, up to m = 8, the grouped pass on one group (the package never runs
    that pass on one group)."""
    keys = [tuple(row) for row in rows]
    for i, (wins, payoff) in enumerate(zip(*_profile_choice_values(StrategyProfile(rows)))):
        others = tuple(sorted(keys[:i] + keys[i + 1:]))
        yield from [("leave one out", others, wins, None), ("payoff", others, [payoff], rows[i])]
    for m in sorted({1, len(rows) // 2, len(rows) - 1}):
        key, groups = tuple(sorted(keys[:m])), [(rows[0], m)]
        yield "distinct", key, kernels.win_probs_distinct(rows[:m]), None
        if key.count(key[0]) == m:
            yield "common", key, kernels.win_probs_common(rows[0], m), None
        if key.count(key[0]) == m <= 8:
            steps = kernels._grouped_steps(groups, kernels._count_moves(groups, m + 1))
            yield "one group", key, [_total(map(mul, dist, above)) for dist, above in steps], None


def _error(got, want):
    """|got - want| / want in u, in want's arithmetic: 0 where both are 0, and inf where only want is."""
    return float(abs(type(want)(got) - want) / want) / U if want else (0.0 if got == 0.0 else math.inf)


_ANSWERS, _WORST = {}, {}  # each oracle's answers by opponents, and each row's worst error in u and where


@pytest.mark.parametrize("oracle, shape, n, seed, draws", [(o, *row) for o in ORACLES for row in ORACLES[o][2]])
def test_kernels_meet_their_oracle(oracle, shape, n, seed, draws, exact_root):
    # one row of the oracle's table: each value the oracle reaches is within its bound of the oracle's, so exactly 0
    # where that is; a payoff's is its row dotted with the oracle's wins in 28-digit decimals, exact to far below u.
    # Every win, reached or not, is at most the chance that no opponent picks its integer, times 1 + the bound
    (answer, bound, _), worst, rng = ORACLES[oracle], (0.0, ""), random.Random(seed)
    for entry, opponents, got, own in (e for _ in range(draws) for e in _entries(_profile(shape, n, rng, exact_root))):
        if (oracle, opponents) not in _ANSWERS:
            # that chance is the product of each row's mass off j: 1 - p_ij, but summed, since a row sums to 1 only
            # to rounding; equal rows are one factor to the power of their count
            groups = [(row, len(list(same))) for row, same in itertools.groupby(opponents)]
            free = [math.prod(math.fsum(row[:j] + row[j + 1:]) ** g for row, g in groups) for j in range(n)]
            _ANSWERS[oracle, opponents] = answer(opponents), free
        want, free = _ANSWERS[oracle, opponents]
        assert len(got) == (n if own is None else 1), (entry, len(opponents), got)
        assert own is not None or all(0 <= w <= f * (1 + bound(n) * U) for w, f in zip(got, free)), (entry, got)
        if want is not None:
            want = [sum(map(mul, map(Decimal, own), map(Decimal, want)), Decimal(0))] if own else want
            assert max(errors := list(map(_error, got, want))) <= bound(n), (entry, len(opponents), errors)
            worst = max(worst, (max(errors), f"n = {n}, {shape} (seed {seed}), {entry} against {len(opponents)}"))
    _WORST[oracle, shape, n, seed, draws] = worst


@pytest.mark.parametrize("oracle", ORACLES)
def test_oracle_bound_is_not_vacuous(oracle, exact_root):
    # over the oracle's rows, measured above or here when run alone, the bound is no more than 1000 times the worst
    # error, and below 1e-9
    _, bound, table = ORACLES[oracle]
    for row in {(oracle, *row) for row in table} - _WORST.keys():
        test_kernels_meet_their_oracle(*row, exact_root)
    worst, top = max(w for (o, *_), w in _WORST.items() if o == oracle), max(bound(row[1]) for row in table)
    print(f"{oracle}: worst relative error {worst[0]:.1f} u at {worst[1]}; bound {top} u at most")
    assert top <= 1000 * worst[0] and top * U < 1e-9


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
