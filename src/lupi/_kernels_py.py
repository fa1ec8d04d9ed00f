"""Kernels for the hot inner loops, in Python and numpy.

``win_probs_common`` (identical opponents) and the distinct-opponent
kernels ``win_probs_distinct`` and ``win_probs_leave_one_out`` are plain
Python dynamic programs. The last two take their route from ``_plan``, the
one place that groups the rows, picks the program and checks the budget.
One grouped pass (``_grouped_steps``) scores every player of a whole
profile. Every route only adds, multiplies and divides non-negative
numbers, so its error is relative:
``tests/test_kernels.py::test_kernels_meet_their_oracle`` states the bound,
in units of 2**-53 as a function of n, and checks each route against
independent oracles kept in ``tests/_oracle.py``.

``simulate_rounds`` is numpy-vectorised in exact integer arithmetic: the
draws, the inverse-CDF choice and the winner rule involve no rounding, so
its counts equal those of a scalar loop over rounds, also kept in
``tests/_oracle.py``, and are checked against it for equality. Its one
pick rule is ``_thresholds``, which turns a row into uint64 thresholds
for the raw 64-bit draws. numpy is imported inside it, so every command
but ``simulate`` runs without it.

Conventions shared by every kernel:
  * integers chosen by players are stored 0-based (choice ``v`` means the
    integer ``v + 1``),
  * a round's winner is the player holding the smallest integer chosen by
    exactly one player, or -1 when every chosen integer is duplicated.
"""

import math
from itertools import accumulate
from operator import mul

from .game import _total

BACKEND = "python"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_53 = 1 << 53
_MUL_1 = 0xBF58476D1CE4E5B9
_MUL_2 = 0x94D049BB133111EB

# rounds per block of the sampler: max(_BLOCK_ROUNDS, _BLOCK_DRAWS // n) for n
# players (``_block_rounds``). Larger blocks make fewer numpy calls but raise
# peak memory in proportion: 16 bytes of draws per round, plus per player and
# round 1 byte of pick and width/8 bytes of mask, and the comparisons against
# one player's thresholds, 1 byte per round and threshold. Small n gets about
# 2**16 draws per block; large n keeps 4096 rounds, since fewer rounds per
# block would cost more calls per block (2**16 draws with no floor doubled the
# time at n = 40).
_BLOCK_ROUNDS = 4096
_BLOCK_DRAWS = 1 << 16

# multiply-adds one exact kernel call may take: a dense n = 16 subset pass (1.68e7) but not n = 17
# (3.79e7), identical opponents up to n = 342, and a symmetric profile with one deviator, groups of
# n - 1 and 1, up to n = 215 (2 * n**3). The time per estimated multiply-add depends on the route:
# on a 2-core Xeon VM (Python 3.11.7), in-process, about 250 ns on the dense n = 16 pass (4.0-4.5 s),
# 180 ns on the uniform n = 342 one (3.5-3.8 s) and 100-140 ns with one deviator at n = 200 (1.6-2.3 s)
_WORK_BUDGET = 2 * 10**7

# the sampler's work, in the same budget: per round, a comparison per threshold of each player, and
# _DRAW_COST comparisons' time for each player's draw, pick and mask window (a window per 64 players);
# _COMPARISONS_PER_ADD comparisons count as one multiply-add. On the same VM with numpy 2.4.6, in-process,
# over runs on two days, a counted comparison took 0.12-0.65 ns at n = 4 to 1023, so the budget's edge is
# 1.3-6.6 s of rounds: 1.7-3.0 s at n = 4 (73142857 rounds), 2.8-4.4 s for the n = 12 exact root,
# 4.2-6.3 s for a dense n = 40 profile, 4.1-5.0 s for a dense n = 100 one, 1.3-2.3 s for the n = 1023
# paper root and 5.6-6.6 s for a uniform n = 1023 one, whose 1022 thresholds a row take 0.55-0.65 ns each
_DRAW_COST = 32
_COMPARISONS_PER_ADD = 2**9


def _check_work(route, estimate):
    """Raise ValueError when a call of ``route`` would take more than the budget's multiply-adds."""
    if estimate > _WORK_BUDGET:
        raise ValueError(f"{route} needs about {estimate:.3g} multiply-adds, over the budget of {_WORK_BUDGET:.3g}")


def win_probs_common(probs, opponents):
    """Win probability of every pure choice against identical opponents.

    Forward dynamic program over the integers: a state row per integer j
    (``common_start``), from which choice j wins when the opponents left
    all pick above j (``common_win``), and moving past j places c = 0 or
    c >= 2 of them on it (``common_step``). That is n * (opponents + 1)
    cells and O(n * opponents**2) work, about n * opponents**2 / 2
    multiply-adds.
    """
    n = len(probs)
    # tail[j] is the mass on j and above, added from the top down
    tail = list(accumulate(reversed(probs), initial=0.0))[::-1]
    row = common_start(opponents)
    win = [0.0] * n
    for j in range(n):
        win[j] = common_win(row, tail[j + 1])
        pj = probs[j]
        if j < n - 1 and pj != 0.0:
            row = common_step(row, pj)
    return win


def common_start(opponents):
    """State row of the lowest integer, with all ``opponents`` left.

    Entry l of the state row for integer j is the probability weight of
    placing all but l opponents on integers below j with no integer picked
    exactly once. The row is read only through ``common_win`` and advanced
    only through ``common_step``.
    """
    return [0.0] * opponents + [1.0]


def common_win(row, above):
    """Win probability of an integer from its state row and the mass above it.

    With no mass above, only entry 0 can win, and it is returned as it is:
    the sum's own value, since 0.0**0 is 1.0 and every other term is 0.0.
    """
    if above == 0.0:
        return row[0]
    return _total(w * above**left for left, w in enumerate(row) if w != 0.0)


def common_step(row, pj):
    """State row of the next integer, past one chosen with probability ``pj``.

    c = 0 or c >= 2 of the l opponents left pick it, weighted by
    C(l, c) * pj**c.
    """
    nxt = row[:]
    for left in range(2, len(row)):
        w = row[left]
        if w == 0.0:
            continue
        # term runs through w * C(left, c) * pj**c for c = 1, 2, ...
        term = w * left * pj
        for c in range(2, left + 1):
            term *= pj * (left - c + 1) / c
            nxt[left - c] += term
    return nxt


def win_probs_distinct(rows):
    """Win probability of every pure choice against the opponents ``rows``.

    A choice j wins when the opponents who pick below j leave no integer
    picked exactly once and all the others pick above j. ``_plan`` picks
    the program.
    """
    groups, _, moves = _plan(rows, len(rows))
    if moves is None:
        return win_probs_common(rows[0], len(rows))
    return [_total(map(mul, dist, above)) for dist, above in _grouped_steps(groups, moves)]


def win_probs_leave_one_out(rows):
    """Win probabilities of every player's pure choices against all the other rows.

    Entry i is what ``win_probs_distinct`` returns for the rows without row
    i, within the relative bound that the conformance table in
    ``tests/test_kernels.py`` states. One pass of ``_grouped_steps`` over
    all m rows serves every group. Its g members are exchangeable: a given
    one is outside the c counted below j with weight (g - c) / g, and then
    all the other players pick above j with the mass ``above`` holds at the
    state that counts c + 1. With g = 1 that is the subset rule: the weight
    of a set of players never involves a player outside it. Every entry is a
    list of its own, also for players with equal rows.
    """
    groups, group_of, moves = _plan(rows, len(rows) - 1)
    if moves is None:
        win = win_probs_common(rows[0], len(rows) - 1)
        return [win[:] for _ in rows]
    # per group, the pairs from each count c to c + 1, with the weight (g - c) / g
    scores = [[((g - c) / g, lo, hi) for c in range(g) for lo, hi in group_moves[c + 1][c][2]]
              for (_, g), group_moves in zip(groups, moves)]
    wins = [[0.0] * len(rows[0]) for _ in groups]
    for j, (dist, above) in enumerate(_grouped_steps(groups, moves)):
        for win, terms in zip(wins, scores):
            win[j] = _total(f * _total(map(mul, dist[lo], above[hi])) for f, lo, hi in terms)
    return [wins[k][:] for k in group_of]


def _plan(rows, opponents):
    """The route of a distinct-opponent kernel call: (groups, each row's group, moves).

    Rows are grouped by equality in first-appearance order, as (row, copies)
    pairs. One group is ``opponents`` identical opponents for
    ``win_probs_common``, and ``moves`` is None; any other grouping takes
    the grouped pass, ``_grouped_steps`` over the moves of ``_count_moves``.
    The route's multiply-adds, as each program's docstring estimates them,
    are checked against the budget here, before any work; the one other
    check is the sampler's, in ``simulate_rounds``.
    """
    first = {}
    group_of = [first.setdefault(tuple(row), len(first)) for row in rows]
    groups = [(list(row), group_of.count(k)) for k, row in enumerate(first)]
    if len(groups) == 1:
        _check_work("the identical-opponent program", len(rows[0]) * opponents * opponents / 2)
        return groups, group_of, None
    size = math.prod(g + 1 for _, g in groups)
    _check_work("the subset program", size * len(rows[0]) * len(rows))
    return groups, group_of, _count_moves(groups, size)


def _grouped_steps(groups, moves):
    """Yield, for each integer j, the distribution of count states and the mass above j.

    A state counts how many of each group's rows picked integers below j:
    c_i of group i's g_i, at index sum(c_i * stride_i) in mixed radix
    g_i + 1, so rows that all differ index subsets of players, one bit
    each. ``dist[s]`` is the probability of those counts with every integer
    below j picked 0 or >= 2 times; ``above[s]`` is the probability that
    every row not counted picks above j. Moving past j puts d of a group's
    g - c rows left on it, with weight C(g - c, d) * q**d for the group's
    mass q on j. Group by group, ``one`` and ``many`` hold the states that
    have received exactly one or at least two players on j, and the next
    distribution is none + many; every number added or multiplied is
    non-negative. That is about prod(g_i + 1) * n * m multiply-adds for m
    rows of n integers, m * n * 2**m when all rows differ.
    """
    n, size = len(groups[0][0]), math.prod(len(group_moves) for group_moves in moves)
    tails = [list(accumulate(reversed(row), initial=0.0))[::-1] for row, _ in groups]
    dist = [0.0] * size
    dist[0] = 1.0
    for j in range(n):
        above = [1.0]
        for (_, g), tail in zip(groups, tails):
            t = tail[j + 1]
            above = [a * p for p in [t ** k for k in range(g, 0, -1)] for a in above] + above
        yield dist, above
        if j == n - 1:
            break
        one = [0.0] * size
        many = [0.0] * size
        for (row, g), group_moves in zip(groups, moves):
            q = row[j]
            if q == 0.0:
                continue
            powers = [q ** d for d in range(g + 1)]
            # counts from the top down, so that each move reads states not yet written: a
            # move of two or more rows reads none + one + many, summed once per group
            placed = [d + a + b for d, a, b in zip(dist, one, many)] if g > 1 else None
            for t in range(g, 0, -1):
                for c, binom, pairs in group_moves[t]:
                    w = binom * powers[t - c]
                    for lo, hi in pairs:
                        if c + 1 < t:
                            many[hi] = [x + p * w for x, p in zip(many[hi], placed[lo])]
                        else:
                            many[hi] = [x + (a + b) * w for x, a, b in zip(many[hi], one[lo], many[lo])]
                            one[hi] = [x + d * w for x, d in zip(one[hi], dist[lo])]
        dist = [d + w for d, w in zip(dist, many)]


def _count_moves(groups, size):
    """Per group, its moves onto each count t: (c, C(g - c, t - c), slice pairs) for c < t.

    ``size`` is the number of count states, prod(g_i + 1). The pairs match
    every state that counts c of the group's rows to the one that counts t,
    with the other counts equal: strided slices when there are fewer of
    them than contiguous runs, so every pair is as long as it can be.
    """
    moves, stride = [], 1
    for _, g in groups:
        block = stride * (g + 1)
        if stride < size // block:
            runs = [(r, size, block) for r in range(stride)]
        else:
            runs = [(k, k + stride, 1) for k in range(0, size, block)]
        moves.append([[(c, float(math.comb(g - c, t - c)), [
            (slice(a + c * stride, b + c * stride, step), slice(a + t * stride, b + t * stride, step))
            for a, b, step in runs]) for c in range(t)] for t in range(g + 1)])
        stride = block
    return moves


def simulate_rounds(rows, rounds, seed):
    """Play seeded independent rounds; returns (win counts, no-winner count) as Python ints.

    Player i draws from its own SplitMix64 substream, which starts at
    mix64(seed + (i + 1) * GOLDEN) (mod 2**64). The generator is
    counter-based: round r's (0-based) draw is mix64 of that start plus
    (r + 1) * GOLDEN. So the starts and each block of draws go through one
    in-place uint64 mixer (``mix``): the starts as one array of n, a block of
    rounds one player at a time, as one array from steps built once. The
    raw 64-bit draws are picked by ``_thresholds``. Per round, the lowest
    bit of a mask of the integers picked exactly once is the lowest unique
    integer, and the player whose bit it is wins. Masks are the narrowest of
    uint8, uint16, uint32 and uint64 that holds min(n, 64) bits, and a mask
    covers that many integers from ``base``. Rounds with no unique integer in
    a window go on to the next one; in the last window they are counted as
    having no winner, so n <= 64 takes one window and never compacts.
    Scalar operands are plain Python ints, weak scalars that numpy 2 keeps in
    the array's dtype (NEP 50), and a block's offset is reduced mod 2**64
    first, since numpy 2 raises OverflowError on a larger one. The work is
    checked against the budget before numpy is imported: per round, one
    comparison per threshold, and ``_DRAW_COST`` for each player's draw,
    pick and mask windows. The counts equal a round-by-round scan for a
    given seed on every platform.
    """
    n = len(rows)
    cuts = [_thresholds(r) for r in rows]
    per_round = sum(map(len, cuts)) + _DRAW_COST * n * -(-n // 64)
    # past 2**900 rounds the float quotient could overflow: so many rounds are refused as inf work. The refusal
    # names the most rounds the budget admits; their estimate, an integer below 2**53 over 2**9, is exact
    route = (f"rounds must be <= {_WORK_BUDGET * _COMPARISONS_PER_ADD // per_round} for this profile, at "
             f"{_COMPARISONS_PER_ADD} sampler comparisons to a multiply-add: the sampler")
    _check_work(route, rounds * per_round / _COMPARISONS_PER_ADD if rounds < 1 << 900 else math.inf)
    import numpy as np

    def mix(z, tmp):
        """SplitMix64's output scrambler on a uint64 array, in place, through a scratch array."""
        np.right_shift(z, 30, out=tmp)
        z ^= tmp
        z *= _MUL_1
        np.right_shift(z, 27, out=tmp)
        z ^= tmp
        z *= _MUL_2
        np.right_shift(z, 31, out=tmp)
        z ^= tmp

    block = _block_rounds(n)
    thresholds = [np.array(cut, dtype=np.uint64)[:, None] for cut in cuts]
    starts = np.array([(seed + (i + 1) * _GOLDEN) & _MASK64 for i in range(n)], dtype=np.uint64)
    mix(starts, np.empty_like(starts))
    starts = starts.tolist()
    steps = np.arange(1, block + 1, dtype=np.uint64) * _GOLDEN
    draws, scratch = np.empty_like(steps), np.empty_like(steps)
    small = np.min_scalar_type(n - 1)
    mask = np.min_scalar_type((1 << min(n, 64)) - 1)
    width = 8 * mask.itemsize
    picks = np.empty((n, block), dtype=small)
    masks = np.empty((n, block), dtype=mask)
    wins = np.zeros(n, dtype=np.int64)
    no_winner = 0
    for first in range(0, rounds, block):
        count = min(block, rounds - first)
        z, tmp = draws[:count], scratch[:count]
        for i in range(n):
            np.add(steps[:count], (starts[i] + first * _GOLDEN) & _MASK64, out=z)
            mix(z, tmp)
            (z >= thresholds[i]).view(np.uint8).sum(axis=0, dtype=small, out=picks[i, :count])
        left = picks[:, :count]  # rounds with no unique integer below base
        for base in range(0, n, width):
            # a pick outside the window shifts by width or more (below base by
            # wrapping), which numpy defines as 0
            bits = np.left_shift(1, left - base, dtype=mask, out=masks[:, : left.shape[1]])
            once = np.zeros(left.shape[1], dtype=mask)
            many = np.zeros_like(once)
            for bit in bits:
                many |= once & bit
                once |= bit
            once &= ~many
            lowest = once & (~once + 1)
            bits &= lowest
            wins += np.count_nonzero(bits, axis=1)
            if base + width < n:
                left = left[:, once == 0]
            else:
                no_winner += left.shape[1] - int(np.count_nonzero(once))
        del once, many, lowest  # free before the next block's draws
    return wins.tolist(), no_winner


def _block_rounds(n):
    """Rounds per block of ``simulate_rounds`` for n players."""
    return max(_BLOCK_ROUNDS, _BLOCK_DRAWS // n)


def _thresholds(row):
    """The sampler's pick rule: a raw 64-bit draw z picks the number of these thresholds at or below z.

    The uniform of draw z is m * 2**-53 with m = z >> 11, and it picks the
    smallest k with m * 2**-53 < cums[k], the half-open inverse CDF. Scaling
    by 2**53 is exact, so that holds exactly when m < ceil(cums[k] * 2**53),
    that is when z < ceil(cums[k] * 2**53) << 11. Sums of 1.0 or more are
    left out, since no draw reaches them (and 2**53 << 11 does not fit a
    uint64). The list stops below the last index whose entry moves the
    running sum, so a draw past a sum that falls short of 1.0 takes the top
    choice with mass.
    """
    cums = list(accumulate(row))
    top = len(cums) - 1
    while top and cums[top] == cums[top - 1]:
        top -= 1
    return [math.ceil(c * _TWO_53) << 11 for c in cums[:top] if c < 1.0]
