"""Kernels for the hot inner loops, in Python and numpy.

``win_probs_common`` (identical opponents) and the distinct-opponent
kernels ``win_probs_distinct`` and ``win_probs_leave_one_out`` are plain
Python dynamic programs. The last two walk the integers over subsets of
players, 2**m weights for m rows, and one pass scores every player of a
whole profile. ``tests/test_kernels.py`` checks them to rounding against
the scalar loop over 3**n capped-count states kept in ``tests/_oracle.py``.
Before any work, all three check their multiply-adds against ``_WORK_BUDGET``.

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

# multiply-adds one exact kernel call may take, about 1.5 s at 60-80 ns each on a 2-core Xeon: a dense
# n = 16 subset pass (1.68e7) but not n = 17 (3.79e7), and identical opponents up to n = 342
_WORK_BUDGET = 2 * 10**7


def _check_work(route, estimate):
    """Raise ValueError when a call of ``route`` would take more than the budget's multiply-adds."""
    if estimate > _WORK_BUDGET:
        raise ValueError(f"{route} needs about {estimate:.3g} multiply-adds, over the budget of {_WORK_BUDGET:.3g}")


def win_probs_common(probs, opponents):
    """Win probability of every pure choice against identical opponents.

    Forward dynamic program over the integers. Entry l of the state row for
    integer j is the probability weight of placing all but l opponents on
    integers below j with no integer picked exactly once; the l opponents
    left must then all pick above j for choice j to win (``common_win``).
    Moving past j places c = 0 or c >= 2 of the l opponents on it
    (``common_step``). That is n * (opponents + 1) cells and
    O(n * opponents**2) work, about n * opponents**2 / 2 multiply-adds.
    """
    n = len(probs)
    _check_work("the identical-opponent program", n * opponents * opponents / 2)
    tail = [0.0] * (n + 1)
    for j in range(n - 1, -1, -1):
        tail[j] = tail[j + 1] + probs[j]
    row = [0.0] * opponents + [1.0]
    win = [0.0] * n
    for j in range(n):
        win[j] = common_win(row, tail[j + 1])
        pj = probs[j]
        if j < n - 1 and pj != 0.0:
            row = common_step(row, pj)
    return win


def common_win(row, above):
    """Win probability of an integer from its state row and the mass above it."""
    return sum(w * above**left for left, w in enumerate(row) if w != 0.0)


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
    """Win probability of every pure choice against distinct opponents.

    Dynamic program over subsets of the opponents (``_subset_steps``): a
    choice j wins when the opponents who pick below j leave no integer
    picked exactly once and all the others pick above j.
    """
    return [sum(map(mul, dist, above)) for dist, above in _subset_steps(rows, _player_halves(rows))]


def win_probs_leave_one_out(rows):
    """Win probabilities of every player's pure choices against all the other rows.

    Entry i is what ``win_probs_distinct`` returns for the rows without row
    i, up to rounding. One pass of ``_subset_steps`` over all m rows serves
    every player: the weight of a subset S never involves a player outside
    S, so player i's win at j sums the subsets without i, each with every
    player outside S and i above j.
    """
    halves = _player_halves(rows)
    wins = [[0.0] * len(rows[0]) for _ in rows]
    for j, (dist, above) in enumerate(_subset_steps(rows, halves)):
        for win, pairs in zip(wins, halves):
            win[j] = sum(sum(map(mul, dist[lo], above[hi])) for lo, hi in pairs)
    return wins


def _subset_steps(rows, halves):
    """Yield, for each integer j, the subset distribution and the mass above j.

    Players are the bits of a subset index. ``dist[S]`` is the probability
    that exactly the players in S picked integers below j, each of those
    integers 0 or >= 2 times; ``above[S]`` is the probability that every
    player outside S picks above j. Moving past j places on it any set T of
    players outside S with |T| != 1: players with ``row[j] != 0`` join T
    one at a time, and ``one`` and ``many`` hold the sets that received
    exactly one or at least two of them. That is about m * n * 2**m
    multiply-adds for m rows of n integers.
    """
    n, size = len(rows[0]), 1 << len(rows)
    tails = [[0.0] * (n + 1) for _ in rows]
    for row, tail in zip(rows, tails):
        for j in range(n - 1, -1, -1):
            tail[j] = tail[j + 1] + row[j]
    dist = [0.0] * size
    dist[0] = 1.0
    for j in range(n):
        above = [1.0]
        for tail in tails:
            t = tail[j + 1]
            above = [a * t for a in above] + above
        yield dist, above
        if j == n - 1:
            break
        one = [0.0] * size
        many = [0.0] * size
        for row, pairs in zip(rows, halves):
            q = row[j]
            if q == 0.0:
                continue
            for lo, hi in pairs:
                many[hi] = [w + (a + b) * q for w, a, b in zip(many[hi], one[lo], many[lo])]
                one[hi] = [w + d * q for w, d in zip(one[hi], dist[lo])]
        dist = [d + w for d, w in zip(dist, many)]


def _player_halves(rows):
    """Per player, slice pairs that match each subset index without the player to the one with it.

    Strided slices when there are fewer of them than contiguous blocks, so
    every pair is as long as it can be. Both subset kernels start here, with the budget check.
    """
    size = 1 << len(rows)
    _check_work("the subset program", len(rows) * len(rows[0]) * size)
    halves = []
    for bit in (1 << i for i in range(len(rows))):
        if 2 * bit * bit < size:
            halves.append([(slice(r, size, 2 * bit), slice(r + bit, size, 2 * bit)) for r in range(bit)])
        else:
            halves.append([(slice(k, k + bit), slice(k + bit, k + 2 * bit)) for k in range(0, size, 2 * bit)])
    return halves


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
    The counts equal a round-by-round scan for a given seed on every platform.
    """
    import numpy as np

    # uint64 operands: a Python int above 2**63 would not mix with uint64
    # arrays (it raises under numpy 2, promotes to float under numpy 1)
    mul_1, mul_2 = np.uint64(_MUL_1), np.uint64(_MUL_2)
    shift_27, shift_30, shift_31 = (np.uint64(k) for k in (27, 30, 31))

    def mix(z, tmp):
        """SplitMix64's output scrambler on a uint64 array, in place, through a scratch array."""
        np.right_shift(z, shift_30, out=tmp)
        z ^= tmp
        z *= mul_1
        np.right_shift(z, shift_27, out=tmp)
        z ^= tmp
        z *= mul_2
        np.right_shift(z, shift_31, out=tmp)
        z ^= tmp

    n = len(rows)
    block = _block_rounds(n)
    thresholds = [np.array(_thresholds(r), dtype=np.uint64)[:, None] for r in rows]
    starts = np.array([(seed + (i + 1) * _GOLDEN) & _MASK64 for i in range(n)], dtype=np.uint64)
    mix(starts, np.empty_like(starts))
    starts = starts.tolist()
    steps = np.arange(1, block + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    draws, scratch = np.empty_like(steps), np.empty_like(steps)
    small = np.min_scalar_type(n - 1)
    # the mask dtype goes into every operand, so numpy 1 and 2 promote alike
    mask = np.min_scalar_type((1 << min(n, 64)) - 1)
    width, one = 8 * mask.itemsize, mask.type(1)
    picks = np.empty((n, block), dtype=small)
    masks = np.empty((n, block), dtype=mask)
    wins = np.zeros(n, dtype=np.int64)
    no_winner = 0
    for first in range(0, rounds, block):
        count = min(block, rounds - first)
        z, tmp = draws[:count], scratch[:count]
        for i in range(n):
            # the block's offset in Python ints: a uint64 scalar product that wraps warns
            np.add(steps[:count], np.uint64((starts[i] + first * _GOLDEN) & _MASK64), out=z)
            mix(z, tmp)
            (z >= thresholds[i]).view(np.uint8).sum(axis=0, dtype=small, out=picks[i, :count])
        left = picks[:, :count]  # rounds with no unique integer below base
        for base in range(0, n, width):
            # a pick outside the window shifts by width or more (below base by
            # wrapping), which numpy defines as 0
            bits = np.left_shift(one, left - base, dtype=mask, out=masks[:, : left.shape[1]])
            once = np.zeros(left.shape[1], dtype=mask)
            many = np.zeros_like(once)
            for bit in bits:
                many |= once & bit
                once |= bit
            once &= ~many
            lowest = once & (~once + one)
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
