"""Kernels for the hot inner loops, in Python and numpy.

``win_probs_distinct`` and ``simulate_rounds`` are numpy-vectorised; they add
and multiply the same floats in the same order as scalar loops over states
and rounds, and ``tests/test_kernels.py`` checks them bit for bit against
those loops, kept in ``tests/_oracle.py``.

``win_probs_leave_one_out`` scores every player of a profile against all
the others with the same fold and score steps, shared by divide and
conquer: at most m * ceil(log2(m)) folds of a 3**n table for m players (44
at m = 12, against m * (m - 1) = 132 one player at a time). It keeps about
ceil(log2(m)) + 2 tables alive at once (5.4 measured at n = 12), at
4.25 MB a table at n = 12 and 344 MB at the n = 16 guard. Its sums run in
another order, so it agrees with the scalar loop to rounding, not bit for
bit.

numpy is imported inside the array kernels, so the identical-opponent
route, and with it the symmetric solver, never loads it.

Conventions shared by every kernel:
  * integers chosen by players are stored 0-based (choice ``v`` means the
    integer ``v + 1``),
  * a round's winner is the player holding the smallest integer chosen by
    exactly one player, or -1 when every chosen integer is duplicated.
"""

BACKEND = "python"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53
_MUL_1 = 0xBF58476D1CE4E5B9
_MUL_2 = 0x94D049BB133111EB

# rounds x players drawn per block of the sampler; larger blocks run no
# faster and raise peak memory
_BLOCK_CELLS = 8192

_DP_MAX_N = 16


def _mix64(z):
    """SplitMix64 output scrambler (Steele, Lea and Flood's generator)."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * _MUL_1) & _MASK64
    z ^= z >> 27
    z = (z * _MUL_2) & _MASK64
    z ^= z >> 31
    return z


def stream_state(seed, player):
    """Initial SplitMix64 state of one player's substream."""
    return _mix64((seed + (player + 1) * _GOLDEN) & _MASK64)


def choose_index(cums, u):
    """Inverse-CDF choice: smallest k with u < cums[k].

    Boundaries are half-open, so a draw exactly equal to a cumulative value
    selects the higher index. If rounding left cums[-1] marginally below 1
    and the draw lands in the gap, the top index with positive mass is used.
    """
    n = len(cums)
    for k in range(n):
        if u < cums[k]:
            return k
    k = n - 1
    while k > 0 and cums[k] == cums[k - 1]:
        k -= 1
    return k


def win_probs_common(probs, opponents):
    """Win probability of every pure choice against identical opponents.

    Forward dynamic program over the integers. Entry l of the state row for
    integer j is the probability weight of placing all but l opponents on
    integers below j with no integer picked exactly once; the l opponents
    left must then all pick above j for choice j to win (``common_win``).
    Moving past j places c = 0 or c >= 2 of the l opponents on it
    (``common_step``). That is n * (opponents + 1) cells and
    O(n * opponents**2) work.
    """
    n = len(probs)
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

    Capped-count dynamic program: the state records, per integer, whether it
    has been picked 0, 1, or >= 2 times (a base-3 digit), which is exactly
    the information adjudication needs. Opponents are folded in one at a
    time (``fold_step``); the final distribution is then scored per
    candidate choice (``score_step``).
    """
    n = len(rows[0])
    dist = _empty_table(n)
    for row in rows:
        dist = fold_step(dist, row)
    return score_step(dist, n)


def win_probs_leave_one_out(rows):
    """Win probabilities of every player's pure choices against all the other rows.

    Entry i is what ``win_probs_distinct`` returns for the rows without row
    i, up to rounding: the folds are shared, so each row is folded into
    other players' distributions in a different order. Divide and conquer:
    a group of players is split in two halves, each half is scored against
    the distribution with the other half folded in, and single players are
    scored. That is at most m * ceil(log2(m)) folds for m rows instead of
    m * (m - 1).
    """
    n = len(rows[0])
    wins = [None] * len(rows)
    _score_each(_empty_table(n), (), tuple(range(len(rows))), rows, wins)
    return wins


def _score_each(dist, folded, players, rows, wins):
    """Score ``players`` against ``dist`` with the rows ``folded`` folded in.

    ``dist`` already holds every row outside ``folded`` and ``players``; the
    caller still needs it for the sibling group, so it is folded into a new
    array. The smaller half of each split recurses while this frame keeps
    its distribution; the larger half continues in the loop, which drops the
    distribution as soon as the next one is folded from it.
    """
    for i in folded:
        dist = fold_step(dist, rows[i])
    while len(players) > 1:
        half = len(players) // 2
        first, second = players[:half], players[half:]
        _score_each(dist, second, first, rows, wins)
        for i in first:
            dist = fold_step(dist, rows[i])
        players = second
    wins[players[0]] = score_step(dist, len(rows[0]))


def _empty_table(n):
    """Capped-count distribution over 3**n states before any opponent is folded."""
    import numpy as np

    if n > _DP_MAX_N:
        raise ValueError(f"capped-count program supports n <= {_DP_MAX_N}, got {n}")
    dist = np.zeros(3**n)
    dist[0] = 1.0
    return dist


def fold_step(dist, row):
    """Capped-count distribution after one more opponent, who picks j with ``row[j]``.

    Digit j of a state is the middle axis of the (3**(n-1-j), 3, 3**j) view
    of the distribution. Each target state sums its contributions in the
    order of a scan over source states, then integers: raises of digit j
    (0 -> 1, 1 -> 2) come from the lower state s - 3**j, so they go in for j
    descending, then the 2 -> 2 stays from the state itself for j ascending.
    """
    import numpy as np

    n = len(row)
    used = [j for j in range(n) if row[j] != 0.0]
    new = np.zeros_like(dist)
    for j in reversed(used):
        src = dist.reshape(3 ** (n - 1 - j), 3, 3**j)
        dst = new.reshape(src.shape)
        # one digit value at a time keeps the temporary at a third of the table
        dst[:, 1, :] += src[:, 0, :] * row[j]
        dst[:, 2, :] += src[:, 1, :] * row[j]
    for j in used:
        src = dist.reshape(3 ** (n - 1 - j), 3, 3**j)
        dst = new.reshape(src.shape)
        dst[:, 2, :] += src[:, 2, :] * row[j]
    return new


def score_step(dist, n):
    """Win probability of every pure choice from a folded capped-count distribution.

    Choice j wins in the states whose digit j is 0 and whose lower digits
    are all 0 or 2. Scores are summed sequentially in state order, as a scan
    over the states would.
    """
    import numpy as np

    win = [0.0] * n
    # lower_ok[lo]: no digit of the lower state lo (digits below j) equals 1
    lower_ok = np.ones(1, dtype=bool)
    for j in range(n):
        free = dist.reshape(3 ** (n - 1 - j), 3, 3**j)[:, 0, :][:, lower_ok].ravel()
        win[j] = float(np.cumsum(free, out=free)[-1])
        lower_ok = np.concatenate((lower_ok, np.zeros_like(lower_ok), lower_ok))
    return win


def simulate_rounds(rows, rounds, seed):
    """Play seeded independent rounds; returns (win counts, no-winner count).

    Player i samples from its own SplitMix64 substream (see stream_state).
    The generator is counter-based: before round r (0-based) is drawn,
    player i's state is its initial state plus (r + 1) * GOLDEN (mod 2**64).
    Rounds are therefore drawn in blocks of whole rounds with wrapping
    uint64 arithmetic, and the counts equal a round-by-round scan for a
    given seed on every platform.
    """
    import numpy as np

    # uint64 operands: a Python int above 2**63 would not mix with uint64
    # arrays (it raises under numpy 2, promotes to float under numpy 1)
    golden, mul_1, mul_2 = np.uint64(_GOLDEN), np.uint64(_MUL_1), np.uint64(_MUL_2)
    shift_11, shift_27, shift_30, shift_31 = (np.uint64(k) for k in (11, 27, 30, 31))
    n = len(rows)
    cums = []
    tops = []
    for row in rows:
        acc = 0.0
        cum = []
        for q in row:
            acc += q
            cum.append(acc)
        cums.append(np.array(cum))
        tops.append(choose_index(cum, 1.0))
    bases = np.array([stream_state(seed, i) for i in range(n)], dtype=np.uint64)
    block = max(1, _BLOCK_CELLS // n)
    wins = np.zeros(n, dtype=np.int64)
    no_winner = 0
    with np.errstate(over="ignore"):
        for first in range(0, rounds, block):
            count = min(block, rounds - first)
            steps = np.arange(first + 1, first + count + 1, dtype=np.uint64)
            z = bases + steps[:, None] * golden
            z ^= z >> shift_30
            z *= mul_1
            z ^= z >> shift_27
            z *= mul_2
            z ^= z >> shift_31
            draws = (z >> shift_11).astype(np.float64) * _INV_2_53
            picks = np.empty((count, n), dtype=np.intp)
            for i in range(n):
                col = np.searchsorted(cums[i], draws[:, i], side="right")
                col[col == n] = tops[i]  # draw beyond a cumulative sum that ends below 1
                picks[:, i] = col
            counts = np.bincount((picks + np.arange(count)[:, None] * n).ravel(), minlength=count * n)
            unique = counts.reshape(count, n) == 1
            won = unique.any(axis=1)
            lowest = unique.argmax(axis=1)
            holders = (picks == lowest[:, None]).argmax(axis=1)
            wins += np.bincount(holders[won], minlength=n)
            no_winner += count - int(np.count_nonzero(won))
    return wins.tolist(), no_winner
