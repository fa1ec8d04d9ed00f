"""Pure-Python kernels for the hot inner loops.

``win_probs_common`` exists only here; the compiled extension
(``_kernels.pyx``) re-exports it, so both backends run the same code on the
identical-opponent route. The extension translates the other kernels with
the same arithmetic, operation for operation, so both backends return
bit-identical results on them too; ``tests/test_backends.py`` checks that
parity when the extension is built.

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

_DP_MAX_N = 16


def _mix64(z):
    """SplitMix64 output scrambler (Steele, Lea and Flood's generator)."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
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
    left must then all pick above j for choice j to win. Moving past j
    places c = 0 or c >= 2 of the l opponents on it, weighted by
    C(l, c) * p_j**c. That is n * (opponents + 1) cells and
    O(n * opponents**2) work.
    """
    n = len(probs)
    tail = [0.0] * (n + 1)
    for j in range(n - 1, -1, -1):
        tail[j] = tail[j + 1] + probs[j]
    row = [0.0] * opponents + [1.0]
    win = [0.0] * n
    for j in range(n):
        above = tail[j + 1]
        win[j] = sum(w * above**left for left, w in enumerate(row) if w != 0.0)
        pj = probs[j]
        if j == n - 1 or pj == 0.0:
            continue
        nxt = row[:]
        for left in range(2, opponents + 1):
            w = row[left]
            if w == 0.0:
                continue
            # term runs through w * C(left, c) * pj**c for c = 1, 2, ...
            term = w * left * pj
            for c in range(2, left + 1):
                term *= pj * (left - c + 1) / c
                nxt[left - c] += term
        row = nxt
    return win


def win_probs_distinct(rows):
    """Win probability of every pure choice against distinct opponents.

    Capped-count dynamic program: the state records, per integer, whether it
    has been picked 0, 1, or >= 2 times (a base-3 digit), which is exactly
    the information adjudication needs. Opponents are folded in one at a
    time; the final distribution is then scored per candidate choice.
    """
    m = len(rows)
    n = len(rows[0])
    if n > _DP_MAX_N:
        raise ValueError(f"capped-count program supports n <= {_DP_MAX_N}, got {n}")
    pow3 = [1] * (n + 1)
    for j in range(n):
        pow3[j + 1] = pow3[j] * 3
    size = pow3[n]
    dist = [0.0] * size
    dist[0] = 1.0
    for idx in range(m):
        row = rows[idx]
        new = [0.0] * size
        for s in range(size):
            ps = dist[s]
            if ps == 0.0:
                continue
            for j in range(n):
                q = row[j]
                if q == 0.0:
                    continue
                d = (s // pow3[j]) % 3
                t = s + pow3[j] if d < 2 else s
                new[t] += ps * q
        dist = new
    win = [0.0] * n
    for s in range(size):
        ps = dist[s]
        if ps == 0.0:
            continue
        for j in range(n):
            d = (s // pow3[j]) % 3
            if d == 1:
                break
            if d == 0:
                win[j] += ps
    return win


def enum_profile_payoffs(rows):
    """Expected payoff per player by full enumeration of all n**n outcomes.

    The slow cross-check path: every joint pure outcome is adjudicated
    directly, so this shares nothing with the two dynamic programs above.
    """
    n = len(rows)
    win = [0.0] * n
    picks = [0] * n
    counts = [0] * n

    def rec(d, w):
        if w == 0.0:
            return
        if d == n:
            v = -1
            for val in range(n):
                if counts[val] == 1:
                    v = val
                    break
            if v >= 0:
                for i in range(n):
                    if picks[i] == v:
                        win[i] += w
                        break
            return
        row = rows[d]
        for val in range(n):
            q = row[val]
            if q == 0.0:
                continue
            picks[d] = val
            counts[val] += 1
            rec(d + 1, w * q)
            counts[val] -= 1

    rec(0, 1.0)
    return win


def simulate_rounds(rows, rounds, seed):
    """Play seeded independent rounds; returns (win counts, no-winner count).

    Player i samples from its own SplitMix64 substream (see stream_state),
    so results do not depend on how rounds might be batched and are stable
    across platforms and backends for a given seed.
    """
    n = len(rows)
    cums = []
    for row in rows:
        acc = 0.0
        cum = []
        for q in row:
            acc += q
            cum.append(acc)
        cums.append(cum)
    states = [stream_state(seed, i) for i in range(n)]
    wins = [0] * n
    no_winner = 0
    picks = [0] * n
    counts = [0] * n
    for _ in range(rounds):
        for val in range(n):
            counts[val] = 0
        for i in range(n):
            states[i] = (states[i] + _GOLDEN) & _MASK64
            u = (_mix64(states[i]) >> 11) * _INV_2_53
            pick = choose_index(cums[i], u)
            picks[i] = pick
            counts[pick] += 1
        v = -1
        for val in range(n):
            if counts[val] == 1:
                v = val
                break
        if v < 0:
            no_winner += 1
        else:
            for i in range(n):
                if picks[i] == v:
                    wins[i] += 1
                    break
    return wins, no_winner
