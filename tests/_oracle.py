"""Independent brute-force oracle and reference kernels used by the tests.

The brute-force functions enumerate joint outcomes directly with their own
winner rule, so they share no code with any of the package's computation
paths. The scalar reference kernels at the end are the loops the numpy
kernels replaced; they import nothing from the package either.
"""

import itertools


def brute_winner(picks):
    counts = {}
    for p in picks:
        counts[p] = counts.get(p, 0) + 1
    unique = [v for v, c in counts.items() if c == 1]
    if not unique:
        return None
    return list(picks).index(min(unique))


def brute_win_prob(n, my_pick, opponent_rows):
    total = 0.0
    m = len(opponent_rows)
    for picks in itertools.product(range(1, n + 1), repeat=m):
        prob = 1.0
        for row, p in zip(opponent_rows, picks):
            prob *= row[p - 1]
        if prob and brute_winner((my_pick,) + picks) == 0:
            total += prob
    return total


def brute_payoffs(rows):
    n = len(rows)
    pay = [0.0] * n
    for picks in itertools.product(range(1, n + 1), repeat=n):
        prob = 1.0
        for row, p in zip(rows, picks):
            prob *= row[p - 1]
        if prob == 0.0:
            continue
        winner = brute_winner(picks)
        if winner is not None:
            pay[winner] += prob
    return pay


def random_strategy(rng, n, zeros=False):
    while True:
        raw = [0.0 if zeros and rng.random() < 0.3 else rng.random() for _ in range(n)]
        total = sum(raw)
        if total > 1e-9:
            return tuple(v / total for v in raw)


def random_interior(rng, n, margin=0.05):
    raw = [margin + rng.random() for _ in range(n)]
    total = sum(raw)
    return tuple(v / total for v in raw)


# ---------------------------------------------------------------------------
# pre-vectorisation reference kernels
#
# The scalar loops that ``lupi._kernels_py.win_probs_distinct`` and
# ``simulate_rounds`` replaced with numpy code. The numpy kernels must return
# exactly these results (``tests/test_kernels.py``), so the loops are kept
# here as written, with their own copy of the SplitMix64 generator.

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _scalar_mix64(z):
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _scalar_choose_index(cums, u):
    n = len(cums)
    for k in range(n):
        if u < cums[k]:
            return k
    k = n - 1
    while k > 0 and cums[k] == cums[k - 1]:
        k -= 1
    return k


def scalar_win_probs_distinct(rows):
    """Pre-vectorisation reference: the capped-count fold as a scalar loop over 3**n states."""
    m = len(rows)
    n = len(rows[0])
    pow3 = [3**j for j in range(n + 1)]
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


def scalar_simulate_rounds(rows, rounds, seed):
    """Pre-vectorisation reference: seeded rounds played one at a time."""
    n = len(rows)
    cums = []
    for row in rows:
        acc = 0.0
        cum = []
        for q in row:
            acc += q
            cum.append(acc)
        cums.append(cum)
    states = [_scalar_mix64((seed + (i + 1) * _GOLDEN) & _MASK64) for i in range(n)]
    wins = [0] * n
    no_winner = 0
    picks = [0] * n
    counts = [0] * n
    for _ in range(rounds):
        for val in range(n):
            counts[val] = 0
        for i in range(n):
            states[i] = (states[i] + _GOLDEN) & _MASK64
            u = (_scalar_mix64(states[i]) >> 11) * 2.0**-53
            pick = _scalar_choose_index(cums[i], u)
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
