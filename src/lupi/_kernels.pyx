# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernels for the hot inner loops.

Operation-for-operation translation of ``_kernels_py``, except for
``win_probs_common``: its dynamic program is re-exported from the
pure-Python module, so both backends share one copy of it. The translated
kernels must return bit-identical results (``tests/test_backends.py``
checks this). See the pure-Python module for the algorithm notes.
"""

from libc.stdint cimport uint64_t
from libc.stdlib cimport calloc, free, malloc
from libc.string cimport memset

from lupi._kernels_py import win_probs_common

BACKEND = "c"

cdef uint64_t GOLDEN = 0x9E3779B97F4A7C15UL
cdef double INV_2_53 = 1.0 / 9007199254740992.0

DEF DP_MAX_N = 16


cdef inline uint64_t _mix64_c(uint64_t z) noexcept:
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9UL
    z ^= z >> 27
    z = z * 0x94D049BB133111EBUL
    z ^= z >> 31
    return z


def stream_state(seed, player):
    """Initial SplitMix64 state of one player's substream."""
    cdef uint64_t s = <uint64_t> seed
    cdef uint64_t p = <uint64_t> (player + 1)
    return _mix64_c(s + p * GOLDEN)


def choose_index(cums, u):
    """Inverse-CDF choice: smallest k with u < cums[k] (see _kernels_py)."""
    cdef int n = len(cums)
    cdef int k
    cdef double uu = u
    for k in range(n):
        if uu < <double> cums[k]:
            return k
    k = n - 1
    while k > 0 and <double> cums[k] == <double> cums[k - 1]:
        k -= 1
    return k


def win_probs_distinct(rows):
    """Win probability of every pure choice against distinct opponents."""
    cdef int m = len(rows)
    cdef int n = len(rows[0])
    if n > DP_MAX_N:
        raise ValueError(f"capped-count program supports n <= {DP_MAX_N}, got {n}")
    cdef long long* pow3 = <long long*> malloc((n + 1) * sizeof(long long))
    if pow3 == NULL:
        raise MemoryError()
    cdef int j, idx
    cdef long long s, t, size
    cdef int d
    cdef double ps, q
    pow3[0] = 1
    for j in range(n):
        pow3[j + 1] = pow3[j] * 3
    size = pow3[n]
    cdef double* dist = <double*> calloc(size, sizeof(double))
    cdef double* new = <double*> calloc(size, sizeof(double))
    cdef double* row = <double*> malloc(n * sizeof(double))
    cdef double* win = <double*> calloc(n, sizeof(double))
    cdef double* swap
    if dist == NULL or new == NULL or row == NULL or win == NULL:
        free(pow3); free(dist); free(new); free(row); free(win)
        raise MemoryError()
    try:
        dist[0] = 1.0
        for idx in range(m):
            source = rows[idx]
            for j in range(n):
                row[j] = <double> source[j]
            memset(new, 0, size * sizeof(double))
            for s in range(size):
                ps = dist[s]
                if ps == 0.0:
                    continue
                for j in range(n):
                    q = row[j]
                    if q == 0.0:
                        continue
                    d = <int> ((s / pow3[j]) % 3)
                    t = s + pow3[j] if d < 2 else s
                    new[t] += ps * q
            swap = dist
            dist = new
            new = swap
        for s in range(size):
            ps = dist[s]
            if ps == 0.0:
                continue
            for j in range(n):
                d = <int> ((s / pow3[j]) % 3)
                if d == 1:
                    break
                if d == 0:
                    win[j] += ps
        return [win[j] for j in range(n)]
    finally:
        free(pow3); free(dist); free(new); free(row); free(win)


cdef void _enum_rec(double* rows, int n, int d, double w,
                    int* picks, int* counts, double* win) noexcept:
    cdef int val, i, v
    cdef double q
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
    for val in range(n):
        q = rows[d * n + val]
        if q == 0.0:
            continue
        picks[d] = val
        counts[val] += 1
        _enum_rec(rows, n, d + 1, w * q, picks, counts, win)
        counts[val] -= 1


def enum_profile_payoffs(rows):
    """Expected payoff per player by full enumeration of all n**n outcomes."""
    cdef int n = len(rows)
    cdef int i, j
    cdef double* flat = <double*> malloc(n * n * sizeof(double))
    cdef double* win = <double*> calloc(n, sizeof(double))
    cdef int* picks = <int*> calloc(n, sizeof(int))
    cdef int* counts = <int*> calloc(n, sizeof(int))
    if flat == NULL or win == NULL or picks == NULL or counts == NULL:
        free(flat); free(win); free(picks); free(counts)
        raise MemoryError()
    try:
        for i in range(n):
            source = rows[i]
            for j in range(n):
                flat[i * n + j] = <double> source[j]
        _enum_rec(flat, n, 0, 1.0, picks, counts, win)
        return [win[i] for i in range(n)]
    finally:
        free(flat); free(win); free(picks); free(counts)


cdef int _choose_c(double* cums, int n, double u) noexcept:
    cdef int k
    for k in range(n):
        if u < cums[k]:
            return k
    k = n - 1
    while k > 0 and cums[k] == cums[k - 1]:
        k -= 1
    return k


def simulate_rounds(rows, rounds, seed):
    """Play seeded independent rounds; returns (win counts, no-winner count)."""
    cdef int n = len(rows)
    cdef long long total = rounds
    cdef uint64_t base = <uint64_t> seed
    cdef int i, j, val, v, pick
    cdef long long r
    cdef double acc, u
    cdef double* cums = <double*> malloc(n * n * sizeof(double))
    cdef uint64_t* states = <uint64_t*> malloc(n * sizeof(uint64_t))
    cdef long long* wins = <long long*> calloc(n, sizeof(long long))
    cdef int* picks = <int*> calloc(n, sizeof(int))
    cdef int* counts = <int*> calloc(n, sizeof(int))
    cdef long long no_winner = 0
    if cums == NULL or states == NULL or wins == NULL or picks == NULL or counts == NULL:
        free(cums); free(states); free(wins); free(picks); free(counts)
        raise MemoryError()
    try:
        for i in range(n):
            source = rows[i]
            acc = 0.0
            for j in range(n):
                acc += <double> source[j]
                cums[i * n + j] = acc
            states[i] = _mix64_c(base + (<uint64_t> (i + 1)) * GOLDEN)
        for r in range(total):
            for val in range(n):
                counts[val] = 0
            for i in range(n):
                states[i] = states[i] + GOLDEN
                u = <double> (_mix64_c(states[i]) >> 11) * INV_2_53
                pick = _choose_c(cums + i * n, n, u)
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
        return [wins[i] for i in range(n)], no_winner
    finally:
        free(cums); free(states); free(wins); free(picks); free(counts)
