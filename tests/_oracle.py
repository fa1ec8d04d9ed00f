"""Independent brute-force oracle and reference kernels used by the tests.

The brute-force functions enumerate joint outcomes directly with their own
winner rule, so they share no code with any of the package's computation
paths. The generating-function oracle scores identical opponents in
50-digit decimal arithmetic by an algorithm apart from the package's
dynamic program, and the Poisson-limit oracle gives the equilibrium that
the exact game's approaches as n grows, in closed form. The scalar
reference kernels and the repeated-product closed form at the end are
plain loops that the package's kernels and closed-form model must agree
with; they import nothing from the package either. The random-input
helpers only draw test inputs; ``random_profile`` wraps its rows in the
package's ``StrategyProfile``.
"""

import itertools
import math
from decimal import Decimal, localcontext

from lupi import StrategyProfile


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


def egf_win_probs(probs):
    """Win probability of every pure choice against n - 1 opponents who all play ``probs``.

    With m = n - 1 opponents and T_j = p_j + ... + p_{n-1}, choice j wins
    with probability m! [x^m] prod_{i<j} (e^{p_i x} - p_i x) * e^{T_{j+1} x}:
    each integer below j takes any count of opponents but one, j takes none
    and the integers above take the rest. Series are truncated at degree m
    and multiplied in 50-digit decimal arithmetic.
    """
    n = len(probs)
    m = n - 1
    with localcontext() as ctx:
        ctx.prec = 50
        p = [Decimal(v) for v in probs]

        def exp_series(a):
            # c_k = a**k / k!, built up because Decimal(0) ** 0 raises
            coeffs = [Decimal(1)]
            for k in range(1, m + 1):
                coeffs.append(coeffs[-1] * a / k)
            return coeffs

        below = [Decimal(1)] + [Decimal(0)] * m
        win = []
        for j in range(n):
            above = exp_series(sum(p[j + 1:], Decimal(0)))
            coeff = sum(below[k] * above[m - k] for k in range(m + 1))
            win.append(float(coeff * math.factorial(m)))
            factor = exp_series(p[j])
            factor[1] = Decimal(0)
            below = [sum(below[i] * factor[k - i] for i in range(k + 1)) for k in range(m + 1)]
    return win


def poisson_equilibrium(N):
    """Symmetric equilibrium of the game with a Poisson(N) number of players.

    With a Poisson(N) population on strategy p, choice k wins with
    probability e^(-N p_k) A_k, where A_k = prod_{j<k} (1 - N p_j e^(-N p_j))
    (Myerson 1998; Ostling, Wang, Chou and Camerer 2011). Setting
    x_k = A_k / v on the support gives p_k = ln(x_k) / N and
    x_{k+1} = x_k - ln(x_k), which falls to 1, so the support is infinite.
    The A_k telescope to A_inf = 1 - N v, and A_inf = v, so v = 1/(N+1) and
    x_0 = N + 1: no root search. Run in 50-digit decimal arithmetic until
    x_k is within 1e-40 of 1 (the weights left sum to (x_k - 1)/N), then
    rounded to floats.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(N + 1)
        probs = []
        while x - 1 > Decimal("1e-40"):
            step = x.ln()
            probs.append(float(step / N))
            x -= step
    return probs


def poisson_win_probs(probs, N):
    """Win probability e^(-N p_k) A_k of each choice against a Poisson(N) population on ``probs``.

    A_k = prod_{j<k} (1 - N p_j e^(-N p_j)) is the chance that no integer
    below k has exactly one player. Evaluated in 50-digit decimal arithmetic.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        none_below = Decimal(1)
        win = []
        for p in probs:
            load = N * Decimal(p)
            alone = (-load).exp()
            win.append(float(alone * none_below))
            none_below *= 1 - load * alone
    return win


def random_strategy(rng, n, zeros=False):
    while True:
        raw = [0.0 if zeros and rng.random() < 0.3 else rng.random() for _ in range(n)]
        total = sum(raw)
        if total > 1e-9:
            return tuple(v / total for v in raw)


def random_profile(rng, n, zeros=False):
    return StrategyProfile(tuple(random_strategy(rng, n, zeros=zeros) for _ in range(n)))


def random_interior(rng, n, margin=0.05):
    raw = [margin + rng.random() for _ in range(n)]
    total = sum(raw)
    return tuple(v / total for v in raw)


# ---------------------------------------------------------------------------
# scalar reference kernels
#
# A loop over 3**n capped-count states for ``win_probs_distinct`` and a
# loop that plays one round at a time, with float draws and its own copy
# of the SplitMix64 generator and the float inverse-CDF choice, for
# ``lupi._kernels_py.simulate_rounds``. The sampler, whose one pick rule
# is the uint64 thresholds of ``_thresholds`` and which finds winners in
# bitmasks, must return exactly the round loop's counts; the
# distinct-opponent kernels, a dynamic program over subsets of players,
# must agree with the state loop to rounding (``tests/test_kernels.py``).

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
    """Reference: the capped-count fold as a scalar loop over 3**n states."""
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
    """Reference: seeded rounds played one at a time."""
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


# ---------------------------------------------------------------------------
# closed-form reference
#
# ``lupi.model._closed_form_values`` with each power written out as m
# multiplications; the model takes each power with one ``**`` and must
# agree with this to rounding (``tests/test_model.py``).


def _product_power(base, m):
    out = 1.0
    for _ in range(m):
        out *= base
    return out


def repeated_product_closed_form_values(p):
    """Closed-form payoff of each pure choice against opponents who all play ``p``."""
    n = len(p)
    m = n - 1
    values = [_product_power(1.0 - p[0], m)]
    prefix = p[0]
    below = 0.0
    for k in range(1, n - 1):
        prefix += p[k]
        below += _product_power(p[k - 1], m)
        values.append(_product_power(1.0 - prefix, m) + below)
    values.append(below + _product_power(p[n - 2], m))
    return values
