"""Independent brute-force oracle and reference kernels used by the tests.

The brute-force functions enumerate joint outcomes directly with their own
winner rule, so they share no code with any of the package's computation
paths. The generating-function oracle scores identical opponents in
50-digit decimal arithmetic by an algorithm apart from the package's
dynamic program, and gives a symmetric strategy's gain in the same
arithmetic; the Poisson-limit oracle gives the equilibrium that
the exact game's approaches as n grows, in closed form. The scalar
reference kernels and the repeated-product closed form at the end are
plain loops that the package's kernels and closed-form model must agree
with; they import nothing from the package either. The random-input
helpers only draw test inputs; ``random_profile`` wraps its rows in the
package's ``StrategyProfile``. ``EXACT4_POINT``, ``EXACT4_VALUE`` and
``EXACT4_P1_POLY`` are data: the exact four-player equilibrium and its payoff
to 40 digits, and the integer polynomial whose one real root is its first
weight.
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
    return [float(w) for w in _egf_wins(probs)]


def egf_gain(probs):
    """Gain of the best pure choice over ``probs`` against n - 1 opponents who all play it.

    max_j win_j - sum_j p_j win_j, with the win probabilities of
    ``egf_win_probs`` before they are rounded to floats, each float weight
    taken exactly (``Decimal(float)``) and the result kept in 50-digit decimal.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        win = _egf_wins(probs)
        return max(win) - sum((Decimal(p) * w for p, w in zip(probs, win)), Decimal(0))


def _egf_wins(probs):
    """``egf_win_probs`` as 50-digit decimals."""
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
            win.append(coeff * math.factorial(m))
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


# ---------------------------------------------------------------------------
# the exact game's four-player symmetric equilibrium, to 40 digits
#
# Write the common strategy as (a, b, c, 1 - a - b - c) against 3 opponents:
# win_1 = (1 - a)**3, win_2 = (1 - b)**3 - 3a(1 - a - b)**2,
# win_4 = a**3 + b**3 + c**3, and win_3 by brute force over the 4**3
# opponent picks. The lex Groebner basis of {win_1 - win_2, win_1 - win_3,
# win_1 - win_4} in the order (c, b, a) is in shape position: c and b are
# linear in themselves, and a is the one root in [0, 1] of an irreducible
# factor of degree 27 (leading coefficient 2977189198336, constant
# -1792430668). The point below is that root carried to 80 digits (sympy
# 1.14) and cut to 40; v is the common win probability, also of degree 27.
# The tests check it in 50-digit decimal through ``brute_winner`` alone.

EXACT4_POINT = (
    "0.4477365732473044808625203294375730730209",
    "0.4248727049452075065134090340705862678716",
    "0.1256548883498455244577461347243791930002",
    "0.001735833457642488166324501767461466107263",
)
EXACT4_VALUE = "0.168437524489931234459568022623389976638159"

# The 28 integer coefficients of p1's polynomial above, highest power first.
# Recipe (sympy 1.14, about 20 s): with a, b, c symbols and win_3 built from
# ``brute_winner`` over the 4**3 picks, take the element free of b and c in
# groebner([win_1 - win_2, win_1 - win_3, win_1 - win_4], c, b, a, order="lex"),
# then the one factor of ``factor_list`` of that element, leading coefficient
# positive. Its only real root is p1; no coefficient exceeds 57 bits.
EXACT4_P1_POLY = (
    2977189198336, -33627720703104, 200491471505952, -827271056298960, 2628404659705248,
    -6799636944181728, 14810679475392690, -27756937113891597, 45418695483106575,
    -65546002903608471, 84006214369216056, -96052421376973458, 98240696214822648,
    -89971302771281718, 73744498709551044, -53988410269119015, 35178029658795843,
    -20293668070940007, 10290828165958209, -4543958432952540, 1725747831970101,
    -554794786320309, 147809837350935, -31704219034713, 5251076049222, -629008801182,
    48395628036, -1792430668,
)
