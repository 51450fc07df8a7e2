"""References computed apart from the program under test.

Nothing here imports ``ldgm_bounds``.  Two kinds of reference:

* Exact ones for concrete codes, in integers and fractions: GF(2) rank,
  the distance histogram from a breadth-first search over the 2^(m-k)
  syndromes, the weight enumerator through MacWilliams from the smaller
  of C and its dual, and the coefficient floor from an integer
  polynomial product.
* Curve ones, for every bound family: float64 vectorised solves used on
  every CSV row, and mpmath solves at 30 digits used on a sample of rows
  (they also check the float solves).

A degree profile is a tuple of (degree, fraction) pairs.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# exact references for concrete codes
# ---------------------------------------------------------------------------


def masks_of(generators) -> list[int]:
    """Generator check sets as integer bitmasks."""
    return [sum(1 << j for j in checks) for checks in generators]


def gf2_rref(masks) -> tuple[list[int], list[int]]:
    """Reduced row echelon basis of the span of ``masks`` and its pivot bits.

    Each pivot is the lowest set bit of its row, and no other row has it set.
    """
    rows: list[int] = []
    pivots: list[int] = []
    for mask in masks:
        for row, pivot in zip(rows, pivots):
            if mask >> pivot & 1:
                mask ^= row
        if mask:
            pivot = (mask & -mask).bit_length() - 1
            rows = [row ^ mask if row >> pivot & 1 else row for row in rows]
            rows.append(mask)
            pivots.append(pivot)
    return rows, pivots


def syndrome_columns(rows, pivots, m: int) -> list[int]:
    """Syndrome of each unit vector e_j, as an (m - k)-bit integer.

    The syndrome of y is y reduced by the basis, read on the non-pivot
    positions; it is linear in y and zero exactly on the code.
    """
    free = [j for j in range(m) if j not in set(pivots)]
    slot = {j: s for s, j in enumerate(free)}

    def compress(word: int) -> int:
        return sum(1 << slot[j] for j in free if word >> j & 1)

    pivot_row = dict(zip(pivots, rows))
    return [
        compress(pivot_row[j] ^ (1 << j)) if j in pivot_row else 1 << slot[j]
        for j in range(m)
    ]


def distance_histogram(masks, m: int) -> list[int]:
    """Number of source words at each distance 0..m from their nearest codeword.

    A word's distance is the weight of the coset leader of its syndrome; a
    breadth-first search from syndrome 0, one flipped coordinate per level,
    finds every leader weight.  Each coset holds 2^k words.
    """
    rows, pivots = gf2_rref(masks)
    k = len(rows)
    cols = np.array(syndrome_columns(rows, pivots, m), dtype=np.int64)
    level = np.full(1 << (m - k), -1, dtype=np.int16)
    level[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    counts = [1]
    while frontier.size:
        reached = (frontier[:, None] ^ cols[None, :]).ravel()
        level[reached[level[reached] < 0]] = len(counts)
        frontier = np.flatnonzero(level == len(counts))
        counts.append(int(frontier.size))
    counts.pop()  # the last level is empty
    counts += [0] * (m + 1 - len(counts))
    return [c << k for c in counts]


def _span_weights(rows, m: int) -> list[int]:
    """Weight distribution of the span of linearly independent ``rows``."""
    words = np.zeros(1, dtype=np.int64)
    for row in rows:
        words = np.concatenate([words, words ^ row])
    weights = np.zeros(words.shape, dtype=np.int64)
    for j in range(m):
        weights += (words >> j) & 1
    return [int(c) for c in np.bincount(weights, minlength=m + 1)]


@functools.lru_cache(maxsize=None)
def krawtchouk(m: int) -> tuple[tuple[int, ...], ...]:
    """Table K[w][j] = sum_i (-1)^i C(j, i) C(m - j, w - i)."""
    return tuple(
        tuple(
            sum((-1) ** i * math.comb(j, i) * math.comb(m - j, w - i) for i in range(min(j, w) + 1))
            for j in range(m + 1)
        )
        for w in range(m + 1)
    )


def code_weight_distribution(masks, m: int) -> tuple[int, list[int]]:
    """Rank k and the weight distribution A_w of the code spanned by ``masks``.

    Enumerates whichever of C and its dual has the smaller dimension; from
    the dual it applies MacWilliams, A_w = 2^-(m-k) sum_j B_j K_w(j).
    """
    rows, pivots = gf2_rref(masks)
    k = len(rows)
    if k <= m - k:
        return k, _span_weights(rows, m)
    cols = syndrome_columns(rows, pivots, m)
    dual_rows = [
        sum(1 << j for j in range(m) if cols[j] >> s & 1) for s in range(m - k)
    ]
    dual = _span_weights(dual_rows, m)
    weights = []
    for row in krawtchouk(m):
        total = sum(b * kw for b, kw in zip(dual, row))
        quotient, remainder = divmod(total, 1 << (m - k))
        if remainder:
            raise ArithmeticError("MacWilliams sum not divisible by |C-dual|")
        weights.append(quotient)
    return k, weights


def index_word_enumerator(masks, m: int) -> list[int]:
    """Index words per codeword weight: 2^(n - k) A_w, multiplicity included."""
    k, weights = code_weight_distribution(masks, m)
    return [a << (len(masks) - k) for a in weights]


def coefficient_floor(degrees) -> list[int]:
    """Prefix sums of the coefficients of prod_g (1 + x^deg(g))."""
    poly = [1]
    for d in degrees:
        grown = poly + [0] * d
        for i, c in enumerate(poly):
            grown[i + d] += c
        poly = grown
    return list(itertools.accumulate(poly))


def verify_grid(steps: int) -> list[float]:
    """Distortion grid of ``verify --d-grid-steps steps``: k / (2 (steps - 1))."""
    return [k / (2 * (steps - 1)) for k in range(steps)]


def verify_reference(generators, m: int, steps: int = 26) -> dict:
    """Exact expected content of one ``verify`` report line, bound excepted.

    The chain check covers radius floor(d m + 1e-9) at each grid d, the
    documented reading of a gridded distortion as a radius.
    """
    masks = masks_of(generators)
    hist = distance_histogram(masks, m)
    total = 1 << m
    weighted = sum(d * c for d, c in enumerate(hist))
    worst = Fraction(0)
    for d in verify_grid(steps):
        radius = math.floor(d * m + 1e-9)
        worst = max(worst, Fraction(d) * (total - sum(hist[: radius + 1])))
    cumulative = list(itertools.accumulate(index_word_enumerator(masks, m)))
    floor = coefficient_floor([len(g) for g in generators])
    slack = min(cumulative[w] - floor[min(w, len(floor) - 1)] for w in range(m + 1))
    optimal = Fraction(weighted, m * total)
    return {"optimal": optimal, "chain_margin": optimal - worst / total, "enum_slack": slack}


# ---------------------------------------------------------------------------
# curve references in float64, vectorised over rows
# ---------------------------------------------------------------------------

_FLOAT_STEPS = 80


def _entropy(p):
    p = np.clip(p, 1e-300, 1.0 - 1e-16)
    return -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)


def _bisect(fn, lo, hi, steps: int = _FLOAT_STEPS):
    """Vectorised bisection; fn(lo) and fn(hi) must differ in sign per row."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    f_lo = fn(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        same = np.sign(fn(mid)) == np.sign(f_lo)
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def shannon_float(rates):
    rates = np.asarray(rates, dtype=float)
    out = _bisect(lambda p: _entropy(p) - (1.0 - rates), np.zeros_like(rates), np.full_like(rates, 0.5))
    return np.where(rates >= 1.0, 0.0, np.where(rates <= 0.0, 0.5, out))


def _arc_rate(degrees, fractions, x):
    """Arc rate and mean occupancy at x, one row per rate.

    ``fractions`` is one profile over ``degrees``, or one profile per row.
    """
    power = x[:, None] ** degrees
    log_gf = np.sum(fractions * np.where(degrees == 0, 1.0, np.log2(1.0 + power)), axis=1)
    occ = np.sum(degrees * fractions * power / (1.0 + power), axis=1)
    return (1.0 - _entropy(x / (1.0 + x))) / (1.0 - log_gf + occ * np.log2(x)), occ


def _counting_rows(degrees, fractions, rates):
    """Counting bound: the arc above rate 1/avg, the segment to (1/2, 0) below."""
    avg = np.sum(degrees * fractions, axis=-1)

    def solve(target):
        x = _bisect(
            lambda x: _arc_rate(degrees, fractions, x)[0] - target,
            np.full_like(target, 1e-12),
            np.full_like(target, 1.0 - 1e-12),
        )
        rate, occ = _arc_rate(degrees, fractions, x)
        return x, occ, rate

    x, occ, rate = solve(np.maximum(rates, 1.0 / avg))
    arc = x / (1.0 + x) - occ * rate
    xa, occa, _ = solve(np.broadcast_to(1.0 / avg, rates.shape).copy())
    share = xa / (1.0 + xa)
    segment = 0.5 * (1.0 - rates * avg * (1.0 - 2.0 * (share - occa / avg)))
    return np.where(rates >= 1.0 / avg, arc, segment)


def counting_float(profile, rates):
    degrees = np.array([d for d, _ in profile], dtype=float)
    fractions = np.array([f for _, f in profile])
    return _counting_rows(degrees, fractions, np.asarray(rates, dtype=float))


def poisson_profile_float(check_degree: int, rate: float) -> list[float]:
    """Truncated, renormalised Poisson(check_degree / rate), pmf in log space.

    Truncated at the smallest degree >= 1 that leaves out less than 1e-10.
    """
    lam = check_degree / rate
    pmf, kept = [], 0.0
    while True:
        pmf.append(math.exp(-lam + len(pmf) * math.log(lam) - math.lgamma(len(pmf) + 1)))
        kept += pmf[-1]
        if 1.0 - kept < 1e-10 and len(pmf) >= 2:
            break
    total = math.fsum(pmf)
    return [p / total for p in pmf]


def poisson_counting_float(check_degree: int, rates):
    rates = np.asarray(rates, dtype=float)
    pmfs = [poisson_profile_float(check_degree, r) for r in rates]
    fractions = np.zeros((len(pmfs), max(len(p) for p in pmfs)))
    for row, pmf in zip(fractions, pmfs):
        row[: len(pmf)] = pmf
    return _counting_rows(np.arange(fractions.shape[1], dtype=float), fractions, rates)


def dwr_float(check_degree: int, rates):
    rates = np.asarray(rates, dtype=float)
    safe = np.maximum(rates, 1e-300)

    def slack(d):
        return 1.0 - _entropy(d) - safe * (1.0 - np.exp(-(1.0 - d) * check_degree / safe))

    out = _bisect(slack, np.zeros_like(rates), np.full_like(rates, 0.5))
    return np.where(rates <= 0.0, 0.5, out)


def _conjecture_rate(degree: int, d):
    skew = d / (1.0 - d)
    total = 0.0
    for i in range(degree + 1):
        power = 2 * i - degree
        term = power * np.log2(skew) + np.log2(1.0 + skew**-power) if power < 0 else np.log2(1.0 + skew**power)
        total = total + math.comb(degree, i) * (1.0 - d) ** i * d ** (degree - i) * term
    return (1.0 - _entropy(d)) / (1.0 - total)


CONJECTURE_CAP = 0.5 - 1e-5


def conjecture_float(degree: int, rates):
    """Conjectured curve; saturates at 1/2 where the crossing passes the cap."""
    rates = np.asarray(rates, dtype=float)
    cap = np.full_like(rates, CONJECTURE_CAP)
    out = _bisect(lambda d: _conjecture_rate(degree, d) - rates, np.full_like(rates, 1e-300), cap)
    saturated = (rates <= 1.0 / degree) | (_conjecture_rate(degree, cap) > rates)
    return np.where(saturated, 0.5, out)


# ---------------------------------------------------------------------------
# curve references in mpmath, one row at a time
# ---------------------------------------------------------------------------

_MP_DPS = 30
_MP_TOL = 1e-26


def _mp():
    import mpmath

    mpmath.mp.dps = _MP_DPS
    return mpmath


def _mp_solve(fn, lo, hi):
    """Root of fn on [lo, hi], where fn changes sign, by the Illinois method."""
    f_lo, f_hi = fn(lo), fn(hi)
    if (f_lo < 0) == (f_hi < 0):
        raise ArithmeticError("root not bracketed")
    side = 0
    for _ in range(500):
        mid = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        f_mid = fn(mid)
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
            if side == -1:
                f_hi /= 2
            side = -1
        else:
            hi, f_hi = mid, f_mid
            if side == 1:
                f_lo /= 2
            side = 1
        if hi - lo < _MP_TOL or f_mid == 0:
            return mid
    raise ArithmeticError("Illinois iteration did not converge")


def _mp_entropy(mp, p):
    if p <= 0 or p >= 1:
        return mp.mpf(0)
    return -p * mp.log(p, 2) - (1 - p) * mp.log(1 - p, 2)


def shannon_mp(rate: float) -> float:
    mp = _mp()
    target = 1 - mp.mpf(rate)
    if target <= 0:
        return 0.0
    return float(_mp_solve(lambda p: _mp_entropy(mp, p) - target, mp.mpf(0), mp.mpf(0.5)))


def counting_mp(profile, rate: float) -> float:
    mp = _mp()
    profile = [(d, mp.mpf(f)) for d, f in profile]
    avg = sum(d * f for d, f in profile)

    def arc(x):
        log_gf = sum(f * (1 if d == 0 else mp.log(1 + x**d, 2)) for d, f in profile)
        occ = sum(d * f * x**d / (1 + x**d) for d, f in profile if d)
        return (1 - _mp_entropy(mp, x / (1 + x))) / (1 - log_gf + occ * mp.log(x, 2)), occ

    def point(target):
        x = _mp_solve(lambda x: arc(x)[0] - target, mp.mpf(10) ** -25, 1 - mp.mpf(10) ** -25)
        r, occ = arc(x)
        return x, occ, r

    rate = mp.mpf(rate)
    if rate >= 1 / avg:
        x, occ, r = point(rate)
        return float(x / (1 + x) - occ * r)
    x, occ, _ = point(1 / avg)
    share = x / (1 + x)
    return float((1 - rate * avg * (1 - 2 * (share - occ / avg))) / 2)


def poisson_profile_mp(check_degree: int, rate: float):
    """Truncation and renormalisation as the program defines them, in mpmath."""
    mp = _mp()
    lam = mp.mpf(check_degree) / mp.mpf(rate)
    pmf, kept, i = [], mp.mpf(0), 0
    while True:
        pmf.append(mp.exp(-lam + i * mp.log(lam) - mp.loggamma(i + 1)))
        kept += pmf[-1]
        if 1 - kept < mp.mpf("1e-10") and i >= 1:
            break
        i += 1
    return tuple((d, p / kept) for d, p in enumerate(pmf))


def poisson_counting_mp(check_degree: int, rate: float) -> float:
    return counting_mp(poisson_profile_mp(check_degree, rate), rate)


def dwr_mp(check_degree: int, rate: float) -> float:
    mp = _mp()
    rate = mp.mpf(rate)
    if rate == 0:
        return 0.5

    def slack(d):
        return 1 - _mp_entropy(mp, d) - rate * (1 - mp.exp(-(1 - d) * check_degree / rate))

    return float(_mp_solve(slack, mp.mpf(0), mp.mpf(0.5)))


def conjecture_mp(degree: int, rate: float) -> float:
    mp = _mp()
    rate = mp.mpf(rate)

    def rate_bound(d):
        skew = d / (1 - d)
        total = sum(
            math.comb(degree, i) * (1 - d) ** i * d ** (degree - i) * mp.log(1 + skew ** (2 * i - degree), 2)
            for i in range(degree + 1)
        )
        return (1 - _mp_entropy(mp, d)) / (1 - total)

    cap = mp.mpf(CONJECTURE_CAP)
    if rate <= mp.mpf(1) / degree or rate_bound(cap) > rate:
        return 0.5
    return float(_mp_solve(lambda d: rate_bound(d) - rate, mp.mpf(10) ** -25, cap))
