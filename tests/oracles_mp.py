"""High-precision oracles, in mpmath, for the bound families' float code.

Each oracle evaluates the paper's formula as written, at 60 digits, and
calls nothing in ``ldgm_bounds``, so it is a route independent of the
float rewrites it checks.
"""

import math

import mpmath

_DIGITS = 60


def _entropy(d):
    """Binary entropy in bits of an mpf in (0, 1)."""
    return -(d * mpmath.log(d, 2) + (1 - d) * mpmath.log(1 - d, 2))


def conjecture_rate(degree: int, distortion: float) -> mpmath.mpf:
    """(1 - h(D)) / (1 - S), S = sum_i C(l,i) (1-D)^i D^(l-i) log2(1 + (D/(1-D))^(2i-l)).

    D must lie in (0, 1/2): at 1/2 both sides vanish.
    """
    with mpmath.workdps(_DIGITS):
        d = mpmath.mpf(distortion)
        skew = d / (1 - d)
        total = mpmath.fsum(
            math.comb(degree, i)
            * (1 - d) ** i
            * d ** (degree - i)
            * mpmath.log(1 + skew ** (2 * i - degree), 2)
            for i in range(degree + 1)
        )
        return (1 - _entropy(d)) / (1 - total)


def conjecture_distortion(degree: int, rate: float) -> mpmath.mpf:
    """D in (0, 1/2) where ``conjecture_rate`` equals ``rate``, for 1/l < rate < 1.

    Bisection to a width of 1e-30; the rate decreases in D from 1 toward
    1/l.  The upper end stays 1e-20 below 1/2, where both sides of the
    ratio are about 1e-40 and keep 20 of the 60 digits.
    """
    with mpmath.workdps(_DIGITS):
        target = mpmath.mpf(rate)
        lo, hi = mpmath.mpf(10) ** -40, mpmath.mpf(1) / 2 - mpmath.mpf(10) ** -20
        if not conjecture_rate(degree, hi) < target < conjecture_rate(degree, lo):
            raise ValueError(f"rate {rate!r} not bracketed for degree {degree}")
        while hi - lo > mpmath.mpf(10) ** -30:
            mid = (lo + hi) / 2
            if conjecture_rate(degree, mid) > target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def _root(fn, lo, hi, width=1e-30):
    """Bisection to ``width`` for a root of fn on [lo, hi], where fn changes sign."""
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    negative_lo = fn(lo) < 0
    if negative_lo == (fn(hi) < 0):
        raise ValueError("root not bracketed")
    while hi - lo > width:
        mid = (lo + hi) / 2
        if (fn(mid) < 0) == negative_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def shannon_distortion(rate: float) -> mpmath.mpf:
    """D in [0, 1/2] with h(D) = 1 - R."""
    with mpmath.workdps(_DIGITS):
        target = 1 - mpmath.mpf(rate)
        if target == 0:
            return mpmath.mpf(0)
        if target == 1:
            return mpmath.mpf(1) / 2
        return _root(lambda d: _entropy(d) - target, mpmath.mpf(10) ** -300, mpmath.mpf(1) / 2)


def arc_rate(profile, x) -> mpmath.mpf:
    """The counting arc's rate at x in (0, 1) for a (degree, fraction) profile:
    (1 - h(x/(1+x))) / (1 - log2 prod_i (1 + x^i)^L_i + a(x) log2 x),
    a(x) = sum_i i L_i x^i / (1 + x^i)."""
    with mpmath.workdps(_DIGITS):
        x = mpmath.mpf(x)
        profile = [(d, mpmath.mpf(f)) for d, f in profile]
        log_gf = mpmath.fsum(f * mpmath.log(1 + x**d, 2) for d, f in profile)
        occupancy = mpmath.fsum(d * f * x**d / (1 + x**d) for d, f in profile)
        return (1 - _entropy(x / (1 + x))) / (1 - log_gf + occupancy * mpmath.log(x, 2))


def counting_distortion(profile, rate: float) -> mpmath.mpf:
    """Counting bound of a (degree, fraction) profile at rate R.

    A degree-0 generator adds no codeword, so the bound is that of the
    positive-degree part L+, renormalised, at R (1 - L_0).  The arc
    x -> (x/(1+x) - a(x) R(x), R(x)) with
    R(x) = (1 - h(x/(1+x))) / (1 - log2 prod_i (1 + x^i)^L_i + a(x) log2 x),
    a(x) = sum_i i L_i x^i / (1 + x^i), gives it for R >= 1/avg; below,
    the line through (1/2, 0) and the arc point of rate 1/avg.  At R = 1,
    the arc's x -> 0 end, the bound is 0.  An average of at most 1 leaves
    no arc, only the count of covered checks: the n avg = m R avg edges
    touch at most that many checks, every codeword is 0 on each other
    check, which so misses a uniform source bit half the time, and a
    covered check may cost nothing.
    """
    with mpmath.workdps(_DIGITS):
        scale = mpmath.fsum(mpmath.mpf(f) for d, f in profile if d > 0)
        if scale == 0:
            return mpmath.mpf(1) / 2
        profile = [(d, mpmath.mpf(f) / scale) for d, f in profile if d > 0]
        rate = mpmath.mpf(rate) * scale
        avg = mpmath.fsum(d * f for d, f in profile)
        if avg <= 1:
            covered = rate * avg  # share of the m checks some edge touches, at most
            return (1 - covered) / 2
        if rate >= 1:
            return mpmath.mpf(0)

        x = _root(
            lambda x: arc_rate(profile, x) - max(rate, 1 / avg),
            mpmath.mpf(10) ** -200,
            1 - mpmath.mpf(10) ** -25,
        )
        occupancy = mpmath.fsum(d * f * x**d / (1 + x**d) for d, f in profile)
        if rate >= 1 / avg:
            return x / (1 + x) - occupancy * arc_rate(profile, x)
        return (1 - rate * avg * (1 - 2 * (x / (1 + x) - occupancy / avg))) / 2


def poisson_profile(check_degree: int, rate: float):
    """Poisson(r/R) cut at the smallest degree >= 1 leaving out under 1e-10 of
    the mass, renormalised: the member of the Poisson counting family."""
    with mpmath.workdps(_DIGITS):
        lam = mpmath.mpf(check_degree) / mpmath.mpf(rate)
        pmf = [mpmath.exp(-lam)]
        while len(pmf) < 2 or 1 - mpmath.fsum(pmf) >= mpmath.mpf("1e-10"):
            i = len(pmf)
            pmf.append(pmf[-1] * lam / i)
        total = mpmath.fsum(pmf)
        return tuple((i, p / total) for i, p in enumerate(pmf))


def dwr_slack(check_degree: int, distortion, rate) -> mpmath.mpf:
    """1 - h(D) - R (1 - exp(-(1 - D) r / R)), for D in [0, 1/2] and R > 0."""
    with mpmath.workdps(_DIGITS):
        d, rate = mpmath.mpf(distortion), mpmath.mpf(rate)
        entropy = _entropy(d) if d > 0 else 0
        return 1 - entropy - rate * (1 - mpmath.exp(-(1 - d) * check_degree / rate))


def dwr_distortion(check_degree: int, rate: float) -> mpmath.mpf:
    """D in (0, 1/2) with 1 - h(D) = R (1 - exp(-(1 - D) r / R)); 1/2 at R = 0."""
    with mpmath.workdps(_DIGITS):
        if rate == 0:
            return mpmath.mpf(1) / 2
        return _root(
            lambda d: dwr_slack(check_degree, d, rate), mpmath.mpf(10) ** -300, mpmath.mpf(1) / 2
        )


def dwr_rate(check_degree: int, distortion: float):
    """Smallest R in (0, 1] with dwr_slack(r, D, R) <= 0; 0 at D = 1/2, and
    None when the slack at R = 1 is still positive.

    The root is bisected in log R over [1e-300, 1] to a width of 1e-30, so
    a rate of any size keeps 30 significant digits.
    """
    with mpmath.workdps(_DIGITS):
        if mpmath.mpf(distortion) == mpmath.mpf(1) / 2:
            return mpmath.mpf(0)
        if dwr_slack(check_degree, distortion, 1) > 0:
            return None
        log_rate = _root(
            lambda t: dwr_slack(check_degree, distortion, mpmath.exp(t)), -300 * mpmath.log(10), 0
        )
        return mpmath.exp(log_rate)


def test_channel_rate(degree: int, distortion) -> mpmath.mpf:
    """max over D' in [D, 1/2) of (1 - h(D) - KL(D || D')) / (1 - log2(1 + s^l)),
    s = D'/(1 - D'), with the D' -> 1/2 limit (1 - 2D)/l as a candidate.

    A 16-point grid over D' picks the best cell, and golden-section
    search refines the maximum inside it to a width of 1e-10, where the
    value is off by about the square of that.
    """
    with mpmath.workdps(_DIGITS):
        d = mpmath.mpf(distortion)
        if d == 0:
            return mpmath.mpf(1)
        if d == mpmath.mpf(1) / 2:
            return mpmath.mpf(0)
        base = 1 - _entropy(d)

        def ratio(c):
            divergence = d * mpmath.log(d / c, 2) + (1 - d) * mpmath.log((1 - d) / (1 - c), 2)
            return (base - divergence) / (1 - mpmath.log(1 + (c / (1 - c)) ** degree, 2))

        top = mpmath.mpf(1) / 2 - mpmath.mpf(10) ** -20
        grid = [d + (top - d) * k / 15 for k in range(16)]
        best = max(range(16), key=lambda k: ratio(grid[k]))
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, 15)]
        golden = (mpmath.sqrt(5) - 1) / 2
        left, right = hi - golden * (hi - lo), lo + golden * (hi - lo)
        f_left, f_right = ratio(left), ratio(right)
        while hi - lo > mpmath.mpf(10) ** -10:
            if f_left < f_right:
                lo, left, f_left = left, right, f_right
                right = lo + golden * (hi - lo)
                f_right = ratio(right)
            else:
                hi, right, f_right = right, left, f_left
                left = hi - golden * (hi - lo)
                f_left = ratio(left)
        return max(f_left, f_right, ratio(grid[best]), (1 - 2 * d) / degree)


def test_channel_distortion(degree: int, rate: float) -> mpmath.mpf:
    """D in [0, 1/2] where ``test_channel_rate`` falls to R; 1/2 at R = 0, 0 at R = 1."""
    with mpmath.workdps(_DIGITS):
        rate = mpmath.mpf(rate)
        if rate == 0:
            return mpmath.mpf(1) / 2
        if rate == 1:
            return mpmath.mpf(0)
        return _root(
            lambda d: test_channel_rate(degree, d) - rate,
            mpmath.mpf(10) ** -300,
            mpmath.mpf(1) / 2,
            width=1e-16,
        )
