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
