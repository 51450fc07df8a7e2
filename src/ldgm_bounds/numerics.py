"""Scalar numerics shared by every bound: binary entropy, its inverse,
Bernoulli KL divergence, and a bracketing root finder.

All logarithms are base 2, so entropies and divergences are in bits.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = [
    "BracketError",
    "binary_entropy",
    "inverse_binary_entropy",
    "kl_bernoulli",
    "bisect_monotone",
]


class BracketError(ValueError):
    """A root finder was called on an interval that does not bracket the target."""


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) variable, with 0*log(0) taken as 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def inverse_binary_entropy(y: float, tol: float = 1e-12) -> float:
    """Unique p in [0, 1/2] with binary_entropy(p) = y.

    Bisection; the result is within ``tol`` of the exact preimage.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"entropy out of range: {y!r}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    return bisect_monotone(binary_entropy, 0.0, 0.5, y, tol=tol)


def kl_bernoulli(p: float, q: float) -> float:
    """KL divergence D(Bernoulli(p) || Bernoulli(q)) in bits.

    Terms with p = 0 or p = 1 drop out by the 0*log(0) convention.  A
    degenerate q (0 or 1) is rejected unless p equals it, where the
    divergence is 0.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p!r}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"probability out of range: {q!r}")
    if p == q:
        return 0.0
    if q == 0.0 or q == 1.0:
        raise ValueError(f"divergence is infinite for q={q!r} with p={p!r}")
    total = 0.0
    if p > 0.0:
        total += p * math.log2(p / q)
    if p < 1.0:
        total += (1.0 - p) * math.log2((1.0 - p) / (1.0 - q))
    return total


def bisect_monotone(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    tol: float = 1e-12,
) -> float:
    """Solve fn(x) = target for a monotone fn on [lo, hi] by bisection.

    Works for increasing and decreasing functions; the direction is read
    off the endpoint values.  Returns the midpoint of the final interval,
    whose width is at most ``tol``.  Raises :class:`BracketError` when the
    endpoint values do not straddle the target.
    """
    if not lo < hi:
        raise ValueError(f"empty bracket: [{lo!r}, {hi!r}]")
    f_lo = fn(lo)
    f_hi = fn(hi)
    increasing = f_lo <= f_hi
    if increasing:
        bracketed = f_lo <= target <= f_hi
    else:
        bracketed = f_hi <= target <= f_lo
    if not bracketed:
        raise BracketError(
            f"target {target!r} not bracketed on [{lo!r}, {hi!r}]: "
            f"fn(lo)={f_lo!r}, fn(hi)={f_hi!r}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval no longer splittable in floats
            break
        f_mid = fn(mid)
        if (f_mid < target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
