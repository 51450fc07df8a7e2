"""Numerics shared by every bound: binary entropy, its inverse, Bernoulli
KL divergence, and a bracketing root finder.

Each function takes a float or a numpy array and answers in kind: every
formula is written once, over the functions ``math_of`` picks, which are
numpy's ufuncs for an array and ``math``'s for a float.  The root finder
runs a plain float loop for float arguments and one row-wise bisection
for arrays, with the same tie rule on every row.

All logarithms are base 2, so entropies and divergences are in bits.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "BracketError",
    "binary_entropy",
    "inverse_binary_entropy",
    "kl_bernoulli",
    "bisect_monotone",
    "check_range",
    "math_of",
    "pick",
]


class BracketError(ValueError):
    """A root finder was called on an interval that does not bracket the target."""


class _FloatMath:
    """``math``'s functions under numpy's names."""

    log, log1p, log2, exp, expm1 = math.log, math.log1p, math.log2, math.exp, math.expm1
    sinh, tanh = math.sinh, math.tanh
    maximum, minimum = max, min


def math_of(*values):
    """numpy if any value is an array, else ``math``: a formula written over
    this serves both, and one float costs a fraction of a ufunc call."""
    for value in values:
        if isinstance(value, np.ndarray):
            return np
    return _FloatMath


def pick(mask, a, b):
    """``np.where(mask, a, b)`` that keeps a float condition's answer a float."""
    if isinstance(mask, np.ndarray):
        return np.where(mask, a, b)
    return a if mask else b


def check_range(name: str, value, lo: float, hi: float) -> None:
    """Raise ValueError unless lo <= value <= hi, naming the first value outside."""
    bad = np.flatnonzero(~np.logical_and(value >= lo, value <= hi))
    if bad.size:
        raise ValueError(f"{name} out of range: {np.ravel(value)[bad[0]].item()!r}")


def _entropy(p):
    """Binary entropy in bits; adding (p == 0) turns 0 log 0 into 0 log 1."""
    q, xp = 1.0 - p, math_of(p)
    return 0.0 - p * xp.log2(p + (p == 0.0)) - q * xp.log2(q + (q == 0.0))


def _entropy_deficit(p):
    """1 - h(p) for p in [0, 1/2], keeping its relative precision as p -> 1/2.

    1 - h(p) itself has no digits left once p is within 1e-8 of 1/2.  From
    p = 1/4 on, with u = 1 - 2p (exact there), it is written
    (u log1p(2u/(1-u)) + log1p(-u^2)) / (2 ln 2), which vanishes like u^2
    with no worse than a halving of its leading term.
    """
    xp = math_of(p)
    u = 1.0 - 2.0 * xp.maximum(p, 0.25)
    near_half = (u * xp.log1p(2.0 * u / (1.0 - u)) + xp.log1p(-u * u)) / (2.0 * math.log(2.0))
    return pick(p < 0.25, 1.0 - _entropy(p), near_half)


def binary_entropy(p):
    """Entropy in bits of a Bernoulli(p) variable, with 0*log(0) taken as 0."""
    check_range("probability", p, 0.0, 1.0)
    return _entropy(p)


def inverse_binary_entropy(y, tol: float = 1e-12):
    """Unique p in [0, 1/2] with binary_entropy(p) = y.

    Bisection; the result is within ``tol`` of the exact preimage.
    """
    check_range("entropy", y, 0.0, 1.0)
    p = bisect_monotone(_entropy, 0.0, 0.5, y, tol=tol)
    return pick(y == 0.0, 0.0, pick(y == 1.0, 0.5, p))


def kl_bernoulli(p, q):
    """KL divergence D(Bernoulli(p) || Bernoulli(q)) in bits.

    Terms with p = 0 or p = 1 drop out by the 0*log(0) convention.  A
    degenerate q (0 or 1) is rejected unless p equals it, where the
    divergence is 0.
    """
    check_range("probability", p, 0.0, 1.0)
    check_range("probability", q, 0.0, 1.0)
    finite = (p == q) | ((q > 0.0) & (q < 1.0))
    if not np.all(finite):
        raise ValueError(f"divergence is infinite for q={q!r} with p={p!r}")
    # a ratio 0/0 arises only where p = q, and counts as 1
    r, s, xp = 1.0 - q, 1.0 - p, math_of(p, q)
    return p * xp.log2(p / (q + (q == 0.0)) + (p == 0.0)) + s * xp.log2(
        s / (r + (r == 0.0)) + (s == 0.0)
    )


def bisect_monotone(
    fn: Callable,
    lo,
    hi,
    target,
    tol: float = 1e-12,
):
    """Solve fn(x) = target for a monotone fn on [lo, hi] by bisection.

    Works for increasing and decreasing functions; the direction is read
    off the endpoint values.  Returns the midpoint of the final interval,
    whose width is at most ``tol``.  Raises :class:`BracketError` when the
    endpoint values do not straddle the target.

    When ``lo``, ``hi`` or ``target`` is an array they broadcast to rows,
    ``fn`` maps an array of x to its values row by row, and each row is
    solved as the float loop solves it: the same direction test, bracket
    check and tie rule.  A row stops once its width is at most ``tol`` or
    its midpoint no longer splits it.  The error names the first row that
    is not bracketed.
    """
    if math_of(lo, hi, target) is np:
        return _bisect_rows(fn, lo, hi, target, tol)
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
            f"fn(lo)={float(f_lo)!r}, fn(hi)={float(f_hi)!r}"
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


def _bisect_rows(fn, lo, hi, target, tol):
    """The row-wise form of :func:`bisect_monotone`; every row moves in step."""
    lo, hi, target = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, hi, target)))
    f_lo = fn(lo)
    f_hi = fn(hi)
    increasing = f_lo <= f_hi
    low, high = np.where(increasing, f_lo, f_hi), np.where(increasing, f_hi, f_lo)
    bad = np.flatnonzero(~((lo < hi) & (low <= target) & (target <= high)))
    if bad.size:
        k = bad[0]
        raise BracketError(
            f"row {k}: target {target.flat[k]} not bracketed on [{lo.flat[k]}, {hi.flat[k]}]: "
            f"fn(lo)={f_lo.flat[k]}, fn(hi)={f_hi.flat[k]}"
        )
    while True:
        mid = 0.5 * (lo + hi)
        live = (hi - lo > tol) & (mid > lo) & (mid < hi)
        if not live.any():
            break
        up = (fn(mid) < target) == increasing
        lo = np.where(live & up, mid, lo)
        hi = np.where(live & ~up, mid, hi)
    return 0.5 * (lo + hi)
