"""Numerics shared by every bound: binary entropy, its inverse, Bernoulli
KL divergence, and two bracketing root finders.

Each function takes a float or a numpy array and answers in kind: every
formula is written once, over the functions ``math_of`` picks, which are
numpy's ufuncs for an array and ``math``'s for a float.  So are the root
finders' steps.  ``_newton``, which every bound family and the entropy
inverse solve by, takes Newton steps from a slope the caller writes in
closed form, safeguarded by its bracket, and evaluates only the rows
still live.  ``bisect_monotone`` is plain bisection, which needs no
slope; nothing in the package calls it.

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
    cosh, sinh, tanh, sqrt = math.cosh, math.sinh, math.tanh, math.sqrt
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
    if not isinstance(value, np.ndarray) and lo <= value <= hi:
        return  # a float in range, checked without building arrays
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


def _root_deficit(d):
    """-sqrt(1 - h(D)) for D in [0, 1/2] and its slope log2((1 - D)/D) / (2 sqrt(1 - h(D))).

    The log is log1p((1 - 2D)/D) / ln 2, read as log2(65) at D = 0, where it is infinite; at
    D = 1/2, where the slope is 0/0, it takes its limit sqrt(2/ln 2).  The square root makes
    the double root of 1 - h at D = 1/2 a simple one, which Newton's method solves at its full
    pace: rates near 0 take as few steps as any.
    """
    xp, deficit = math_of(d), _entropy_deficit(d)
    root, odds, flat = xp.sqrt(deficit), (1.0 - 2.0 * d) / (d + (d == 0.0) / 64.0), deficit == 0.0
    rise = xp.log1p(odds) + flat * math.sqrt(2.0 / math.log(2.0))
    return -root, rise / (2.0 * math.log(2.0) * root + flat)


def binary_entropy(p):
    """Entropy in bits of a Bernoulli(p) variable, with 0*log(0) taken as 0."""
    check_range("probability", p, 0.0, 1.0)
    return _entropy(p)


def inverse_binary_entropy(y):
    """Unique p in [0, 1/2] with binary_entropy(p) = y.

    Solves -sqrt(1 - h(p)) = -sqrt(1 - y) by :func:`_newton` on
    :func:`_root_deficit`, as ``shannon_distortion`` solves at rate 1 - y;
    the result is within 1e-12 of the exact preimage.
    """
    check_range("entropy", y, 0.0, 1.0)
    target = -math_of(y).sqrt(1.0 - y)
    p = _newton(lambda d, rows: _root_deficit(d), 0.0, 0.5, target, relative=True)
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
    off the endpoint values.  Returns the midpoint of the final bracket,
    whose width is at most ``tol`` or whose midpoint no longer splits it.
    Raises :class:`BracketError` when the endpoint values do not straddle
    the target.  An x with fn(x) < target replaces the lower end of an
    increasing fn and the upper end of a decreasing one, so on a plateau
    at the target the lowest root, or the highest, is found.  Nothing in
    the package solves by it: it needs no slope, which makes it the tests'
    second route to the roots ``_newton`` finds.

    When ``lo``, ``hi`` or ``target`` is an array they broadcast to rows,
    ``fn`` maps an array of x to its values row by row, and each row
    takes the float solve's steps until its own stop, so where fn's float
    and array values agree, so do the results, bit for bit.  The error
    names the first row that is not bracketed.
    """
    rows = math_of(lo, hi, target) is np
    if rows:
        lo, hi, target = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, hi, target)))
    elif not lo < hi:
        raise ValueError(f"empty bracket: [{lo!r}, {hi!r}]")
    f_lo, f_hi = fn(lo), fn(hi)
    increasing = f_lo <= f_hi
    low, high = pick(increasing, f_lo, f_hi), pick(increasing, f_hi, f_lo)
    bracketed = (lo < hi) & (low <= target) & (target <= high)
    if not (np.all if rows else bool)(bracketed):
        k = np.flatnonzero(~np.asarray(bracketed))[0]
        t, a, b, fa, fb = (np.ravel(v)[k].item() for v in (target, lo, hi, f_lo, f_hi))
        where = f"row {k}: " if rows else ""
        raise BracketError(
            f"{where}target {t!r} not bracketed on [{a!r}, {b!r}]: fn(lo)={fa!r}, fn(hi)={fb!r}"
        )
    while True:
        mid = 0.5 * (lo + hi)
        live = (hi - lo > tol) & (mid > lo) & (mid < hi)
        if not (live.any() if rows else live):
            return mid if rows else float(mid)
        below = fn(mid) < target  # mid replaces the end on its side of the target
        lo, hi = pick(live & (below == increasing), mid, lo), pick(live & (below != increasing), mid, hi)


def _newton(value, lo: float, hi: float, target, relative=False, start=None):
    """x in [lo, hi] where an increasing value meets ``target``, by Newton's method in a bracket.

    ``value(x, rows)`` gives the value and its slope at x for the rows given, an index array,
    or None for a float ``target``; x is a float at lo, hi and ``start``.  From ``start`` or
    lo, each step moves the end on its side of the target there, and takes the Newton point
    if the slope is positive and the point is in the bracket, else the midpoint.  A row stops
    at a step of at most 1e-12 (times |x| if ``relative``), a residual of 0, a bracket a
    tenth of that wide or bisection's count of steps.  Each evaluation takes the live rows
    only; the error names the first row whose ends do not straddle its target.
    """
    rows = np.arange(target.size) if isinstance(target, np.ndarray) else None
    (f, slope), (f_hi, _) = value(lo, rows), value(hi, rows)
    if not (np.all if rows is not None else bool)((f <= target) & (f_hi >= target)):
        t, fa, fb = (np.ravel(v) for v in np.broadcast_arrays(target, f, f_hi))
        k = int(np.flatnonzero(~((fa <= t) & (fb >= t)))[0])
        raise BracketError(
            f"{f'row {k}: ' if rows is not None else ''}target {float(t[k])!r} not bracketed on "
            f"[{lo!r}, {hi!r}]: fn(lo)={float(fa[k])!r}, fn(hi)={float(fb[k])!r}"
        )
    if start is not None:
        f, slope = value(start, rows)
    f = f - target
    u, a, b = (lo if start is None else start) + 0.0 * f, lo + 0.0 * f, hi + 0.0 * f
    x = None if rows is None else np.empty(rows.size)
    cap = math.ceil(math.log2((hi - lo) / 1e-13))  # bisection's bound on the steps
    for step in range(cap + 1):
        a, b, usable = pick(f < 0.0, u, a), pick(f > 0.0, u, b), slope > 0.0
        newton, scale = u - f / pick(usable, slope, 1.0), (1e-12 * abs(u) if relative else 1e-12)
        small = usable & (abs(newton - u) <= scale)
        stop = (f == 0.0) | small | (b - a <= 0.1 * scale) | (step == cap)
        u = pick(f == 0.0, u, pick(usable & (a <= newton) & (newton <= b), newton, 0.5 * (a + b)))
        if rows is None and stop:
            return u
        if rows is not None:
            x[rows[stop]], live = u[stop], ~stop
            if not live.any():
                return x
            rows, u, a, b, target = rows[live], u[live], a[live], b[live], target[live]
        f, slope = value(u, rows)
        f = f - target
