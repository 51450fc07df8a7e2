"""Numerics shared by every bound: binary entropy, its inverse, Bernoulli
KL divergence, and a bracketing root finder.

Each function takes a float or a numpy array and answers in kind: every
formula is written once, over the functions ``math_of`` picks, which are
numpy's ufuncs for an array and ``math``'s for a float.  So is the root
finder's step, an interpolating one safeguarded to bisection's pace: an
array solves every row at once, each row stopping where a float solve of
it would.

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
    frexp, ldexp, rint = math.frexp, math.ldexp, round
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


def binary_entropy(p):
    """Entropy in bits of a Bernoulli(p) variable, with 0*log(0) taken as 0."""
    check_range("probability", p, 0.0, 1.0)
    return _entropy(p)


def inverse_binary_entropy(y, tol: float = 1e-12):
    """Unique p in [0, 1/2] with binary_entropy(p) = y.

    Found by :func:`bisect_monotone`; the result is within ``tol`` of the
    exact preimage.
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
    """Solve fn(x) = target for a monotone fn on [lo, hi] to within ``tol``.

    Works for increasing and decreasing functions; the direction is read
    off the endpoint values.  Returns the midpoint of the final bracket,
    whose width is at most ``tol`` or whose midpoint no longer splits it.
    Raises :class:`BracketError` when the endpoint values do not straddle
    the target.  An x with fn(x) < target replaces the lower end of an
    increasing fn and the upper end of a decreasing one, so on a plateau
    at the target the lowest root, or the highest, is found.

    It keeps the name and contract of the bisection it replaced, as the
    callers, tests and the benchmark's tracer (``perfbench/tracing.py``)
    know it by that name.  Each step evaluates fn at Chandrupatla's
    inverse-quadratic point through both ends and the end last dropped
    (*Adv. Eng. Software* 28, 1997) where his test finds it safe or an end
    is a root, else at the midpoint.  As in ITP (Oliveira & Takahashi,
    *ACM TOMS* 47, 2020) the point moves toward the midpoint by up to
    0.2 w^2/w0 (w the width, w0 the first), so the bracket closes from
    both sides; it is rounded to the grid of tol/2 from the lower end,
    kept a grid step inside, and held within ITP's radius of the midpoint.
    So a smooth fn takes about ten steps, and no solve more than
    ceil(log2((hi - lo)/tol)) + 1, one beyond bisection, once tol is at
    least 4 ulps of the ends.

    When ``lo``, ``hi`` or ``target`` is an array they broadcast to rows,
    ``fn`` maps an array of x to its values row by row, and each row takes
    the float solve's steps until its own stop: where fn's float and array
    values agree, so do the results, bit for bit; where they differ in the
    last bits, as ``math`` and numpy may, the grid keeps the results equal
    unless a point falls within those bits of a grid line.  The error
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
    if not np.all(bracketed):
        k = np.flatnonzero(~np.asarray(bracketed))[0]
        t, a, b, fa, fb = (np.ravel(v)[k].item() for v in (target, lo, hi, f_lo, f_hi))
        where = f"row {k}: " if rows else ""
        raise BracketError(
            f"{where}target {t!r} not bracketed on [{a!r}, {b!r}]: fn(lo)={fa!r}, fn(hi)={fb!r}"
        )
    # a is the end that moved last and c the end it replaced; c = a fails
    # the interpolation test, so the first step bisects
    xp, inside, a, b, fa, fb = math_of(lo), 0.5 * tol, lo, hi, f_lo - target, f_hi - target
    c, fc, pull = a, fa, 0.2 / (hi - lo)
    # ITP's bound on the width after each step, tol 2^ceil(log2((hi - lo)/tol))
    # halved per step; two ulps of the ends, scaled alike, absorb rounding
    budget, slack = hi - lo, 0.0
    if tol > 0.0:
        mantissa, exponent = xp.frexp(budget / tol)
        budget, slack = xp.ldexp(tol, exponent - (mantissa == 0.5)), 2.0**-51 / tol
    while True:
        low, high = xp.minimum(a, b), xp.maximum(a, b)
        width, mid = high - low, 0.5 * (a + b)
        live = (width > tol) & (mid > low) & (mid < high)
        if not (live.any() if rows else live):
            return mid if rows else float(mid)
        # Chandrupatla's test xi > phi^2 and 1 - xi > (1 - phi)^2, with
        # xi = (a-b)/(c-b) and phi = (fa-fb)/(fc-fb), free of division
        near, far, bent, back = fa - fb, fc - fb, fc - fa, c - a
        span, square, den = abs(c - b), far * far, near * far * bent
        valid = (near * near * span < width * square) & (bent * bent * span < abs(back) * square)
        use = (valid | (fa * fb == 0.0)) & (den != 0.0)
        shift = fa * (fc * bent * (b - a) + fb * near * back) / (den + (den == 0.0))
        x = pick(use, a + shift, mid)
        reach, half = pull * width * width, 0.5 * width
        x = x + xp.minimum(xp.maximum(mid - x, -reach), reach)
        if tol > 0.0:  # onto the grid of tol/2, where last-bit noise in fn seldom moves it
            x = low + inside * xp.rint((x - low) / inside)
        radius = xp.maximum(budget * (1.0 - slack * (abs(mid) + half)) - half, 0.0)
        lower, upper = xp.maximum(low + inside, mid - radius), xp.minimum(high - inside, mid + radius)
        x = pick(live, xp.minimum(xp.maximum(x, lower), upper), a)
        f_x = fn(x)
        # x replaces the end on its side of the target; a finished row, at x = a, keeps its ends
        same = (((f_x < target) == increasing) == (a < b)) | (x == a)
        c, fc, b, fb = pick(same, a, b), pick(same, fa, fb), pick(same, b, a), pick(same, fb, fa)
        a, fa, budget = x, f_x - target, 0.5 * budget
