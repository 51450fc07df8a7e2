"""Lower bounds on the rate-distortion performance of sparse generator codes.

All bounds target the binary symmetric source under Hamming distortion and
are expressed as curves in the (distortion, rate) plane.  Five families:

* ``shannon``: the information-theoretic optimum D = h^{-1}(1 - R).
* ``counting``: bound for a single code with a known generator degree
  distribution, obtained by counting low-weight codewords.
* ``test_channel``: bound for degree-regular codes via a perturbed test
  channel D'; its numerator 1 - h(D) - KL(D || D') is affine in D, so the
  distortion bound is one maximisation over D', solved on the counting
  arc.  Down to R = 1/l^2 it traces that arc: the ``counting`` curve at
  R >= 1/l, and lower than its straight segment below 1/l (0.3005 against
  0.3641 at l = 3, R = 0.14).  The arc ends at its x -> 1 limit
  ((l-1)/(2l), 1/l^2); below that, the maximum is the D' -> 1/2 limit,
  the line D = (1 - l R)/2.
* ``dwr``: bound for the ensemble of random codes whose check nodes all
  have one fixed degree (Poisson generator degrees in the limit).
* ``conjectured_exit``: a stronger curve obtained from an EXIT-style area
  argument.  It is a conjecture, not a theorem, and is labeled as such
  everywhere it is emitted.  Explicit codes contradict it: a perfect
  matching (l = 2, m = 12, n = 6) has optimum 1/4 where it gives 1/2, and
  one degree-3 generator beside the cyclic Hamming code {s, s+1, s+3}
  mod 7 (l = 3, m = 10, n = 5) has 13/80 where it gives 0.1722.

A degree-0 generator adds no codeword, so the counting bound of L at R
is that of its positive-degree part L+, renormalised, at R (1 - L_0).
For L+ it is pieced together from a parametric arc, traced by a
parameter x in (0, 1), and a straight segment through (D, R) = (1/2, 0)
that takes over at rates below the reciprocal of the average degree.

The segment is the least the arc allows.  Below 1/avg a code keeps
t <= R avg of its checks covered, at total distortion
f(t) = (1 - t)/2 + t D(R/t), D the arc, and f'(t) = D(r) - r D'(r) - 1/2
at r = R/t: the arc's tangent meets R = 0 at D(r) - r D'(r).  With G the
log2 weight gf, the arc's slope is dD/dR = (1 - G(x))/log2 x, so that
intercept is log2(2/(1 + x)) / log2(1/x) for every profile.  It is below
1/2 because 4x < (1 + x)^2 on (0, 1), so f falls in t and is least at
t = R avg, the segment.  The slope falls along x at the rate
-Den / (x ln 2 (log2 x)^2), where Den = sum_i L_i (1 - h(x^i/(1 + x^i)))
is the rate's positive denominator, so the arc is convex in R.  The
tests check both from the arc's analytic derivatives.  An L+ averaging
at most 1 + 1e-12 has no arc, and the count alone gives the line
D = (1 - R avg)/2, covered checks taken at distortion 0.

The counting bound is not tight for codes whose generators all have
degree 0, 1 or 2.  Such a code's exact optimum is (m - k)/(2m), half its
redundancy, and each edge or pin removes at most one free component, so
it is at least (1 - R (1 - L_0))/2, with equality for a forest with
distinct pins: that line is the tight bound there.  The counting bound
lies below it, and on it for degrees 0 and 1 alone; for regular 2 at
R = 1/2 it gives 0.1150 against 0.25.

Every distortion bound takes a float or a numpy array of rates and
answers in kind, so ``sample_curve`` solves a family over its whole rate
grid in one row-wise call of its root finder, while a single point takes
its float loop: a Newton solve of the arc for ``counting`` and
``test_channel``, ``bisect_monotone`` for the others.  The conjecture's
rate form, which its distortion form inverts, takes distortions alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .degree import DegreeDistribution, _weight_sums, poisson_rows, weight_transforms
from .numerics import (
    BracketError,
    _entropy,
    _entropy_deficit,
    bisect_monotone,
    check_range,
    math_of,
    pick,
)

__all__ = [
    "CURVE_KINDS",
    "BoundCurve",
    "NoSolutionError",
    "conjectured_exit_distortion_bound",
    "conjectured_exit_rate_bound",
    "counting_bound_distortion",
    "parametric_endpoints",
    "poisson_ensemble_distortion_bound",
    "sample_curve",
    "shannon_distortion",
    "solve_x_for_rate",
    "test_channel_distortion_bound",
]

CURVE_KINDS = ("shannon", "counting", "test_channel", "dwr", "conjectured_exit")

# The arc is 0/0 at x -> 1; stay inside.  Its solve starts at x = e^-69 = 1e-30, where
# 1 - R ~ 1e-28 is below 2^-53, the least 1 - R of a rate under 1, reached near x = 1e-18.
_LOG_X_LO, _X_HI = math.log(1e-30), 1.0 - 1e-6
# The test-channel bound's channel D' = x/(1 + x) stops at 1/2 - 1e-4,
# where cancellation sets in.
_X_CAP = (0.5 - 1e-4) / (0.5 + 1e-4)
# Poisson rows solved together, so the zero-padded pmf matrix stays at
# this many rows whatever the grid.
_POISSON_ROWS = 256


class NoSolutionError(ValueError):
    """A bound has no solution in the admissible range."""


def shannon_distortion(rate):
    """Distortion of the Shannon rate-distortion curve at the given rate.

    Solves 1 - h(D) = R rather than h(D) = 1 - R, where 1 - R would
    round every rate below about 1e-16 to zero.
    """
    check_range("rate", rate, 0.0, 1.0)
    solved = bisect_monotone(_entropy_deficit, 0.0, 0.5, rate, tol=1e-14)
    return pick(rate == 1.0, 0.0, pick(rate == 0.0, 0.5, solved))


# ---------------------------------------------------------------------------
# counting bound: parametric arc + straight segment
# ---------------------------------------------------------------------------


def _deficit(degrees, fractions, x):
    """1 - R of the counting arc of positive degrees at x in (0, 1): with h_i = h(x^i/(1 + x^i))
    = log2(1 + x^i) - i x^i/(1 + x^i) log2 x, R = (1 - h_1)/sum_i L_i (1 - h_i), so 1 - R is
    sum_i L_i (h_1 - h_i) over that, degree 1 (first if present) adding 0 to the top.  Toward
    x = 0, where R -> 1, no term cancels, whatever L_1 and the L_i's sum."""
    top, bottom, *_ = _arc_terms(*_split(degrees, fractions), x)
    return top / bottom


def _split(degrees, fractions):
    """The degrees past 1, their fractions (one profile, or one per row), degree 1's fraction
    (0 without it) and the others' sum: the profile as ``_arc_terms`` takes it."""
    rows, first = getattr(fractions, "ndim", 1) == 2, int(degrees[0] == 1)
    rest, ones = (fractions[:, first:], fractions[:, 0]) if rows else (fractions[first:], fractions[0])
    return degrees[first:], rest, first * ones, rest.sum(axis=-1) if rows else math.fsum(rest)


def _arc_terms(degrees, rest, ones, mass, x):
    """At x, ``_deficit``'s top T and bottom B, x dT/dx over -log2 x, x dB/dx over log2 x, and
    log2 x: with w = p_1 (1 - p_1) and V the others' spread, M w - V and L_1 w + V."""
    xp, share = math_of(x), x / (1.0 + x)
    log_gf, occupancy, spread = _weight_sums(degrees, rest, x)
    log_x, w = xp.log2(x), share / (1.0 + x)
    h_1, others = xp.log1p(x) / math.log(2.0) - share * log_x, log_gf - occupancy * log_x
    top, bottom = mass * h_1 - others, ones * (1.0 - h_1) + mass - others
    return top, bottom, mass * w - spread, ones * w + spread, log_x


def _log_deficit(degrees, rest, ones, mass, u):
    """g(u) = ln(1 - R(e^u)) and dg/du from ``_split``'s parts (see ``_solve_arc``)."""
    xp = math_of(u)
    top, bottom, rise, fall, log_x = _arc_terms(degrees, rest, ones, mass, xp.exp(u))
    return xp.log(top / bottom), -log_x * (rise / top + fall / bottom)


def _tangent(degrees, fractions, rate, x):
    """The arc's tangent at x read at ``rate``, clamped at 0, off the arc point by the square
    of x's error: (1 - R - log2(1 + x) + R log2 gf(x))/log2(1/x), 1 - R exact."""
    xp = math_of(x)
    log_gf = weight_transforms(degrees, fractions, x)[0]
    return xp.maximum((1.0 - rate - xp.log1p(x) / math.log(2.0) + rate * log_gf) / -xp.log2(x), 0.0)


def parametric_endpoints(
    dist: DegreeDistribution,
) -> tuple[tuple[float, float], tuple[float, float]] | None:
    """Closed-form (distortion, rate) limits of the counting arc at x -> 0
    and x -> 1, in the curve's rate units; None when the curve is the line.

    The arc is that of the positive part L+, with moments M1 and M2, at
    R (1 - L_0).  At x -> 0 it approaches (0, 1/(1 - L_0)): (0, 1) without
    degree-0 mass, beyond every row (R > 1) with it.  At x -> 1 it
    approaches ((M2 - M1)/(2 M2), 1/(M2 (1 - L_0))), ((l-1)/(2l), 1/l^2)
    for a regular l.  Both are removable 0/0 limits of the arc's formulas.
    """
    positive, scale = _positive_part(dist)
    average = positive.average_degree
    if not _has_arc(average):
        return None
    second = positive.moment(2)
    return (0.0, 1.0 / scale), ((second - average) / (2.0 * second), 1.0 / (second * scale))


def _solve_arc(degrees, fractions, rate, top=_X_HI):
    """x in (0, top] where the arc's rate, decreasing in x, is ``rate``: Newton's method for
    g(u) = ln(1 - R(e^u)) = ln(1 - rate) in u = ln x on [ln 1e-30, ln top], from its lower end,
    a point outside the bracket replaced by the midpoint.  A rate of 1 solves at 1 - 2^-53.

    With p_i = x^i/(1 + x^i), x dh_i/dx = -log2 x i^2 p_i (1 - p_i); so with T and B the top
    and bottom of ``_deficit``, M = sum_{i != 1} L_i, w = p_1 (1 - p_1) and V = sum_{i != 1}
    L_i i^2 p_i (1 - p_i), dg/du = -log2 x ((M w - V)/T + (L_1 w + V)/B).  g is nearly
    linear in u for small x, where x keeps its last digits however small.  A row stops at a
    step of at most 1e-12, a residual of 0, a bracket at most 1e-13 wide or bisection's 50
    steps.  The bracket's stop ends rows near x = 1, where T and B vanish together and the
    rounding of that 0/0 keeps steps at about 1e-12 even at the test-channel cap.  Each
    evaluation takes the live rows only, a profile per row sliced to them."""
    xp, lo, hi = math_of(rate), _LOG_X_LO, math.log(top)
    target = xp.log1p(-xp.minimum(rate, 1.0 - 2.0**-53))
    degrees, *parts = _split(degrees, fractions)
    per_row, rows = getattr(parts[0], "ndim", 1) == 2, np.arange(rate.size) if xp is np else None

    def residual(u, rows, target):  # g(u) - target and dg/du, for the rows given
        g, slope = _log_deficit(degrees, *([part[rows] for part in parts] if per_row else parts), u)
        return g - target, slope

    ends = [np.full(rate.shape, end) if per_row else end for end in (lo, hi)]
    (f, slope), (f_hi, _) = (residual(end, rows, target) for end in ends)
    if not (np.all if xp is np else bool)((f <= 0.0) & (f_hi >= 0.0)):
        t, fa, fb = (np.ravel(v) for v in np.broadcast_arrays(target, f + target, f_hi + target))
        k = int(np.flatnonzero(~((fa <= t) & (fb >= t)))[0])
        raise BracketError(
            f"{f'row {k}: ' if xp is np else ''}target {float(t[k])!r} not bracketed on "
            f"[{lo!r}, {hi!r}]: fn(lo)={float(fa[k])!r}, fn(hi)={float(fb[k])!r}"
        )
    u, a, b, cap = lo + 0.0 * f, lo + 0.0 * f, hi + 0.0 * f, math.ceil(math.log2((hi - lo) / 1e-13))
    x = None if rows is None else np.empty(rows.size)
    for step in range(cap + 1):  # bisection's bound on the steps
        a, b, usable = pick(f < 0.0, u, a), pick(f > 0.0, u, b), slope > 0.0
        newton = u - f / pick(usable, slope, 1.0)
        stop = (f == 0.0) | (usable & (abs(newton - u) <= 1e-12)) | (b - a <= 1e-13) | (step == cap)
        u = pick(f == 0.0, u, pick(usable & (a <= newton) & (newton <= b), newton, 0.5 * (a + b)))
        if rows is None and stop:
            return math.exp(u)
        if rows is not None:
            x[rows[stop]], live = np.exp(u[stop]), ~stop
            if not live.any():
                return x
            rows, u, a, b, target = rows[live], u[live], a[live], b[live], target[live]
        f, slope = residual(u, rows, target)


def _arc_parameter(degrees, fractions, rate):
    """x in (0, 1) where the arc's rate is ``rate``, row by row for an array,
    the profile as ``weight_transforms`` takes it; a row whose arc's 1 - R
    misses 1 - ``rate`` by more than 1e-10 raises :class:`BracketError`."""
    x = _solve_arc(degrees, fractions, rate)
    residual = abs(_deficit(degrees, fractions, x) - (1.0 - rate))
    stalled = residual > 1e-10
    if stalled.any() if isinstance(stalled, np.ndarray) else stalled:
        row = int(np.flatnonzero(stalled)[0])
        raise BracketError(
            f"rate inversion stalled: residual {np.ravel(residual)[row]:.3e} "
            f"at x={float(np.ravel(x)[row])!r}"
        )
    return x


def _has_arc(average):
    """Whether the average degree exceeds 1 by more than a profile's 1e-12 slack."""
    return average > 1.0 + 1e-12


def solve_x_for_rate(dist: DegreeDistribution, rate):
    """Parameter x in (0, 1) whose arc rate equals ``rate``.

    Valid for rates between the reciprocal average degree and 1; an array
    of rates is solved row by row.  The inversion brackets the root, so it
    relies on the arc's rate decreasing in x, which the test suite checks
    on dense grids of regular, Poisson and mixed profiles.  A profile with
    degree-0 mass solves its positive part L+ at R (1 - L_0), the same x.
    The arc's 1 - R there is within 1e-10 of 1 - ``rate``, else :class:`BracketError`.
    """
    average = dist.average_degree
    if not _has_arc(average):
        raise ValueError(f"average degree must exceed 1 + 1e-12, got {average!r}")
    check_range(f"rate on the arc's span [{1.0 / average!r}, 1]", rate, 1.0 / average - 1e-12, 1.0)
    positive, scale = _positive_part(dist)
    return _arc_parameter(positive.degrees, positive.fractions, rate * scale)


def _positive_part(dist: DegreeDistribution):
    """L's positive-degree part L+, renormalised by the ``math.fsum`` of its
    fractions, and that sum, which scales a rate of L to one of L+; L and
    1 when it has no degree-0 mass or nothing else."""
    scale = math.fsum(dist.fractions[1:])
    if dist.degrees[0] != 0 or scale == 0.0:
        return dist, 1.0
    return DegreeDistribution(tuple((d, f / scale) for d, f in dist.entries[1:])), scale


def _counting(degrees, fractions, average, rate, x):
    """Counting bound at ``rate`` from the arc's tangent at x, its parameter
    at max(R, 1/average): the arc point from 1/average up, and below it the
    straight segment through (1/2, 0) that attaches there."""
    floor = 1.0 / average
    arc = _tangent(degrees, fractions, math_of(rate).maximum(rate, floor), x)
    return pick(rate >= floor, arc, (1.0 - rate * average) / 2.0 + rate * average * arc)


def counting_bound_distortion(dist: DegreeDistribution, rate):
    """Counting lower bound on distortion for one code at the given rate.

    That of the positive-degree part L+ at R (1 - L_0): its arc from its
    reciprocal average degree up, 0 at R = 1, and the segment through
    (1/2, 0) below.  An L+ averaging at most 1 + 1e-12 gives the line
    D = (1 - R avg)/2: at least a share 1 - R avg of the checks has no
    generator.  An array's arc rows and the segment's anchor at 1/average
    are solved together, the anchor as the last row.
    """
    check_range("rate", rate, 0.0, 1.0)
    positive, scale = _positive_part(dist)
    average = positive.average_degree
    if not _has_arc(average):
        return math_of(rate).maximum((1.0 - rate * dist.average_degree) / 2.0, 0.0)
    rate, floor = rate * scale, 1.0 / average
    if isinstance(rate, np.ndarray):
        arc = rate >= floor
        solved = solve_x_for_rate(positive, np.append(rate[arc], floor))
        x = np.full_like(rate, solved[-1])
        x[arc] = solved[:-1]
    else:
        x = solve_x_for_rate(positive, max(rate, floor))
    return _counting(positive.degrees, positive.fractions, average, rate, x)


def _poisson_counting(check_degree: int, rates: np.ndarray) -> np.ndarray:
    """Counting bound of the truncated Poisson family, one member per rate:
    ``counting_bound_distortion``'s, with one solve of the positive part's
    arc per row.  Every member has degree-2 mass, so every part has an arc."""
    parts = []
    for first in range(0, rates.size, _POISSON_ROWS):
        part = rates[first : first + _POISSON_ROWS]
        degrees, fractions = poisson_rows(check_degree, part)
        average = np.array([math.fsum(row) for row in (fractions * degrees).tolist()])
        scale = 1.0 - fractions[:, 0]
        rate, average, profile = part * scale, average / scale, fractions[:, 1:] / scale[:, None]
        x = _arc_parameter(degrees[1:], profile, np.maximum(rate, 1.0 / average))
        parts.append(_counting(degrees[1:], profile, average, rate, x))
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# test-channel bound (regular distributions)
# ---------------------------------------------------------------------------


def test_channel_distortion_bound(degree: int, rate):
    """Largest distortion the test-channel bound rules out below ``rate``.

    With B = log2((1 - D')/D') > 0, N = 1 + log2(1 - D') - D B, so N/Den >= R
    exactly when D <= phi_R(D') = A/B, A = 1 + log2(1 - D') - R Den.  The
    bound is the larger of the line (1 - l R)/2 and max phi_R over D' in
    (0, 1/2 - 1e-4].  At D' = x/(1 + x), as 1 - h(D') = 1 - log2(1 + x)
    + D' log2 x and Den = 1 - log2 gf(x), phi_R is the counting arc's
    tangent at x read at R.  The arc is convex, so phi_R peaks at the arc
    point of rate R; ``_tangent`` reads it at the arc solve's x, or at the
    cap for rows at or below its rate.  A row at the cap has phi_R = D' -
    l R q < D', q = x^l/(1 + x^l), so the primal's D' >= D holds by itself.
    For l = 1 the arc is the single point R = 1, and the bound is the line.
    The ends are exact: the line is 1/2 at R = 0, the clamped tangent 0 at 1.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree!r}")
    check_range("rate", rate, 0.0, 1.0)
    line = (1.0 - degree * rate) / 2.0
    if degree == 1:
        return line
    xp, profile = math_of(rate), ((degree,), (1.0,))
    above = rate > 1.0 - _deficit(*profile, _X_CAP)
    if xp is np:
        x = np.full_like(rate, _X_CAP)
        x[above] = _solve_arc(*profile, rate[above], _X_CAP)
    else:
        x = _solve_arc(*profile, rate, _X_CAP) if above else _X_CAP
    return xp.maximum(_tangent(*profile, rate, x), line)


# ---------------------------------------------------------------------------
# fixed-check-degree ensemble bound (the "dwr" curve family)
# ---------------------------------------------------------------------------


def _dwr_slack(check_degree: int, distortion, rate):
    """1 - h(D) - R (1 - exp(-(1 - D) r / R)): positive while rate R is too
    small for distortion D."""
    xp = math_of(distortion, rate)
    # below rate 1e-300 the exponential is 0 already; holding the divisor
    # there keeps the quotient finite
    gain = rate * (1.0 - xp.exp(-(1.0 - distortion) * check_degree / xp.maximum(rate, 1e-300)))
    return _entropy_deficit(distortion) - gain


def poisson_ensemble_distortion_bound(check_degree: int, rate):
    """Distortion below which the fixed-check-degree ensemble bound bites.

    Rate 0 admits no distortion under one half, so the bound there is 0.5.
    """
    if check_degree < 1:
        raise ValueError(f"check degree must be >= 1, got {check_degree!r}")
    check_range("rate", rate, 0.0, 1.0)
    slack = lambda distortion: _dwr_slack(check_degree, distortion, rate)
    solved = bisect_monotone(slack, 0.0, 0.5, 0.0 * rate, tol=1e-14)  # target 0 in rate's shape
    return pick(rate == 0.0, 0.5, solved)


# ---------------------------------------------------------------------------
# conjectured EXIT-style bound (unproven)
# ---------------------------------------------------------------------------


def _entropy_gap(b):
    """1 - h(1/(1 + e^(2b))) for b >= 0, free of cancellation.

    Below b = 0.55 it is (b tanh b - ln cosh b)/ln 2, with ln cosh b
    written as log1p(2 sinh^2(b/2)), so the O(b^2) value near b = 0 keeps
    its relative precision.  Above, the entropy argument is at most 0.25
    and is written with e^(-2b), which cannot overflow.  Each form is
    evaluated on b clipped to its side, so neither overflows.
    """
    xp = math_of(b)
    near, far = xp.minimum(b, 0.55), xp.maximum(b, 0.55)
    tail = xp.exp(-2.0 * far)
    return pick(
        b < 0.55,
        (near * xp.tanh(near) - xp.log1p(2.0 * xp.sinh(0.5 * near) ** 2)) / math.log(2.0),
        1.0 - _entropy(tail / (1.0 + tail)),
    )


def conjectured_exit_rate_bound(degree: int, distortion):
    """CONJECTURED minimal rate for degree-regular codes; not a theorem.

    The bound is (1 - h(D)) / (1 - S) with
    S = sum_{i=0}^{l} P_i log2(1 + (D/(1-D))^{2i-l}),
    P_i = C(l, i) (1-D)^i D^{l-i}.  Since P_i (1 + (D/(1-D))^{2i-l}) =
    P_i + P_{l-i}, pairing i with l - i gives, with
    b = ln((1-D)/D)/2 and g(b) = 1 - h(1/(1 + e^(2b))),

        1 - S = sum_{i < l/2} (P_i + P_{l-i}) g((l - 2i) b),  1 - h(D) = g(b).

    Both sides vanish like b^2 as D -> 1/2; g is evaluated without
    cancellation, so the ratio keeps full precision up to D = 1/2, where
    it takes its limit 1/l.  For degree 1 the sum is g(b) and the bound
    is identically 1.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree!r}")
    check_range("distortion", distortion, 0.0, 0.5)
    # rows at D = 0 and D = 1/2 are set at the end; keep their arithmetic finite
    d = pick((distortion > 0.0) & (distortion < 0.5), distortion, 0.25)
    keep, xp = 1.0 - d, math_of(d)
    b = 0.5 * (xp.log1p(-d) - xp.log(d))
    gap = _entropy_gap(b)
    total = 0.0
    for i in range((degree + 1) // 2):
        pair = keep**i * d ** (degree - i) + keep ** (degree - i) * d**i
        # for odd l the last pair has l - 2i = 1, whose term is g(b) itself
        scaled_gap = gap if degree - 2 * i == 1 else _entropy_gap((degree - 2 * i) * b)
        total = total + math.comb(degree, i) * pair * scaled_gap
    bound = gap / total
    return pick(distortion == 0.0, 1.0, pick(distortion == 0.5, 1.0 / degree, bound))


def _conjecture_excess(degree: int, distortion):
    """l R - 1 for the conjectured rate bound R, from a series near D = 1/2.

    With P_i + P_{l-i} = C(l, i) 2 cosh((l-2i) b) / (2 cosh b)^l and
    phi(x) = 2 (x sinh x - cosh x ln cosh x) = x^2 (1 + psi(x)),
    l R = cosh(b)^(l-1) (1 + psi(b)) / (1 + w), where
    w = sum_{i < l/2} C(l, i) (l-2i)^2 psi((l-2i) b) / (l 2^(l-1)).
    psi(x) = x^4/72 - x^6/360 + O(x^8) is exact to double precision for
    b <= 1e-3 and degrees up to 12, i.e. for D in [0.4995, 1/2].
    """
    xp = math_of(distortion)
    b = 0.5 * (xp.log1p(-distortion) - xp.log(distortion))

    def psi(x):
        return x**4 * (1.0 / 72.0 - x * x / 360.0)

    cosh_rise = xp.expm1((degree - 1) * xp.log1p(2.0 * xp.sinh(0.5 * b) ** 2))
    w = 0.0
    for i in range((degree + 1) // 2):
        w = w + math.comb(degree, i) * (degree - 2 * i) ** 2 * psi((degree - 2 * i) * b)
    w = w / (degree * 2 ** (degree - 1))
    skew = (psi(b) - w) / (1.0 + w)
    return cosh_rise + skew + cosh_rise * skew


def conjectured_exit_distortion_bound(degree: int, rate):
    """Smallest distortion the conjectured bound permits at ``rate``.

    The rate bound decreases from 1 at D = 0 to its limit 1/l at D = 1/2
    (for degree 1 it is identically 1), so at rates at or below 1/l no
    distortion under one half is admitted and the bound saturates at 0.5.
    Within 1e-7 above 1/l, R is known to a few ulp only, which would move
    D by up to about 2e-12; there the solve runs on the excess l R - 1,
    formed exactly from the rate, instead.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree!r}")
    check_range("rate", rate, 0.0, 1.0)
    if degree == 1:
        return pick(rate == 1.0, 0.0, 0.5)
    floor = 1.0 / degree
    solved = bisect_monotone(
        functools.partial(conjectured_exit_rate_bound, degree),
        0.0,
        0.5,
        math_of(rate).maximum(rate, floor),  # a saturated row solves at the floor, then reads 0.5
        tol=1e-12,
    )
    near = (rate > floor) & (rate - floor < 1e-7)
    if np.any(near):
        # rate - floor is exact this close to the floor; the constant
        # corrects for floor being 1/l rounded
        excess = degree * (rate - floor) - float(1 - degree * Fraction(floor))
        excess_at = functools.partial(_conjecture_excess, degree)
        target = np.clip(excess, 0.0, excess_at(0.4995))  # rows not near stay bracketed
        solved = pick(near, bisect_monotone(excess_at, 0.4995, 0.5, target, tol=1e-12), solved)
    return pick(rate <= floor, 0.5, pick(rate == 1.0, 0.0, solved))


# ---------------------------------------------------------------------------
# curve sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BoundCurve:
    """A sampled bound curve: kind tag, rates in ascending order and the
    distortion at each as read-only float copies of the sequences given,
    generating params, and a fixed-profile counting curve's unrounded
    distribution.  Equality is identity: arrays have no truth value.

    Checks every row: rates in [0, 1] and distortions in [0, 1/2], each to
    1e-12, rates sorted, and no distortion rising by more than 1e-9."""

    kind: str
    rates: np.ndarray
    distortions: np.ndarray
    params: tuple[tuple[str, str], ...]
    dist: DegreeDistribution | None = None

    def __post_init__(self) -> None:
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind: {self.kind!r}")
        if len(self.rates) != len(self.distortions):
            raise ValueError(f"{len(self.rates)} rates but {len(self.distortions)} distortions")
        for name in ("rates", "distortions"):
            array = np.array(getattr(self, name), float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        rates, distortions = self.rates, self.distortions
        bad_rate = ~((rates >= -1e-12) & (rates <= 1.0 + 1e-12))
        bad_distortion = ~((distortions >= -1e-12) & (distortions <= 0.5 + 1e-12))
        bad = np.flatnonzero(bad_rate | bad_distortion)
        if bad.size:
            row = int(bad[0])
            name, value = ("rate", rates[row]) if bad_rate[row] else ("distortion", distortions[row])
            raise ValueError(f"{name} out of range: {float(value)!r}")
        unsorted = rates[1:] < rates[:-1]
        bad = np.flatnonzero(unsorted | (distortions[1:] > distortions[:-1] + 1e-9))
        if bad.size:
            row = int(bad[0])
            if unsorted[row]:
                raise ValueError("curve points must be sorted by rate")
            before, after = map(float, distortions[row : row + 2])
            raise ValueError(f"distortion must not increase with rate: {before!r} -> {after!r}")

    @property
    def is_conjecture(self) -> bool:
        return self.kind == "conjectured_exit"


def sample_curve(
    kind: str,
    rate_grid,
    dist: DegreeDistribution | None = None,
    degree: int | None = None,
    check_degree: int | None = None,
) -> BoundCurve:
    """Sample one bound curve over a grid of rates.

    Each family takes one parameter, with the degree spec that gives it on
    the command line in brackets, and ignores the others: ``counting`` a
    fixed ``dist`` [a literal or regular:<l>] or a ``check_degree``
    [poisson:<r>, one member per rate, rates > 0]; ``test_channel`` and
    ``conjectured_exit`` a ``degree`` [regular:<l>]; ``dwr`` a
    ``check_degree`` [poisson:<r>]; ``shannon`` none.  Each family is
    solved for the whole grid at once.
    """
    if kind not in CURVE_KINDS:
        raise ValueError(f"unknown curve kind: {kind!r}")
    rates = np.sort(np.asarray(rate_grid, dtype=float))
    if not rates.size:
        raise ValueError("empty rate grid")
    if rates[0] < 0.0 or rates[-1] > 1.0:
        raise ValueError(f"rates outside [0, 1]: {rates[0]!r}..{rates[-1]!r}")

    params: list[tuple[str, str]] = []
    if kind == "shannon":
        distortions = shannon_distortion(rates)
    elif kind == "counting":
        if (dist is None) == (check_degree is None):
            raise ValueError("counting takes a degree profile or poisson:<r>, exactly one")
        if dist is not None:
            params.append(("degrees", dist.to_literal()))
            distortions = counting_bound_distortion(dist, rates)
        else:
            params.append(("family", "poisson"))
            params.append(("check_degree", str(check_degree)))
            distortions = _poisson_counting(check_degree, rates)
    elif kind == "dwr":
        if check_degree is None:
            raise ValueError("dwr takes a check degree, poisson:<r>")
        params.append(("check_degree", str(check_degree)))
        distortions = poisson_ensemble_distortion_bound(check_degree, rates)
    else:  # test_channel or conjectured_exit
        if degree is None:
            raise ValueError(f"{kind} takes a regular degree, regular:<l>")
        params.append(("degree", str(degree)))
        if kind == "test_channel":
            distortions = test_channel_distortion_bound(degree, rates)
        else:
            distortions = conjectured_exit_distortion_bound(degree, rates)

    return BoundCurve(kind, rates, distortions, tuple(params), dist if kind == "counting" else None)
