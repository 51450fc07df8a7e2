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
its float loop.  Every family solves by one bracketed Newton routine,
``numerics._newton``, with its slope in closed form: the counting arc in
ln x (``counting``, ``test_channel``), ``shannon`` and ``dwr`` in D on
sqrt(1 - h(D)) (``numerics._root_deficit``, which the entropy inverse
shares), and the conjecture on l R - 1 in
ln b, b = ln((1 - D)/D)/2, near R = 1/l and on R or 1 - R in ln D above.
The conjecture's rate form, which its distortion form inverts, takes
distortions alike.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .degree import DegreeDistribution, _check_degree, _weight_sums, poisson_rows, weight_transforms
from .numerics import (
    BracketError,
    _newton,
    _root_deficit,
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

# The arc is 0/0 at x -> 1; stay inside.  Its solve starts at x = e^-69 = 1e-30, where
# 1 - R ~ 1e-28 is below 2^-53, the least 1 - R of a rate under 1, reached near x = 1e-18.
_LOG_X_LO, _X_HI = math.log(1e-30), 1.0 - 1e-6
# The test-channel bound's channel D' = x/(1 + x) stops at 1/2 - 1e-4,
# where cancellation sets in.
_X_CAP = (0.5 - 1e-4) / (0.5 + 1e-4)
# The conjecture's largest degree, the last l whose C(l, l // 2) converts to a float.
_CONJECTURE_DEGREE_LIMIT = 1029
# Poisson rows solved together, so the zero-padded pmf matrix stays at
# this many rows whatever the grid.
_POISSON_ROWS = 256


class NoSolutionError(ValueError):
    """A bound has no solution in the admissible range."""


def shannon_distortion(rate):
    """Distortion of the Shannon rate-distortion curve at the given rate.

    Solves sqrt(1 - h(D)) = sqrt(R) rather than h(D) = 1 - R, where 1 - R
    would round every rate below about 1e-16 to zero.
    """
    check_range("rate", rate, 0.0, 1.0)
    # a row at rate 0 is solved at rate 1, whose root is the lower end, and reads 0.5
    target = -math_of(rate).sqrt(pick(rate == 0.0, 1.0, rate))
    solved = _newton(lambda d, rows: _root_deficit(d), 0.0, 0.5, target, relative=True)
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
    """x in (0, top] where the arc's rate, decreasing in x, is ``rate``: ``_newton`` for
    g(u) = ln(1 - R(e^u)) = ln(1 - rate) in u = ln x on [ln 1e-30, ln top].  A rate of 1 solves
    at 1 - 2^-53.

    With p_i = x^i/(1 + x^i), x dh_i/dx = -log2 x i^2 p_i (1 - p_i); so with T and B the top
    and bottom of ``_deficit``, M = sum_{i != 1} L_i, w = p_1 (1 - p_1) and V = sum_{i != 1}
    L_i i^2 p_i (1 - p_i), dg/du = -log2 x ((M w - V)/T + (L_1 w + V)/B).  g is nearly
    linear in u for small x, where x keeps its last digits however small.  The bracket's stop
    ends rows near x = 1, where T and B vanish together and the rounding of that 0/0 keeps
    steps at about 1e-12 even at the test-channel cap.  A profile per row is sliced to the
    live rows."""
    xp = math_of(rate)
    degrees, *parts = _split(degrees, fractions)
    per_row = getattr(parts[0], "ndim", 1) == 2

    def log_deficit(u, rows):  # g(u) and dg/du, for the rows given
        if not per_row:
            return _log_deficit(degrees, *parts, u)
        return _log_deficit(degrees, *(part[rows] for part in parts), u + np.zeros(rows.size))

    target = xp.log1p(-xp.minimum(rate, 1.0 - 2.0**-53))
    return xp.exp(_newton(log_deficit, _LOG_X_LO, math.log(top), target))


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
    _check_degree("degree", degree)
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
# fixed-check-degree ensemble bound (the dwr curve family)
# ---------------------------------------------------------------------------


def poisson_ensemble_distortion_bound(check_degree: int, rate):
    """Distortion below which the fixed-check-degree ensemble bound bites.

    Rate 0 admits no distortion under one half, so the bound there is 0.5.
    """
    _check_degree("check degree", check_degree)
    check_range("rate", rate, 0.0, 1.0)
    xp, solving = math_of(rate), pick(rate == 0.0, 1.0, rate)  # a row at rate 0 reads 0.5

    def slack(d, rows):  # sqrt(R (1 - e)) - sqrt(1 - h(D)), e = exp(-(1 - D) r/R), and its slope
        r, (root, rise) = solving if rows is None else solving[rows], _root_deficit(d)
        # below rate 1e-300 the exponential is 0 already; holding the divisor there keeps it finite
        e = xp.exp(-(1.0 - d) * check_degree / xp.maximum(r, 1e-300))
        gain = xp.sqrt(r * (1.0 - e))
        return gain + root, rise - check_degree * e / (2.0 * gain)

    solved = _newton(slack, 0.0, 0.5, 0.0 * rate, relative=True)  # target 0 in rate's shape
    return pick(rate == 0.0, 0.5, solved)


# ---------------------------------------------------------------------------
# conjectured EXIT-style bound (unproven)
# ---------------------------------------------------------------------------


def conjectured_exit_rate_bound(degree: int, distortion):
    """CONJECTURED minimal rate for degree-regular codes; not a theorem.

    The bound is (1 - h(D)) / (1 - S) with
    S = sum_{i=0}^{l} P_i log2(1 + (D/(1-D))^{2i-l}),
    P_i = C(l, i) (1-D)^i D^{l-i}.  Since P_i (1 + (D/(1-D))^{2i-l}) =
    P_i + P_{l-i}, pairing i with l - i gives, with
    b = ln((1-D)/D)/2 and g(b) = 1 - h(1/(1 + e^(2b))),

        1 - S = sum_{i < l/2} (P_i + P_{l-i}) g((l - 2i) b),  1 - h(D) = g(b).

    Both sides vanish like b^2 as D -> 1/2; ``_conjecture_terms`` evaluates
    g without cancellation, so the ratio keeps full precision up to D = 1/2,
    where it takes its limit 1/l.  For degree 1 the sum is g(b) and the
    bound is identically 1.
    """
    _check_degree("degree", degree, _CONJECTURE_DEGREE_LIMIT)
    check_range("distortion", distortion, 0.0, 0.5)
    # rows at D = 0 and D = 1/2 are set at the end; keep their arithmetic finite
    d = pick((distortion > 0.0) & (distortion < 0.5), distortion, 0.25)
    bound = _conjecture_terms(degree, d)[0]
    return pick(distortion == 0.0, 1.0, pick(distortion == 0.5, 1.0 / degree, bound))


def _conjecture_terms(degree: int, d):
    """R and 1 - R of ``conjectured_exit_rate_bound`` at D, each keeping its digits, and
    d ln R/d ln D.

    With b = ln((1 - D)/D)/2 and H(x) = h(1/(1 + e^(2x))) = 1 - g(x): the pairs
    C(l, i) c_k = P_i + P_{l-i} sum to 1 less an even l's middle term C(l, l/2) (D (1 - D))^(l/2),
    so 1 - R = (S - g(b))/S with S - g(b) = H(b) - that term - sum_i C(l, i) c_k H(kb).  From
    kb = 0.55 on, g and H come from the entropy of P_{l-i}/(P_i + P_{l-i}), formed from D's
    powers and written with log1p, so 1 - R keeps its digits as R -> 1; below, g is
    (x tanh x - ln cosh x)/ln 2 with ln cosh x = log1p(2 sinh^2(x/2)), whose O(x^2) value keeps
    them as D -> 1/2.  d ln R/db = g'/g - S'/S, g'(b) = b sech^2(b)/ln 2 and
    c_k' = c_k (k tanh kb - l tanh b); with w_k = 1 - tanh kb = 2/(1 + e^(2kb)), w_1 = 2D,
    k tanh kb - l tanh b = l w_1 - k w_k - 2i and sech^2 = w (2 - w), which keep their digits
    for large b.  db/d ln D = -1/(2 (1 - D)).
    """
    keep, xp = 1.0 - d, math_of(d)
    b = 0.5 * (xp.log1p(-d) - xp.log(d))

    def entropies(x, share):  # g(x), H(x) and w = 1 - tanh x, at share = 1/(1 + e^(2x))
        spread = (share * xp.log(share + (share == 0.0)) + (1.0 - share) * xp.log1p(-share)) / -math.log(2.0)
        small = x < 0.55
        if not (small.any() if xp is np else small):
            return 1.0 - spread, spread, 2.0 * share
        near = xp.minimum(x, 0.55)
        gap = (near * xp.tanh(near) - xp.log1p(2.0 * xp.sinh(0.5 * near) ** 2)) / math.log(2.0)
        return pick(small, gap, 1.0 - spread), pick(small, 1.0 - gap, spread), 2.0 * share

    gap, entropy, _ = entropies(b, d)
    lack = entropy
    if degree % 2 == 0:
        lack = lack - math.comb(degree, degree // 2) * (keep * d) ** (degree // 2)
    total = rise = 0.0
    for i in range((degree + 1) // 2):
        k, low, high = degree - 2 * i, d ** (degree - i) * keep**i, keep ** (degree - i) * d**i
        # for odd l the last pair has k = 1, whose terms are those of b itself
        share = low / (low + high + (high == 0.0))  # 0 where both underflow
        scaled_gap, spread, fall = (gap, entropy, 2.0 * d) if k == 1 else entropies(k * b, share)
        term = math.comb(degree, i) * (low + high)
        total, lack = total + term * scaled_gap, lack - term * spread
        climb = k * k * b * fall * (2.0 - fall) / math.log(2.0)
        rise = rise + term * ((2.0 * degree * d - k * fall - 2 * i) * scaled_gap + climb)
    slope = 4.0 * b * d * keep / math.log(2.0) / gap - rise / total
    return gap / total, lack / total, -slope / (2.0 * keep)


# The [10/10] Pade form of psi(x)/x^4 in x^2, highest power first, from psi's Taylor series at
# 80 digits (see _psi); up to x = 1.5 it is within 5e-16 of psi/x^4 in double precision.
_PSI_TOP = (
    4.412850620793351e-13, 1.3658744214123726e-10, 1.4478901348256916e-08, 9.520192968029791e-07,
    2.372637508183892e-05, 0.0002915756567575092, 0.0020134083563077927, 0.008212812594209406,
    0.01965505318957476, 0.02552608815861641, 1.0 / 72.0,
)
_PSI_BOTTOM = (
    3.5000466694108625e-10, -7.816179636442089e-08, 4.440337011476219e-06, 0.00025450057066697283,
    0.004653469329442278, 0.04420394283337948, 0.24790010389029343, 0.8526373249806015,
    1.770001403895364, 2.0378783474203814, 1.0,
)


def _psi(x):
    """psi(x) = phi(x)/x^2 - 1 for phi(x) = 2 (x sinh x - cosh x ln cosh x), and psi'(x).

    psi ~ x^4/72 near 0, where phi(x)/x^2 - 1 cancels: up to x = 1.5, psi is x^4 r(x^2) for
    the Pade form r, and psi' = x^3 (4 r + 2 x^2 r'), with r' by Horner's rule alongside r.
    Above, psi' = (x phi' - 2 phi)/x^3 with phi' = 2 (x cosh x - sinh x ln cosh x); the
    direct forms take x clipped to [1.5, 600], where cosh is finite.
    """
    xp = math_of(x)
    near, far = xp.minimum(x, 1.5), xp.minimum(xp.maximum(x, 1.5), 600.0)
    square, top, bottom, top_rise, bottom_rise = near * near, 0.0, 0.0, 0.0, 0.0
    for p, q in zip(_PSI_TOP, _PSI_BOTTOM):
        top_rise, bottom_rise = top_rise * square + top, bottom_rise * square + bottom
        top, bottom = top * square + p, bottom * square + q
    form = top / bottom
    rise = (top_rise - form * bottom_rise) / bottom
    sinh, cosh = xp.sinh(far), xp.cosh(far)
    log_cosh = xp.log(cosh)
    phi, lift = 2.0 * (far * sinh - cosh * log_cosh), 2.0 * (far * cosh - sinh * log_cosh)
    value = pick(x < 1.5, square * square * form, phi / (far * far) - 1.0)
    slope = pick(x < 1.5, near * square * (4.0 * form + 2.0 * square * rise), (far * lift - 2.0 * phi) / far**3)
    return value, slope


def _conjecture_excess(degree: int, b):
    """ln(l R - 1) for the conjectured rate bound R at b = ln((1 - D)/D)/2, and its slope in
    ln b.

    With C(l, i) c_k = C(l, i) 2 cosh(kb)/(2 cosh b)^l, k = l - 2i, and
    phi(x) = 2 (x sinh x - cosh x ln cosh x) = x^2 (1 + psi(x)),
    l R = cosh(b)^(l-1) (1 + psi(b))/(1 + w), w = sum_{i < l/2} C(l, i) k^2 psi(kb)/(l 2^(l-1)),
    so l R - 1 = (u (1 + psi(b)) + psi(b) - w)/(1 + w), u = cosh(b)^(l-1) - 1, whose terms do
    not cancel while psi keeps its digits: l R - 1 keeps them down to D = 1/2, where
    R - 1/l ~ b^2 leaves ln R none.  The slope is b l R/(l R - 1) times
    d ln(l R)/db = (l - 1) tanh b + psi'(b)/(1 + psi(b)) - w'/(1 + w).
    """
    xp = math_of(b)
    psi, tilt = _psi(b)
    w = lean = 0.0
    for i in range((degree + 1) // 2):
        k = degree - 2 * i
        weight = math.comb(degree, i) * k * k / (degree * 2 ** (degree - 1))
        value, slope = (psi, tilt) if k == 1 else _psi(k * b)
        w, lean = w + weight * value, lean + weight * k * slope
    rise = xp.expm1((degree - 1) * xp.log1p(2.0 * xp.sinh(0.5 * b) ** 2))
    excess = (rise * (1.0 + psi) + psi - w) / (1.0 + w)
    growth = (degree - 1) * xp.tanh(b) + tilt / (1.0 + psi) - lean / (1.0 + w)
    return xp.log(excess), b * (1.0 + excess) / excess * growth


def conjectured_exit_distortion_bound(degree: int, rate):
    """Smallest distortion the conjectured bound permits at ``rate``.

    The rate bound decreases from 1 at D = 0 to its limit 1/l at D = 1/2
    (for degree 1 it is identically 1), so at rates at or below 1/l no
    distortion under one half is admitted and the bound saturates at 0.5.
    Above, ``_newton`` solves on forms that keep their digits where R is
    flat in D.  Below the rate at b = ln((1 - D)/D)/2 = 1.5/l, where every
    k b is at most 1.5, it solves ln(l R - 1) = ln(l rate - 1) for ln b
    (``_conjecture_excess``): l R - 1 ~ b^2 near 1/l, so its steps keep
    their pace down to the floor.  From there it solves ln(rate/R) = 0 for
    ln D, from b = 1, or ln((1 - R)/(1 - rate)) = 0 from rate (1 + 1/l)/2
    on (``_conjecture_terms``), and ends with one Newton step in D itself,
    which sheds the rounding of ln D.  Each bracket reaches past the split
    by a factor of 2 in b, so a row there is bracketed either way.
    """
    _check_degree("degree", degree, _CONJECTURE_DEGREE_LIMIT)
    check_range("rate", rate, 0.0, 1.0)
    if degree == 1:
        return pick(rate == 1.0, 0.0, 0.5)
    floor, split, xp = 1.0 / degree, 1.5 / degree, math_of(rate)
    upper = rate >= conjectured_exit_rate_bound(degree, 1.0 / (1.0 + math.exp(2.0 * split)))
    lower = (rate > floor) & ~upper
    # l rate - 1: rate - floor is exact near 1/l, and the constant corrects for floor being
    # 1/l rounded.  A row at rate 1 is solved at the largest rate under 1.
    excess = degree * (rate - floor) - float(1 - degree * Fraction(floor))
    part, near_one = xp.minimum(rate, 1.0 - 2.0**-53), rate >= 0.5 * (1.0 + floor)

    def log_excess(u, rows):
        return _conjecture_excess(degree, xp.exp(u))

    def ratio(d, rows):  # ln(rate/R) or ln((1 - R)/(1 - rate)), rising in D, and its slope in ln D
        share, lack, tilt = _conjecture_terms(degree, d)
        target, top = (part, near_one) if rows is None else (part[rows], near_one[rows])
        level = pick(top, xp.log(lack / (1.0 - target)), xp.log(target / share))
        return level, pick(top, -share / lack * tilt, -tilt)

    def solve_lower(target):
        b = xp.exp(_newton(log_excess, math.log(1e-12), math.log(2.0 * split), xp.log(target)))
        return 1.0 / (1.0 + xp.exp(2.0 * b))

    def solve_upper(rows, target):
        def value(v, live):
            return ratio(xp.exp(v), rows if live is None else rows[live])

        ends = math.log(1e-22), -math.log1p(math.exp(split))
        d = xp.exp(_newton(value, *ends, target, start=-math.log1p(math.e**2)))
        level, slope = ratio(d, rows)
        return d * (1.0 - level / slope)

    if xp is np:
        solved, below, above = np.full_like(rate, 0.5), np.flatnonzero(lower), np.flatnonzero(upper)
        if below.size:
            solved[below] = solve_lower(excess[below])
        if above.size:
            solved[above] = solve_upper(above, np.zeros(above.size))
    else:
        solved = solve_lower(excess) if lower else solve_upper(None, 0.0) if upper else 0.5
    return pick(rate <= floor, 0.5, pick(rate == 1.0, 0.0, solved))


# ---------------------------------------------------------------------------
# curve sampling
# ---------------------------------------------------------------------------


class _Spec(NamedTuple):
    """What one ``sample_curve`` argument's value gives a curve: params, distortions, notes."""

    params: Callable
    solve: Callable
    notes: Callable = lambda value: ()


class _Family(NamedTuple):
    """A family's ``--bound`` flag, what it takes, its ``_Spec`` by argument, and its notice."""

    flag: str
    takes: str
    specs: dict
    notice: str | None = None


def _endpoint_notes(dist):
    """The counting arc's two ``parametric_endpoints`` as comment lines; none for the line."""
    ends = parametric_endpoints(dist) or ()
    return tuple(f"# arc endpoint x->{x}: D={d:.10g},R={r:.10g}" for x, (d, r) in zip("01", ends))


# Every curve family, by kind.  Each solve calls its bound by its module-global name when it
# runs, so a caller that rebinds that name (a tracer, a test) sees the call.
_FAMILIES = {
    "shannon": _Family("shannon", "", {None: _Spec(lambda _: (), lambda _, rates: shannon_distortion(rates))}),
    "counting": _Family("counting", "a degree profile or poisson:<r>, exactly one", {
        "dist": _Spec(lambda dist: (("degrees", dist.to_literal()),),
                      lambda dist, rates: counting_bound_distortion(dist, rates), _endpoint_notes),
        "check_degree": _Spec(lambda r: (("family", "poisson"), ("check_degree", str(r))),
                              lambda r, rates: _poisson_counting(r, rates),
                              lambda r: ("# poisson family: degree distribution rebuilt at every rate",))}),
    "test_channel": _Family("test-channel", "a regular degree, regular:<l>", {"degree": _Spec(
        lambda l: (("degree", str(l)),), lambda l, rates: test_channel_distortion_bound(l, rates))}),
    "dwr": _Family("dwr", "a check degree, poisson:<r>", {"check_degree": _Spec(
        lambda r: (("check_degree", str(r)),), lambda r, rates: poisson_ensemble_distortion_bound(r, rates))}),
    "conjectured_exit": _Family("conjecture", "a regular degree, regular:<l>", {"degree": _Spec(
        lambda l: (("degree", str(l)),), lambda l, rates: conjectured_exit_distortion_bound(l, rates))},
        "# CONJECTURE: unproven bound, not a theorem, and contradicted by explicit codes"),
}
CURVE_KINDS = tuple(_FAMILIES)


@dataclass(frozen=True, eq=False)
class BoundCurve:
    """A sampled bound curve: kind tag, rates in ascending order and the
    distortion at each as read-only float copies of the sequences given,
    generating params, a fixed-profile counting curve's unrounded
    distribution, and notes: its family's comment lines after the params.
    Equality is identity: arrays have no truth value.

    Checks every row: rates in [0, 1] and distortions in [0, 1/2], each to
    1e-12, rates sorted, and no distortion rising by more than 1e-9."""

    kind: str
    rates: np.ndarray
    distortions: np.ndarray
    params: tuple[tuple[str, str], ...]
    dist: DegreeDistribution | None = None
    notes: tuple[str, ...] = ()

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
        """Whether the curve is the unproven conjecture, the one family with a notice."""
        return _FAMILIES[self.kind].notice is not None


def sample_curve(
    kind: str,
    rate_grid,
    dist: DegreeDistribution | None = None,
    degree: int | None = None,
    check_degree: int | None = None,
) -> BoundCurve:
    """Sample one bound curve over a grid of rates.

    A family takes exactly one of the arguments its ``_FAMILIES`` row names
    (none for None), is solved for the whole grid at once, and ignores the
    rest; given none or more, it raises a ValueError saying what it takes.
    """
    if kind not in CURVE_KINDS:
        raise ValueError(f"unknown curve kind: {kind!r}")
    rates = np.sort(np.asarray(rate_grid, dtype=float))
    if not rates.size:
        raise ValueError("empty rate grid")
    if rates[0] < 0.0 or rates[-1] > 1.0:
        raise ValueError(f"rates outside [0, 1]: {rates[0]!r}..{rates[-1]!r}")

    family, given = _FAMILIES[kind], {None: None, "dist": dist, "degree": degree, "check_degree": check_degree}
    taken = [name for name in family.specs if name is None or given[name] is not None]
    if len(taken) != 1:
        raise ValueError(f"{kind} takes {family.takes}")
    value, spec = given[taken[0]], family.specs[taken[0]]
    fixed = value if taken[0] == "dist" else None
    return BoundCurve(kind, rates, spec.solve(value, rates), spec.params(value), fixed, spec.notes(value))
