"""Lower bounds on the rate-distortion performance of sparse generator codes.

All bounds target the binary symmetric source under Hamming distortion and
are expressed as curves in the (distortion, rate) plane.  Five families:

* ``shannon``: the information-theoretic optimum D = h^{-1}(1 - R).
* ``counting``: bound for a single code with a known generator degree
  distribution, obtained by counting low-weight codewords.
* ``test_channel``: bound for degree-regular codes via a perturbed test
  channel D'; its numerator 1 - h(D) - KL(D || D') is affine in D, so the
  distortion bound is one maximisation over D'.  Down to R = 1/l^2 it
  traces the counting arc: the ``counting`` curve at R >= 1/l, and lower
  than its straight segment below 1/l (0.3005 against 0.3641 at l = 3,
  R = 0.14).  The arc ends at its x -> 1 limit ((l-1)/(2l), 1/l^2); below
  that, the maximum is the D' -> 1/2 limit, the line D = (1 - l R)/2.
* ``dwr``: bound for the ensemble of random codes whose check nodes all
  have one fixed degree (Poisson generator degrees in the limit).
* ``conjectured_exit``: a stronger curve obtained from an EXIT-style area
  argument.  It is a conjecture, not a theorem, and is labeled as such
  everywhere it is emitted.

The counting bound is pieced together from a parametric arc, traced by a
parameter x in (0, 1), and a straight segment through (D, R) = (1/2, 0)
that takes over at rates below the reciprocal of the average degree.

Every bound takes a float or a numpy array of rates (or distortions) and
answers in kind, so ``sample_curve`` solves a family over its whole rate
grid in one row-wise call of the shared root finder, ``bisect_monotone``,
while a single point takes its float loop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .degree import DegreeDistribution, poisson_rows, weight_transforms
from .numerics import (
    BracketError,
    _entropy,
    _entropy_deficit,
    binary_entropy,
    bisect_monotone,
    check_range,
    math_of,
    pick,
)

__all__ = [
    "CURVE_KINDS",
    "BoundCurve",
    "CoverageExponent",
    "NoSolutionError",
    "conjectured_exit_distortion_bound",
    "conjectured_exit_rate_bound",
    "counting_bound_distortion",
    "coverage_exponent",
    "parametric_distortion",
    "parametric_endpoints",
    "parametric_rate",
    "poisson_ensemble_distortion_bound",
    "poisson_ensemble_rate_bound",
    "sample_curve",
    "shannon_distortion",
    "solve_x_for_rate",
    "test_channel_distortion_bound",
    "test_channel_rate_bound",
]

CURVE_KINDS = ("shannon", "counting", "test_channel", "dwr", "conjectured_exit")

# Parametric evaluation is a 0/0 limit at both ends of (0, 1); stay inside.
# Rates within about 3e-8 of the arc's start have their parameter below
# _X_LO; they solve on [_X_MIN, _X_LO].
_X_MIN = 1e-300
_X_LO = 1e-9
_X_HI = 1.0 - 1e-6
# Entries kept by the ``_x_for_rate`` memo, keyed by profile and
# max(R, 1/avg): a fixed-profile curve uses one, its segment anchor at
# 1/avg; float calls must not grow it without end.
_DIST_CACHE_SIZE = 16
# The test-channel searches end at D' = 1/2 - 1e-4, where cancellation
# sets in, written as u = log2 s, s = D'/(1-D').
_CAP_U = math.log2((0.5 - 1e-4) / (0.5 + 1e-4))
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


def _arc(degrees, fractions, x):
    """The counting arc at x in (0, 1): its rate, its distortion, and the
    (share x/(1+x), mean occupancy) pair a straight segment anchors on."""
    log_gf, occupancy = weight_transforms(degrees, fractions, x)
    share = x / (1.0 + x)
    rate = (1.0 - _entropy(share)) / (1.0 - log_gf + occupancy * math_of(x).log2(x))
    return rate, share - occupancy * rate, (share, occupancy)


def _parameter(x):
    """x itself, once checked to lie in (0, 1)."""
    if not np.all((x > 0.0) & (x < 1.0)):
        raise ValueError(f"parameter must be in (0, 1), got {x!r}")
    return x


def parametric_rate(dist: DegreeDistribution, x):
    """Rate coordinate of the counting-bound arc at parameter x in (0, 1)."""
    return _arc(dist.degrees, dist.fractions, _parameter(x))[0]


def parametric_distortion(dist: DegreeDistribution, x):
    """Distortion coordinate of the counting-bound arc at parameter x."""
    return _arc(dist.degrees, dist.fractions, _parameter(x))[1]


def parametric_endpoints(
    dist: DegreeDistribution,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Analytic (distortion, rate) limits of the arc at x -> 0 and x -> 1.

    At x -> 0 the arc approaches (0, 1/(1 - L_0)), which is (0, 1) without
    degree-0 mass.  At x -> 1 it approaches ((M2 - M1)/(2 M2), 1/M2),
    where M1 and M2 are the first and second degree moments; for a regular
    l this is ((l-1)/(2l), 1/l^2).  Both are removable 0/0 limits of the
    parametric formulas, so they are exposed here in closed form.
    """
    mass_zero = dist.fractions[0] if dist.degrees[0] == 0 else 0.0
    if mass_zero >= 1.0 - 1e-12:
        raise ValueError("distribution has no positive-degree mass")
    second = dist.moment(2)
    start = (0.0, 1.0 / (1.0 - mass_zero))
    end = ((second - dist.average_degree) / (2.0 * second), 1.0 / second)
    return start, end


def _arc_parameter(degrees, fractions, rate, residual_tol: float = 1e-10):
    """x in (0, 1) where the arc's rate is ``rate``, row by row for an array.

    The profile is (degrees, fractions) as ``weight_transforms`` takes it.
    The root finder relies on the arc's rate decreasing in x.  Rates above
    its value at _X_LO are bracketed by [_X_MIN, _X_LO], the rest by
    [_X_LO, _X_HI].
    """

    def arc_rate(x):
        return _arc(degrees, fractions, x)[0]

    near_start = rate >= arc_rate(_X_LO + 0.0 * rate)  # _X_LO in the shape of rate
    lo = pick(near_start, _X_MIN, _X_LO)
    hi = pick(near_start, _X_LO, _X_HI)
    x = bisect_monotone(arc_rate, lo, hi, rate, tol=1e-15)
    residual = np.abs(arc_rate(x) - rate)
    stalled = np.flatnonzero(residual > residual_tol)
    if stalled.size:
        row = int(stalled[0])
        raise BracketError(
            f"rate inversion stalled: residual {np.ravel(residual)[row]:.3e} "
            f"at x={float(np.ravel(x)[row])!r}"
        )
    return x


def solve_x_for_rate(dist: DegreeDistribution, rate, residual_tol: float = 1e-10):
    """Parameter x in (0, 1) whose arc rate equals ``rate``.

    Valid for rates between the reciprocal average degree and 1; an array
    of rates is solved row by row.  The inversion brackets the root, so it
    relies on the arc's rate decreasing in x, a property the test suite
    checks on dense grids over regular, Poisson and mixed profiles rather
    than per call.  Whatever the profile, the returned x satisfies
    |parametric_rate(x) - rate| <= residual_tol, or :class:`BracketError`
    is raised.
    """
    average = dist.average_degree
    if average <= 1.0:
        raise ValueError(f"average degree must exceed 1, got {average!r}")
    check_range(f"rate on the arc's span [{1.0 / average!r}, 1]", rate, 1.0 / average - 1e-12, 1.0)
    return _arc_parameter(dist.degrees, dist.fractions, rate, residual_tol)


@functools.lru_cache(maxsize=_DIST_CACHE_SIZE)
def _x_for_rate(dist: DegreeDistribution, rate: float) -> float:
    """``solve_x_for_rate`` at one float rate, solved once per profile and rate."""
    return solve_x_for_rate(dist, rate)


def _counting(degrees, fractions, average, rate, x):
    """Counting bound at ``rate`` from the arc at x, its parameter at
    max(R, 1/average): that arc point from 1/average up, and below it the
    straight segment through (1/2, 0) that attaches there."""
    _, arc, (share, occupancy) = _arc(degrees, fractions, x)
    segment = 0.5 * (1.0 - rate * average * (1.0 - 2.0 * (share - occupancy / average)))
    return pick(rate >= 1.0 / average, arc, segment)


def counting_bound_distortion(dist: DegreeDistribution, rate):
    """Counting lower bound on distortion for one code at the given rate.

    Uses the parametric arc for rates at or above the reciprocal average
    degree and the straight segment through (1/2, 0) below it; at the
    arc's start rate 1/(1 - L_0) and above, the bound is 0.  Distributions
    with average degree at most 1 degenerate to the line D = (1 - R)/2.
    Only an array's arc rows are solved for; every segment row, and every
    float rate below 1/average, shares the memoised solve at 1/average.
    """
    check_range("rate", rate, 0.0, 1.0)
    average = dist.average_degree
    if average <= 1.0:
        return (1.0 - rate) / 2.0
    mass_zero = dist.fractions[0] if dist.degrees[0] == 0 else 0.0
    start, floor = 1.0 / (1.0 - mass_zero), 1.0 / average
    if isinstance(rate, np.ndarray):
        arc = rate >= floor
        x = np.empty_like(rate)
        if arc.any():
            x[arc] = solve_x_for_rate(dist, rate[arc])
        if not arc.all():
            x[~arc] = _x_for_rate(dist, floor)
    elif rate >= start:
        return 0.0
    else:
        x = _x_for_rate(dist, max(rate, floor))
    return pick(rate >= start, 0.0, _counting(dist.degrees, dist.fractions, average, rate, x))


def _poisson_counting(check_degree: int, rates: np.ndarray) -> np.ndarray:
    """Counting bound of the truncated Poisson family, one member per rate.

    Each row solves its member's arc once, at max(R, 1/avg), and
    ``_counting`` reads the bound off that point.  Members with average
    degree at most 1 keep the line D = (1 - R)/2.
    """
    parts = []
    for first in range(0, rates.size, _POISSON_ROWS):
        part = rates[first : first + _POISSON_ROWS]
        degrees, fractions = poisson_rows(check_degree, part)
        average = np.array([math.fsum(row) for row in (fractions * degrees).tolist()])
        distortion = (1.0 - part) / 2.0
        rows = np.flatnonzero(average > 1.0)
        if rows.size:
            rate, mean, profile = part[rows], average[rows], fractions[rows]
            x = _arc_parameter(degrees, profile, np.maximum(rate, 1.0 / mean))
            distortion[rows] = _counting(degrees, profile, mean, rate, x)
        parts.append(distortion)
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# coverage exponent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageExponent:
    """Infimum value of the coverage objective and the x attaining it."""

    value: float
    minimizer_x: float


def coverage_exponent(
    dist: DegreeDistribution, distortion: float, rate: float
) -> CoverageExponent:
    """Exponential growth-rate bound of the covered fraction of source space.

    Minimizes ``-R * (log2 gf(x) - a(x) log2 x) + R + h(D + a(x) R)`` over
    x >= 0 subject to D + a(x) R <= 1/2.  The curve traced by the counting
    bound is exactly the locus where this infimum equals 1.  The objective
    is increasing for x > 1, so the search is confined to [0, 1].  Its slope
    has the sign of x/(1+x) - D - a(x) R, which can change sign twice: the
    least value on a grid brackets the minimiser, and a root finder on
    that sign finds it.
    """
    check_range("distortion", distortion, 0.0, 0.5)
    check_range("rate", rate, 0.0, 1.0)

    def objective(x: float) -> float:
        if x == 0.0:
            return rate * (1.0 - dist.log2_weight_gf(0.0)) + binary_entropy(distortion)
        occupancy = dist.mean_occupancy(x)
        log_ratio = dist.log2_weight_gf(x) - occupancy * math.log2(x)
        return (
            -rate * log_ratio + rate + binary_entropy(distortion + occupancy * rate)
        )

    if rate == 0.0:
        return CoverageExponent(binary_entropy(distortion), 0.0)

    occupancy_cap = (0.5 - distortion) / rate
    if occupancy_cap <= 0.0:
        return CoverageExponent(objective(0.0), 0.0)
    if occupancy_cap < dist.mean_occupancy(1.0):
        x_hi = bisect_monotone(
            dist.mean_occupancy, 0.0, 1.0, occupancy_cap, tol=1e-14
        )
    else:
        x_hi = 1.0

    def slope(x: float) -> float:
        """Has the sign of the objective's derivative at x."""
        return x / (1.0 + x) - distortion - dist.mean_occupancy(x) * rate

    grid = np.concatenate(([0.0], np.geomspace(min(1e-9, x_hi), x_hi, 160)))
    best = int(np.argmin([objective(float(x)) for x in grid]))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, len(grid) - 1)])
    x_min = float(grid[best])
    if lo < hi and slope(lo) <= 0.0 <= slope(hi):
        x_min = bisect_monotone(slope, lo, hi, 0.0, tol=1e-12)
    candidates = [(objective(x), x) for x in (0.0, x_min, x_hi)]
    value, minimizer = min(candidates, key=lambda pair: (pair[0], pair[1]))
    return CoverageExponent(value, minimizer)


# ---------------------------------------------------------------------------
# test-channel bound (regular distributions)
# ---------------------------------------------------------------------------


def _channel(degree: int, u):
    """log2(1 - D'), D', s^l and Den = 1 - log2(1 + s^l) at s = D'/(1-D') = 2^u."""
    xp, s, power = math_of(u), 2.0**u, 2.0 ** (degree * u)
    return -xp.log1p(s) / math.log(2.0), s / (1.0 + s), power, 1.0 - xp.log2(1.0 + power)


def test_channel_rate_bound(degree: int, distortion):
    """Minimal rate supporting ``distortion`` on a degree-regular code.

    Maximizes N/Den = (1 - h(D) - KL(D || D')) / (1 - log2(1 + s^l)) over
    D' in [D, 1/2), s = D'/(1-D'); in u = log2 s, N = 1 + log2(1 - D') + D u.
    Its slope has the sign of l q N - (D' - D) Den, q = s^l/(1 + s^l):
    positive at D' = D and, as checked on dense grids for l = 1..8,
    changing sign at most once, so one root find in u gives the maximiser
    and resolves a D' near a tiny D relative to D.  The ratio is 0/0 at
    D' = 1/2 with limit (1 - 2D)/l, a candidate of its own and the bound
    past 1/2 - 1e-4, where the search ends: cancellation in N costs about
    four digits there.  Below R = 1/l^2 the limit wins: D = (1 - l R)/2.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree!r}")
    check_range("distortion", distortion, 0.0, 0.5)
    # rows at D = 0 and D = 1/2 are set at the end; keep their arithmetic finite
    d = pick((distortion > 0.0) & (distortion < 0.5), distortion, 0.25)
    xp, top = math_of(d), _CAP_U + 0.0 * d  # the cap in d's shape
    start = xp.log2(d / (1.0 - d))  # D' = D, as log2 s
    near = _channel(degree, start)[1]  # D as the search sees it, so D' - D is 0 at start

    def slope(u):  # has the sign of the ratio's derivative at s = 2^u
        keep, channel, power, den = _channel(degree, u)
        return degree * power / (1.0 + power) * (1.0 + keep + d * u) - (channel - near) * den

    # a row rising at the cap is solved there; past the cap only the limit counts
    capped = (start >= top) | (slope(top) >= 0.0)
    searched = lambda u: pick(capped, top - u, slope(u))
    u = bisect_monotone(searched, pick(capped, top - 1.0, start), top, 0.0, tol=1e-12)
    keep, _, _, den = _channel(degree, u)
    ratio = pick(start < top, (1.0 + keep + d * u) / den, 0.0)
    bound = xp.maximum(ratio, (1.0 - 2.0 * d) / degree)
    return pick(distortion == 0.0, 1.0, pick(distortion == 0.5, 0.0, bound))


def test_channel_distortion_bound(degree: int, rate):
    """Largest distortion the test-channel bound rules out below ``rate``.

    With B = log2((1 - D')/D') > 0, N = 1 + log2(1 - D') - D B, so N/Den >= R
    exactly when D <= phi_R(D') = A/B, A = 1 + log2(1 - D') - R Den.  The
    bound is the larger of the line (1 - l R)/2 and max phi_R over D' in
    (0, 1/2 - 1e-4].  phi_R's slope has the sign of A + (l R q - D') B,
    q = s^l/(1 + s^l): 1 - R as D' -> 0 and, checked on dense grids for
    l = 1..8, changing sign at most once, so one root find in log2 s gives
    the maximiser; a row rising at the cap takes the line.  There
    phi_R = D' - l R q < D', so the primal's D' >= D holds by itself.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree!r}")
    check_range("rate", rate, 0.0, 1.0)
    xp, top = math_of(rate), _CAP_U + 0.0 * rate  # the cap in rate's shape

    def dual(u):  # phi_R = A/B and A + (l R q - D') B at s = 2^u, where B = -u
        keep, channel, power, den = _channel(degree, u)
        a = 1.0 + keep - rate * den
        return -a / u, a - (degree * rate * power / (1.0 + power) - channel) * u

    rising = (rate == 1.0) | (dual(top)[1] >= 0.0)  # solved at the cap; R = 1 is set below
    slope = lambda u: pick(rising, top - u, dual(u)[1])
    u = bisect_monotone(slope, -200.0, top, 0.0, tol=1e-10)
    bound = xp.maximum(dual(u)[0], (1.0 - degree * rate) / 2.0)
    return pick(rate == 0.0, 0.5, pick(rate == 1.0, 0.0, bound))


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


def poisson_ensemble_rate_bound(check_degree: int, distortion: float) -> float:
    """Smallest rate R in (0, 1] with R(1 - exp(-(1-D) r / R)) >= 1 - h(D).

    This is the ensemble bound for random codes whose check nodes all have
    degree ``check_degree``.  Raises :class:`NoSolutionError` when even
    rate 1 fails the inequality.  Since R(1 - exp(...)) <= R, the rate is
    at least delta = 1 - h(D), which vanishes like (1 - 2D)^2 near D = 1/2;
    the root is bracketed on [delta, 1] and resolved relative to delta.
    """
    if check_degree < 1:
        raise ValueError(f"check degree must be >= 1, got {check_degree!r}")
    check_range("distortion", distortion, 0.0, 0.5)
    if distortion == 0.5:
        return 0.0
    slack = functools.partial(_dwr_slack, check_degree, distortion)
    if slack(1.0) > 0.0:
        raise NoSolutionError(
            f"no admissible rate: slack at rate 1 is {slack(1.0):.6g} > 0 "
            f"(check degree {check_degree}, distortion {distortion!r})"
        )
    delta = _entropy_deficit(distortion)
    return bisect_monotone(slack, delta, 1.0, 0.0, tol=1e-14 * delta)


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
    total = 0.0
    for i in range((degree + 1) // 2):
        pair = keep**i * d ** (degree - i) + keep ** (degree - i) * d**i
        total = total + math.comb(degree, i) * pair * _entropy_gap((degree - 2 * i) * b)
    bound = _entropy_gap(b) / total
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


@dataclass(frozen=True)
class BoundCurve:
    """A sampled bound curve: kind tag, rates in ascending order and the
    distortion at each as two tuples of floats, generating params, and a
    fixed-profile counting curve's unrounded distribution.

    Checks every row: rates in [0, 1] and distortions in [0, 1/2], each to
    1e-12, rates sorted, and no distortion rising by more than 1e-9."""

    kind: str
    rates: tuple[float, ...]
    distortions: tuple[float, ...]
    params: tuple[tuple[str, str], ...]
    dist: DegreeDistribution | None = None

    def __post_init__(self) -> None:
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind: {self.kind!r}")
        if len(self.rates) != len(self.distortions):
            raise ValueError(f"{len(self.rates)} rates but {len(self.distortions)} distortions")
        rates, distortions = np.array(self.rates, float), np.array(self.distortions, float)
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

    Parameter requirements by kind: ``counting`` takes either a fixed
    ``dist`` or a ``check_degree`` (the Poisson family then has a member
    per rate); ``test_channel`` and ``conjectured_exit`` take ``degree``;
    ``dwr`` takes ``check_degree``; ``shannon`` takes nothing.  Each
    family is solved for the whole grid at once.
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
            raise ValueError("counting curve needs exactly one of dist, check_degree")
        if dist is not None:
            params.append(("degrees", dist.to_literal()))
            distortions = counting_bound_distortion(dist, rates)
        else:
            params.append(("family", "poisson"))
            params.append(("check_degree", str(check_degree)))
            distortions = _poisson_counting(check_degree, rates)
    elif kind == "test_channel":
        if degree is None:
            raise ValueError("test_channel curve needs degree")
        params.append(("degree", str(degree)))
        distortions = test_channel_distortion_bound(degree, rates)
    elif kind == "dwr":
        if check_degree is None:
            raise ValueError("dwr curve needs check_degree")
        params.append(("check_degree", str(check_degree)))
        distortions = poisson_ensemble_distortion_bound(check_degree, rates)
    else:  # conjectured_exit
        if degree is None:
            raise ValueError("conjectured_exit curve needs degree")
        params.append(("degree", str(degree)))
        distortions = conjectured_exit_distortion_bound(degree, rates)

    rows = tuple(rates.tolist()), tuple(distortions.tolist())
    return BoundCurve(kind, *rows, tuple(params), dist if kind == "counting" else None)
