"""Float second routes to the bound stack's numbers, kept out of the package.

The package solves each bound family for the distortion at a rate.  These
solve the other way, or for a quantity the bound is a level set of:

* ``test_channel_rate_bound``: the test-channel bound's primal, the least
  rate at a distortion, maximising N/Den over D'; the package reads the
  bound off the counting arc, and this keeps the primal as the
  independent route;
* ``poisson_ensemble_rate_bound``: the least rate of the fixed-check-degree
  ensemble bound at a distortion;
* ``coverage_exponent``: the growth rate of the covered share of source
  space, equal to 1 on the counting curve;
* ``arc_parameter``: the counting arc's x at a rate, by the bisection the
  package solved it with before its Newton step;
* ``coefficient_growth_exponent``: the growth rate of the coefficient floor
  that ``exact.coefficient_lower_bound`` computes exactly.

Each writes its own formula, over the package's entropy helpers, range
check and root finder only: no function of ``ldgm_bounds.bounds`` or
``ldgm_bounds.exact`` is imported (``tests/test_layering.py`` holds it to
that), so a check of one route against the other shares no bound code.
"""

import math
from dataclasses import dataclass

import numpy as np

from ldgm_bounds.bounds import NoSolutionError
from ldgm_bounds.degree import DegreeDistribution
from ldgm_bounds.numerics import _entropy_deficit, binary_entropy, bisect_monotone, check_range

# The primal's search ends at D' = 1/2 - 1e-4, where cancellation in N sets
# in, written as u = log2 s, s = D'/(1-D').
_CAP_U = math.log2((0.5 - 1e-4) / (0.5 + 1e-4))


def _channel(degree: int, u: float):
    """log2(1 - D'), D', s^l and Den = 1 - log2(1 + s^l) at s = D'/(1-D') = 2^u."""
    s, power = 2.0**u, 2.0 ** (degree * u)
    return -math.log1p(s) / math.log(2.0), s / (1.0 + s), power, 1.0 - math.log2(1.0 + power)


def test_channel_rate_bound(degree: int, distortion: float) -> float:
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
    if distortion in (0.0, 0.5):
        return 1.0 - 2.0 * distortion  # rate 1 at D = 0, rate 0 at D = 1/2
    d, line = distortion, (1.0 - 2.0 * distortion) / degree
    start = math.log2(d / (1.0 - d))  # D' = D, as log2 s
    if start >= _CAP_U:
        return line
    near = _channel(degree, start)[1]  # D as the search sees it, so D' - D is 0 at start

    def slope(u):  # has the sign of the ratio's derivative at s = 2^u
        keep, channel, power, den = _channel(degree, u)
        return degree * power / (1.0 + power) * (1.0 + keep + d * u) - (channel - near) * den

    # a ratio still rising at the cap peaks there
    u = _CAP_U if slope(_CAP_U) >= 0.0 else bisect_monotone(slope, start, _CAP_U, 0.0, tol=1e-12)
    keep, _, _, den = _channel(degree, u)
    return max((1.0 + keep + d * u) / den, line)


def poisson_ensemble_rate_bound(check_degree: int, distortion: float) -> float:
    """Smallest rate R in (0, 1] with R(1 - exp(-(1-D) r / R)) >= 1 - h(D).

    This is the ensemble bound for random codes whose check nodes all have
    degree ``check_degree``.  Raises ``NoSolutionError`` when even rate 1
    fails the inequality.  Since R(1 - exp(...)) <= R, the rate is at least
    delta = 1 - h(D), which vanishes like (1 - 2D)^2 near D = 1/2; the root
    is bracketed on [delta, 1] and resolved relative to delta.
    """
    if check_degree < 1:
        raise ValueError(f"check degree must be >= 1, got {check_degree!r}")
    check_range("distortion", distortion, 0.0, 0.5)
    if distortion == 0.5:
        return 0.0
    delta = _entropy_deficit(distortion)

    def slack(rate):  # positive while the rate is too small for the distortion
        return delta - rate * (1.0 - math.exp(-(1.0 - distortion) * check_degree / rate))

    if slack(1.0) > 0.0:
        raise NoSolutionError(
            f"no admissible rate: slack at rate 1 is {slack(1.0):.6g} > 0 "
            f"(check degree {check_degree}, distortion {distortion!r})"
        )
    return bisect_monotone(slack, delta, 1.0, 0.0, tol=1e-14 * delta)


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


def coefficient_growth_exponent(dist: DegreeDistribution, omega: float) -> float:
    """Large-n growth rate (1/n) log2 of the coefficient floor at occupancy omega.

    omega must lie in (0, half the average degree]; the defining equation
    mean_occupancy(x) = omega is solved on (0, 1] and the exponent is
    log2_weight_gf(x) - omega * log2(x).
    """
    half_mean = dist.mean_occupancy(1.0)
    if not 0.0 < omega <= half_mean:
        raise ValueError(f"occupancy {omega!r} outside (0, {half_mean!r}]")
    if omega == half_mean:
        return dist.log2_weight_gf(1.0)
    x = bisect_monotone(dist.mean_occupancy, 0.0, 1.0, omega, tol=1e-15)
    return dist.log2_weight_gf(x) - omega * math.log2(x)


def arc_parameter(degrees, fractions, rate: float, top: float = 1.0 - 1e-6) -> float:
    """x in (0, top] where the counting arc of a positive-degree profile has ``rate``.

    The package's solve before its Newton step: one ``bisect_monotone``
    bracket in u = ln x on [ln 1e-30, ln top], to 1e-13, for ln(1 - R) =
    ln(1 - rate), a rate of 1 taken as 1 - 2^-53.  1 - R is
    sum_{i != 1} L_i (h_1 - h_i) / sum_i L_i (1 - h_i), h_i = h(x^i/(1 + x^i))
    = log2(1 + x^i) - i x^i/(1 + x^i) log2 x, written here on its own.
    """

    def log_deficit(u):
        x, log_x = math.exp(u), u / math.log(2.0)
        h = {d: math.log1p(x**d) / math.log(2.0) - d * x**d / (1.0 + x**d) * log_x for d in {1, *degrees}}
        top = math.fsum(f * (h[1] - h[d]) for d, f in zip(degrees, fractions) if d != 1)
        return math.log(top / math.fsum(f * (1.0 - h[d]) for d, f in zip(degrees, fractions)))

    target = math.log1p(-min(rate, 1.0 - 2.0**-53))
    return math.exp(bisect_monotone(log_deficit, math.log(1e-30), math.log(top), target, tol=1e-13))
