"""Lower bounds on the rate-distortion performance of sparse generator codes.

All bounds target the binary symmetric source under Hamming distortion and
are expressed as curves in the (distortion, rate) plane.  Five families:

* ``shannon``: the information-theoretic optimum D = h^{-1}(1 - R).
* ``counting``: bound for a single code with a known generator degree
  distribution, obtained by counting low-weight codewords.
* ``test_channel``: bound for degree-regular codes via a perturbed test
  channel, maximized over the channel parameter D'.  Down to R = 1/l^2 it
  traces the counting arc: the ``counting`` curve itself at R >= 1/l, and
  lower than its straight segment below 1/l (0.3005 against 0.3641 at
  l = 3, R = 0.14).  The arc ends at its x -> 1 limit ((l-1)/(2l), 1/l^2);
  below that rate the maximum is the D' -> 1/2 limit, giving the line
  D = (1 - l R)/2.
* ``dwr``: bound for the ensemble of random codes whose check nodes all
  have one fixed degree (Poisson generator degrees in the limit).
* ``conjectured_exit``: a stronger curve obtained from an EXIT-style area
  argument.  It is a conjecture, not a theorem, and is labeled as such
  everywhere it is emitted.

The counting bound is pieced together from a parametric arc, traced by a
parameter x in (0, 1), and a straight segment through (D, R) = (1/2, 0)
that takes over at rates below the reciprocal of the average degree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .degree import DegreeDistribution, poisson_minimum_max_degree
from .numerics import (
    BracketError,
    binary_entropy,
    bisect_monotone,
    inverse_binary_entropy,
    kl_bernoulli,
)

__all__ = [
    "CURVE_KINDS",
    "BoundCurve",
    "CoverageExponent",
    "NoSolutionError",
    "RatePoint",
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
_X_LO = 1e-9
_X_HI = 1.0 - 1e-6
# Entries kept by the ``_line_anchor`` cache.  Fixed-profile curves reuse
# one entry; Poisson curves build a new distribution at every rate, so the
# cache must not grow with the grid.
_DIST_CACHE_SIZE = 16


class NoSolutionError(ValueError):
    """A bound has no solution in the admissible range."""


def shannon_distortion(rate: float) -> float:
    """Distortion of the Shannon rate-distortion curve at the given rate."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate out of range: {rate!r}")
    return inverse_binary_entropy(1.0 - rate, tol=1e-14)


# ---------------------------------------------------------------------------
# counting bound: parametric arc + straight segment
# ---------------------------------------------------------------------------


def parametric_rate(dist: DegreeDistribution, x: float) -> float:
    """Rate coordinate of the counting-bound arc at parameter x in (0, 1)."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"parameter must be in (0, 1), got {x!r}")
    numerator = 1.0 - binary_entropy(x / (1.0 + x))
    denominator = (
        1.0 - dist.log2_weight_gf(x) + dist.mean_occupancy(x) * math.log2(x)
    )
    return numerator / denominator


def parametric_distortion(dist: DegreeDistribution, x: float) -> float:
    """Distortion coordinate of the counting-bound arc at parameter x."""
    return x / (1.0 + x) - dist.mean_occupancy(x) * parametric_rate(dist, x)


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
    mass_zero = dict(dist.entries).get(0, 0.0)
    if mass_zero >= 1.0 - 1e-12:
        raise ValueError("distribution has no positive-degree mass")
    second = dist.moment(2)
    start = (0.0, 1.0 / (1.0 - mass_zero))
    end = ((second - dist.average_degree) / (2.0 * second), 1.0 / second)
    return start, end


def solve_x_for_rate(
    dist: DegreeDistribution, rate: float, residual_tol: float = 1e-10
) -> float:
    """Parameter x in (0, 1) whose arc rate equals ``rate``.

    Valid for rates between the reciprocal average degree and 1.  The
    inversion bisects, so it relies on the arc's rate decreasing in x, a
    property the test suite checks on dense grids over regular, Poisson and
    mixed profiles rather than per call.  Whatever the profile, the
    returned x satisfies |parametric_rate(x) - rate| <= residual_tol, or
    :class:`BracketError` is raised; the exception is rates so close to 1
    that the arc is clamped at its lower parameter cutoff.
    """
    average = dist.average_degree
    if average <= 1.0:
        raise ValueError(f"average degree must exceed 1, got {average!r}")
    if not 1.0 / average - 1e-12 <= rate <= 1.0:
        raise ValueError(
            f"rate {rate!r} outside [{1.0 / average!r}, 1], the arc's rate span"
        )
    fn = lambda x: parametric_rate(dist, x)
    if rate >= fn(_X_LO):
        return _X_LO
    x = bisect_monotone(fn, _X_LO, _X_HI, rate, tol=1e-15)
    residual = abs(fn(x) - rate)
    if residual > residual_tol:
        raise BracketError(
            f"rate inversion stalled: residual {residual:.3e} at x={x!r}"
        )
    return x


@functools.lru_cache(maxsize=_DIST_CACHE_SIZE)
def _line_anchor(dist: DegreeDistribution) -> tuple[float, float]:
    """Arc point (occupancy form) where the straight segment attaches."""
    average = dist.average_degree
    x_star = solve_x_for_rate(dist, 1.0 / average)
    return x_star / (1.0 + x_star), dist.mean_occupancy(x_star)


def counting_bound_distortion(dist: DegreeDistribution, rate: float) -> float:
    """Counting lower bound on distortion for one code at the given rate.

    Uses the parametric arc for rates at or above the reciprocal average
    degree and the straight
    segment through (1/2, 0) below it.  Distributions with average degree
    at most 1 degenerate to the line D = (1 - R)/2.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate out of range: {rate!r}")
    average = dist.average_degree
    if average <= 1.0:
        return (1.0 - rate) / 2.0
    if rate >= 1.0 / average:
        return parametric_distortion(dist, solve_x_for_rate(dist, rate))
    anchor_share, anchor_occupancy = _line_anchor(dist)
    return 0.5 * (
        1.0 - rate * average * (1.0 - 2.0 * (anchor_share - anchor_occupancy / average))
    )


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
    least value on a grid brackets the minimiser, and bisection on that
    sign finds it.
    """
    if not 0.0 <= distortion <= 0.5:
        raise ValueError(f"distortion out of range: {distortion!r}")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate out of range: {rate!r}")

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


def test_channel_rate_bound(degree: int, distortion: float) -> float:
    """Minimal rate supporting ``distortion`` on a degree-regular code.

    Maximizes N/Den = (1 - h(D) - KL(D || D')) / (1 - log2(1 + s^l)) over
    D' in [D, 1/2), s = D'/(1-D').  Its slope in D' has the sign of
    l q N - (D' - D) Den, q = s^l/(1 + s^l): positive at D' = D and, as
    checked on dense grids for l = 1..8, changing sign at most once, so
    bisection on that sign finds the maximiser.  The ratio is 0/0 at
    D' = 1/2 with limit (1 - 2D)/l, a candidate of its own; the search ends
    at 1/2 - 1e-4, where cancellation in N costs about four digits.  Below
    R = 1/l^2 the limit wins, so the bound is the line D = (1 - l R)/2.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree!r}")
    if not 0.0 <= distortion <= 0.5:
        raise ValueError(f"distortion out of range: {distortion!r}")
    if distortion == 0.0:
        return 1.0
    if distortion == 0.5:
        return 0.0

    base = 1.0 - binary_entropy(distortion)

    def terms(channel: float) -> tuple[float, float, float]:
        """Numerator, denominator and s^l/(1 + s^l) at D', with s = D'/(1-D')."""
        power = (channel / (1.0 - channel)) ** degree
        numerator = base - kl_bernoulli(distortion, channel)
        return numerator, 1.0 - math.log2(1.0 + power), power / (1.0 + power)

    def ratio(channel: float) -> float:
        numerator, denominator, _ = terms(channel)
        return numerator / denominator

    def slope(channel: float) -> float:
        """Has the sign of the ratio's derivative at D'."""
        numerator, denominator, share = terms(channel)
        return degree * share * numerator - (channel - distortion) * denominator

    limit = (1.0 - 2.0 * distortion) / degree
    hi = 0.5 - 1e-4
    if distortion >= hi:
        return max(ratio(distortion), limit)
    if slope(hi) < 0.0:
        hi = bisect_monotone(slope, distortion, hi, 0.0, tol=1e-12)
    return max(ratio(hi), limit)


def test_channel_distortion_bound(degree: int, rate: float) -> float:
    """Largest distortion the test-channel bound rules out below ``rate``."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree!r}")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate out of range: {rate!r}")
    if rate == 0.0:
        return 0.5
    return bisect_monotone(
        functools.partial(test_channel_rate_bound, degree), 0.0, 0.5, rate, tol=1e-12
    )


# ---------------------------------------------------------------------------
# fixed-check-degree ensemble bound (the "dwr" curve family)
# ---------------------------------------------------------------------------


def poisson_ensemble_rate_bound(check_degree: int, distortion: float) -> float:
    """Smallest rate R in (0, 1] with R(1 - exp(-(1-D) r / R)) >= 1 - h(D).

    This is the ensemble bound for random codes whose check nodes all have
    degree ``check_degree``.  Raises :class:`NoSolutionError` when even
    rate 1 fails the inequality.
    """
    if check_degree < 1:
        raise ValueError(f"check degree must be >= 1, got {check_degree!r}")
    if not 0.0 <= distortion <= 0.5:
        raise ValueError(f"distortion out of range: {distortion!r}")
    target = 1.0 - binary_entropy(distortion)
    if target == 0.0:
        return 0.0
    coupling = (1.0 - distortion) * check_degree

    def gain(rate: float) -> float:
        return rate * (1.0 - math.exp(-coupling / rate))

    if gain(1.0) < target:
        raise NoSolutionError(
            f"no admissible rate: gain at rate 1 is {gain(1.0):.6g} "
            f"< required {target:.6g} (check degree {check_degree}, "
            f"distortion {distortion!r})"
        )
    return bisect_monotone(gain, 1e-12, 1.0, target, tol=1e-14)


def poisson_ensemble_distortion_bound(check_degree: int, rate: float) -> float:
    """Distortion below which the fixed-check-degree ensemble bound bites."""
    if check_degree < 1:
        raise ValueError(f"check degree must be >= 1, got {check_degree!r}")
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate out of range: {rate!r}")

    def slack(distortion: float) -> float:
        return (
            1.0
            - binary_entropy(distortion)
            - rate * (1.0 - math.exp(-(1.0 - distortion) * check_degree / rate))
        )

    return bisect_monotone(slack, 0.0, 0.5, 0.0, tol=1e-14)


# ---------------------------------------------------------------------------
# conjectured EXIT-style bound (unproven)
# ---------------------------------------------------------------------------


def _entropy_gap(b: float) -> float:
    """1 - h(1/(1 + e^(2b))) for b >= 0, free of cancellation.

    Below b = 0.55 it is (b tanh b - ln cosh b)/ln 2, with ln cosh b
    written as log1p(2 sinh^2(b/2)), so the O(b^2) value near b = 0 keeps
    its relative precision.  Above, the entropy argument is at most 0.25
    and is written with e^(-2b), which cannot overflow.
    """
    if b < 0.55:
        return (b * math.tanh(b) - math.log1p(2.0 * math.sinh(0.5 * b) ** 2)) / math.log(2.0)
    tail = math.exp(-2.0 * b)
    return 1.0 - binary_entropy(tail / (1.0 + tail))


def conjectured_exit_rate_bound(degree: int, distortion: float) -> float:
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
    if not 0.0 <= distortion <= 0.5:
        raise ValueError(f"distortion out of range: {distortion!r}")
    if distortion == 0.0:
        return 1.0
    if distortion == 0.5:
        return 1.0 / degree
    keep = 1.0 - distortion
    b = 0.5 * (math.log1p(-distortion) - math.log(distortion))
    total = 0.0
    for i in range((degree + 1) // 2):
        pair = keep**i * distortion ** (degree - i) + keep ** (degree - i) * distortion**i
        total += math.comb(degree, i) * pair * _entropy_gap((degree - 2 * i) * b)
    return _entropy_gap(b) / total


def conjectured_exit_distortion_bound(degree: int, rate: float) -> float:
    """Smallest distortion the conjectured bound permits at ``rate``.

    The rate bound decreases from 1 at D = 0 to its limit 1/l at D = 1/2
    (for degree 1 it is identically 1), so at rates at or below 1/l no
    distortion under one half is admitted and the bound saturates at 0.5.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree!r}")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate out of range: {rate!r}")
    if degree == 1:
        return 0.0 if rate == 1.0 else 0.5
    if rate <= 1.0 / degree:
        return 0.5
    return bisect_monotone(
        functools.partial(conjectured_exit_rate_bound, degree), 0.0, 0.5, rate, tol=1e-12
    )


# ---------------------------------------------------------------------------
# curve sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatePoint:
    """One (distortion, rate) sample of a bound curve."""

    distortion: float
    rate: float

    def __post_init__(self) -> None:
        if not -1e-12 <= self.rate <= 1.0 + 1e-12:
            raise ValueError(f"rate out of range: {self.rate!r}")
        if not -1e-12 <= self.distortion <= 0.5 + 1e-12:
            raise ValueError(f"distortion out of range: {self.distortion!r}")


@dataclass(frozen=True)
class BoundCurve:
    """A sampled bound curve: kind tag, points by rate, generating params,
    and a fixed-profile counting curve's unrounded distribution."""

    kind: str
    points: tuple[RatePoint, ...]
    params: tuple[tuple[str, str], ...]
    dist: DegreeDistribution | None = None

    def __post_init__(self) -> None:
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind: {self.kind!r}")
        for before, after in zip(self.points, self.points[1:]):
            if after.rate < before.rate:
                raise ValueError("curve points must be sorted by rate")
            if after.distortion > before.distortion + 1e-9:
                raise ValueError(
                    f"distortion must not increase with rate: "
                    f"{before.distortion!r} -> {after.distortion!r}"
                )

    @property
    def is_conjecture(self) -> bool:
        return self.kind == "conjectured_exit"


def _poisson_family_member(check_degree: int, rate: float) -> DegreeDistribution:
    max_degree = poisson_minimum_max_degree(check_degree, rate)
    return DegreeDistribution.poisson_truncated(check_degree, rate, max_degree)


def sample_curve(
    kind: str,
    rate_grid,
    dist: DegreeDistribution | None = None,
    degree: int | None = None,
    check_degree: int | None = None,
) -> BoundCurve:
    """Sample one bound curve over a grid of rates.

    Parameter requirements by kind: ``counting`` takes either a fixed
    ``dist`` or a ``check_degree`` (the Poisson family is then rebuilt at
    every rate); ``test_channel`` and ``conjectured_exit`` take ``degree``;
    ``dwr`` takes ``check_degree``; ``shannon`` takes nothing.
    """
    if kind not in CURVE_KINDS:
        raise ValueError(f"unknown curve kind: {kind!r}")
    rates = sorted(float(r) for r in rate_grid)
    if not rates:
        raise ValueError("empty rate grid")
    if rates[0] < 0.0 or rates[-1] > 1.0:
        raise ValueError(f"rates outside [0, 1]: {rates[0]!r}..{rates[-1]!r}")

    params: list[tuple[str, str]] = []
    if kind == "shannon":
        evaluate = shannon_distortion
    elif kind == "counting":
        if (dist is None) == (check_degree is None):
            raise ValueError("counting curve needs exactly one of dist, check_degree")
        if dist is not None:
            params.append(("degrees", dist.to_literal()))
            evaluate = functools.partial(counting_bound_distortion, dist)
        else:
            params.append(("family", "poisson"))
            params.append(("check_degree", str(check_degree)))

            def evaluate(rate: float) -> float:
                return counting_bound_distortion(
                    _poisson_family_member(check_degree, rate), rate
                )

    elif kind == "test_channel":
        if degree is None:
            raise ValueError("test_channel curve needs degree")
        params.append(("degree", str(degree)))
        evaluate = functools.partial(test_channel_distortion_bound, degree)
    elif kind == "dwr":
        if check_degree is None:
            raise ValueError("dwr curve needs check_degree")
        params.append(("check_degree", str(check_degree)))

        def evaluate(rate: float) -> float:
            if rate == 0.0:
                return 0.5
            return poisson_ensemble_distortion_bound(check_degree, rate)

    else:  # conjectured_exit
        if degree is None:
            raise ValueError("conjectured_exit curve needs degree")
        params.append(("degree", str(degree)))
        evaluate = functools.partial(conjectured_exit_distortion_bound, degree)

    points = tuple(RatePoint(evaluate(rate), rate) for rate in rates)
    return BoundCurve(kind, points, tuple(params), dist if kind == "counting" else None)
