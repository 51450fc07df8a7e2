"""Bound families: reference values, identities, and curve sampling."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

import oracles_mp
from oracles import curve_check_naive
from oracles_float import (
    arc_parameter,
    coverage_exponent,
    poisson_ensemble_rate_bound,
    test_channel_rate_bound as channel_rate_bound,
)

from ldgm_bounds import (
    BoundCurve,
    DegreeDistribution,
    NoSolutionError,
    binary_entropy,
    conjectured_exit_distortion_bound,
    conjectured_exit_rate_bound,
    counting_bound_distortion,
    parametric_endpoints,
    poisson_ensemble_distortion_bound,
    sample_curve,
    shannon_distortion,
    solve_x_for_rate,
    test_channel_distortion_bound as channel_distortion_bound,
)
from ldgm_bounds import bounds as bounds_module
from ldgm_bounds.cli import parse_degree_spec
from ldgm_bounds.degree import parse_degree_literal, poisson_minimum_max_degree, weight_transforms

REG2 = DegreeDistribution.regular(2)
REG3 = DegreeDistribution.regular(3)
MIXED = DegreeDistribution.from_fractions({1: 0.5, 3: 0.5})
DEGREE0 = DegreeDistribution.from_fractions({0: 0.1, 2: 0.5, 4: 0.4})


def parametric_rate(dist, x):
    """Rate coordinate of the counting arc at parameter x."""
    return 1.0 - bounds_module._deficit(dist.degrees, dist.fractions, x)


def parametric_distortion(dist, x):
    """Distortion coordinate of the counting arc at parameter x: the share
    x/(1+x) less the mean occupancy times the rate."""
    return x / (1.0 + x) - dist.mean_occupancy(x) * parametric_rate(dist, x)


# Frozen references from independent 30-digit recomputations.
COUNTING_REG2_HALF = 0.11504158274866218
COUNTING_REG2_TWO_THIRDS = 0.06272310442371784
COUNTING_REG2_TWO_FIFTHS = 0.1920332661989297
COUNTING_REG3_THIRD = 0.17631293237801053
COUNTING_REG3_TWO_THIRDS = 0.06156056562895298
COUNTING_MIXED_HALF = 0.13223469928350787
X_REG2_HALF = 0.16479763571213157
ENSEMBLE_R4_D005 = 0.7171884451196279
CONJ_L2_D011 = 0.7007744813694133
CONJ_L3_D02 = 0.468258087174193
# Test-channel distortion bound where the maximising D' is interior
# (40-digit golden section in D', bisection in D).
TEST_CHANNEL_L2_R03 = 0.21167633869985068
TEST_CHANNEL_L3_R014 = 0.30045935479640406
TEST_CHANNEL_L4_R01 = 0.32518492149335144


# ---------------------------------------------------------------------------
# Shannon curve
# ---------------------------------------------------------------------------


def test_shannon_reference_values():
    assert shannon_distortion(0.5) == pytest.approx(0.11002786443835955, abs=1e-10)
    assert shannon_distortion(2.0 / 3.0) == pytest.approx(
        0.06149047007872418, abs=1e-10
    )


def test_shannon_endpoints():
    assert shannon_distortion(1.0) == 0.0
    assert shannon_distortion(0.0) == pytest.approx(0.5, abs=1e-12)


def test_shannon_rows_within_tolerance_of_mpmath():
    # Newton's method on sqrt(1 - h(D)) stops a row at a step of at most
    # 1e-12 D, past which its error is about the square of that step; what
    # is left is the rounding of 1 - h(D), a few ulps over the slope.
    rates = np.sort(np.random.default_rng(2024).uniform(0.0, 1.0, 150))
    for rate, distortion in zip(rates, shannon_distortion(rates)):
        expected = float(oracles_mp.shannon_distortion(float(rate)))
        assert abs(distortion - expected) <= 5e-15 + math.ulp(expected), rate


@pytest.mark.parametrize(
    "bound, relative",
    [
        pytest.param(shannon_distortion, 1e-15, id="shannon_distortion"),
        pytest.param(lambda rate: poisson_ensemble_distortion_bound(3, rate), 1e-15, id="<lambda>0"),
        pytest.param(lambda rate: conjectured_exit_distortion_bound(3, rate), 2e-15, id="<lambda>1"),
        pytest.param(lambda rate: counting_bound_distortion(REG3, rate), 1e-15, id="counting regular:3"),
        pytest.param(
            lambda rate: counting_bound_distortion(parse_degree_literal("2:0.25,3:0.5,6:0.25"), rate),
            1e-15,
            id="counting 2:0.25,3:0.5,6:0.25",
        ),
        pytest.param(lambda rate: counting_bound_distortion(DEGREE0, rate), 1e-15, id="counting 0:0.1,2:0.5,4:0.4"),
        pytest.param(lambda rate: channel_distortion_bound(3, rate), 1e-14, id="test-channel l=3"),
    ],
)
def test_float_calls_agree_with_array_rows(bound, relative):
    # Every family's Newton solve has no grid: a float call runs it in
    # math, an array in numpy, which differ in the last bits of log, exp,
    # tanh and sinh, and its rows differ from float calls in those bits over
    # the slope (up to 3 ulps for counting, 18 for test-channel rows near
    # the cap, where x is ill-conditioned), on 1.5% to 40% of the rows.
    # Shannon and dwr keep to 1e-15 here (4.9e-16 and 3.9e-16; over seeds
    # 0-29 up to 1.8e-15 and 2.6e-15, near R = 1).  The conjecture reaches
    # 1.9e-15 (seeds 0-29: 2.4e-15): its rows near 1/l and 1 solve on
    # l R - 1 and 1 - R, which keep their digits, but from b = 1/2 to about
    # 1, R rounds to a few ulps in any of its forms and is flat enough in D
    # to move D by twice that.
    rates = np.random.default_rng(5).uniform(0.05, 0.95, 400)
    floats = np.array([bound(float(rate)) for rate in rates])
    assert np.all(np.abs(bound(rates) - floats) <= relative * floats)


def _grid_evaluations(monkeypatch, solve):
    """Evaluations of the function solved in each ``numerics._newton`` solve that ``solve``
    makes, its ends included."""
    counts, newton = [], bounds_module._newton

    def counted_newton(value, *args, **kwargs):
        counts.append(0)

        def evaluate(*point):
            counts[-1] += 1
            return value(*point)

        return newton(evaluate, *args, **kwargs)

    monkeypatch.setattr(bounds_module, "_newton", counted_newton)
    solve()
    return counts


@pytest.mark.parametrize(
    "family, solve",
    [
        ("shannon", lambda: shannon_distortion(np.linspace(0.02, 0.98, 3000))),
        ("counting regular-3", lambda: counting_bound_distortion(REG3, np.linspace(0.02, 0.98, 3000))),
        ("dwr r=3", lambda: poisson_ensemble_distortion_bound(3, np.linspace(0.02, 0.98, 3000))),
        ("conjecture l=3", lambda: conjectured_exit_distortion_bound(3, np.linspace(1 / 3 + 1e-3, 0.98, 3000))),
    ],
)
def test_grid_solve_takes_few_evaluations(monkeypatch, family, solve):
    # Each Newton solve with its two ends.  Bisection took 48, 52, 48 and
    # 41 evaluations here, and bisect_monotone 13, 14, 13 and 14 to 15.
    # The counting arc in ln x takes 8 (8 to 9 for regular 2 to 5 and the
    # mixed profiles), where its bisection took 14 and the solve in x 14 to
    # 19.  Shannon and dwr take 7 on sqrt(1 - h(D)); on 1 - h(D) itself
    # they took 8 here, but a row near R = 0 took 36 to 41, as 1 - h has a
    # double root at D = 1/2.  The conjecture solves twice: the rows below
    # b = 1/2 in ln(l R - 1), 6, the rest in ln D from b = 1, 8, and one
    # more evaluation of those rows ends them with a step in D.
    counts = _grid_evaluations(monkeypatch, solve)
    pins = {"shannon": [7], "counting regular-3": [8], "dwr r=3": [7], "conjecture l=3": [6, 8]}[family]
    assert len(counts) == len(pins) and all(c <= pin for c, pin in zip(counts, pins)), (family, counts)


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_test_channel_grid_solve_starts_on_the_arc(monkeypatch, degree):
    # Only rows above the cap's rate are solved; the slowest lie just above
    # it, where the arc's rate is a 0/0 limit: Newton's steps there halve
    # the distance to the root, then hop within the rounding of ln(1 - R)
    # until the bracket is 1e-13 wide.  Bisection in ln x took 22, 23 and
    # 23 evaluations; the solve in x, on one of two brackets, 30, 34 and
    # 26; solving the rows below for the cap itself 27, 35 and 35; the
    # search over log2 s from -200 before that 43, 44 and 43.
    rates = np.linspace(0.02, 0.98, 3000)
    counts = _grid_evaluations(monkeypatch, lambda: channel_distortion_bound(degree, rates))
    assert counts and max(counts) <= {2: 17, 3: 19, 5: 14}[degree], counts


def test_test_channel_hundred_row_grid_solve(monkeypatch):
    # The benchmark's grid size; 16 evaluations by bisection in ln x, 18 in
    # x, 29 while rows below the cap solved.
    rates = np.linspace(0.05, 0.95, 100)
    counts = _grid_evaluations(monkeypatch, lambda: channel_distortion_bound(3, rates))
    assert counts and max(counts) <= 12, counts


def test_poisson_hundred_row_grid_solve(monkeypatch):
    # The benchmark's Poisson grid: one arc solve over every member's
    # positive part, their fractions sliced to the live rows; bisection in
    # ln x took 14 evaluations.
    rates = np.linspace(0.15, 0.95, 100)
    counts = _grid_evaluations(monkeypatch, lambda: sample_curve("counting", rates, check_degree=4))
    assert len(counts) == 1 and counts[0] <= 9, counts


def test_test_channel_rows_below_the_cap_read_it_unsolved(monkeypatch):
    # At l = 3 the cap's rate is 0.1111; every row here reads the tangent
    # at the cap, so the arc solve gets an empty array.
    rates = np.linspace(0.01, 0.1, 50)
    sizes, solve_arc = [], bounds_module._solve_arc

    def solve(degrees, fractions, rate, top):
        sizes.append(rate.size)
        return solve_arc(degrees, fractions, rate, top)

    monkeypatch.setattr(bounds_module, "_solve_arc", solve)
    bound = channel_distortion_bound(3, rates)
    assert sizes == [0]
    at_cap = bounds_module._tangent((3,), (1.0,), rates, np.full_like(rates, bounds_module._X_CAP))
    assert np.array_equal(bound, np.maximum(at_cap, (1.0 - 3.0 * rates) / 2.0))
    for rate, row in zip(rates.tolist(), bound):
        assert abs(channel_distortion_bound(3, rate) - row) <= 1e-15


# ---------------------------------------------------------------------------
# counting bound, parametric arc
# ---------------------------------------------------------------------------


def test_counting_regular2_reference_values():
    assert counting_bound_distortion(REG2, 0.5) == pytest.approx(
        COUNTING_REG2_HALF, abs=1e-10
    )
    assert counting_bound_distortion(REG2, 2.0 / 3.0) == pytest.approx(
        COUNTING_REG2_TWO_THIRDS, abs=1e-10
    )
    assert counting_bound_distortion(REG2, 0.4) == pytest.approx(
        COUNTING_REG2_TWO_FIFTHS, abs=1e-10
    )


def test_counting_regular3_reference_values():
    assert counting_bound_distortion(REG3, 1.0 / 3.0) == pytest.approx(
        COUNTING_REG3_THIRD, abs=1e-10
    )
    assert counting_bound_distortion(REG3, 2.0 / 3.0) == pytest.approx(
        COUNTING_REG3_TWO_THIRDS, abs=1e-10
    )


def test_counting_mixed_reference_value():
    assert counting_bound_distortion(MIXED, 0.5) == pytest.approx(
        COUNTING_MIXED_HALF, abs=1e-10
    )


def test_solve_x_reference():
    assert solve_x_for_rate(REG2, 0.5) == pytest.approx(X_REG2_HALF, abs=1e-9)


def test_solve_x_for_rate_solves_the_positive_part():
    # A degree-0 generator adds no codeword: the profile's arc is that of
    # its positive part 2:5/9,4:4/9 at 0.9 R, with the same x.
    positive = DegreeDistribution.from_fractions({2: 0.5 / 0.9, 4: 0.4 / 0.9})
    rates = [1.0 / DEGREE0.average_degree, 0.5, 0.75, 0.9, 1.0 - 1e-9, 1.0]
    solved = solve_x_for_rate(DEGREE0, np.array(rates))
    for rate, row in zip(rates, solved):
        expected = solve_x_for_rate(positive, 0.9 * rate)
        assert solve_x_for_rate(DEGREE0, rate) == pytest.approx(expected, rel=1e-13, abs=0)
        assert row == pytest.approx(expected, rel=1e-13, abs=0)


def test_parametric_round_trip():
    x = solve_x_for_rate(REG2, 0.7)
    assert parametric_rate(REG2, x) == pytest.approx(0.7, abs=1e-9)
    d = parametric_distortion(REG2, x)
    assert counting_bound_distortion(REG2, 0.7) == pytest.approx(d, abs=1e-12)


@st.composite
def mixed_profiles(draw):
    """1-5 positive degrees up to 60, plus degree-0 mass keeping the average above 1."""
    degrees = draw(st.lists(st.integers(1, 60), min_size=1, max_size=5, unique=True))
    if max(degrees) == 1:
        degrees.append(draw(st.integers(2, 60)))
    size = len(degrees)
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=size, max_size=size))
    total = sum(weights)
    positive_mean = sum(d * w for d, w in zip(degrees, weights)) / total
    zero_mass = draw(st.floats(0.0, 0.999)) * min(0.99, 1.0 - 1.0 / positive_mean)
    fractions = {d: (1.0 - zero_mass) * w / total for d, w in zip(degrees, weights)}
    if zero_mass > 0.0:
        fractions[0] = zero_mass
    return DegreeDistribution.from_fractions(fractions)


def poisson_member(check_degree, rate):
    """The truncated Poisson member a Poisson counting curve uses at ``rate``."""
    cut = poisson_minimum_max_degree(check_degree, rate)
    return DegreeDistribution.poisson_truncated(check_degree, rate, cut)


ARC_PROFILES = st.one_of(
    st.integers(2, 12).map(DegreeDistribution.regular),
    # r/R <= 1 leaves the truncated mean at or below 1: no arc
    st.builds(poisson_member, st.integers(1, 8), st.floats(0.15, 1.0)).filter(
        lambda dist: dist.average_degree > 1.0
    ),
    mixed_profiles(),
)


@settings(max_examples=100, deadline=None)
@given(ARC_PROFILES, st.integers(2000, 4000))
@example(DegreeDistribution.from_fractions({1: 0.999, 2: 0.001}), 4000)
@example(DegreeDistribution.from_fractions({0: 0.98, 60: 0.02}), 4000)
def test_parametric_rate_decreasing(dist, points):
    # solve_x_for_rate bisects on this property instead of checking it per
    # call.  Zero tolerance: no float rise anywhere on the grid.  The grid
    # stops short of x = 1, where the rate is a 0/0 limit and the solver's
    # residual check takes over.
    assert dist.average_degree > 1.0
    xs = np.linspace(1e-6, 1.0 - 1e-3, points)
    values = [parametric_rate(dist, float(x)) for x in xs]
    rises = [
        (float(xs[k + 1]), after - before)
        for k, (before, after) in enumerate(zip(values, values[1:]))
        if after > before
    ]
    assert not rises, rises[:3]


def arc_point_and_slope(dist, x):
    """Rate, distortion and slope dD/dR of the counting arc at x, the slope
    from the analytic derivatives in x of its closed form: s = x/(1+x),
    R = (1 - h(s))/Den with Den = 1 - G + occ log2 x, and D = s - occ R,
    G and occ being the log2 weight gf and the mean occupancy."""
    rate, distortion = parametric_rate(dist, x), parametric_distortion(dist, x)
    share, occupancy = x / (1.0 + x), dist.mean_occupancy(x)
    terms = [(i, f, x**i) for i, f in dist.entries]
    log_gf = sum(f * math.log2(1.0 + p) for _, f, p in terms)
    d_log_gf = sum(f * i * p / (x * (1.0 + p)) for i, f, p in terms) / math.log(2.0)
    d_occupancy = sum(f * i * i * p / (x * (1.0 + p) ** 2) for i, f, p in terms)
    log_x = math.log2(x)
    numerator, denominator = 1.0 - binary_entropy(share), 1.0 - log_gf + occupancy * log_x
    d_share = 1.0 / (1.0 + x) ** 2
    d_numerator = log_x * d_share  # h'(s) = log2((1 - s)/s) = -log2 x
    d_denominator = -d_log_gf + d_occupancy * log_x + occupancy / (x * math.log(2.0))
    d_rate = (d_numerator * denominator - numerator * d_denominator) / denominator**2
    d_distortion = d_share - d_occupancy * rate - occupancy * d_rate
    return rate, distortion, d_distortion / d_rate


@settings(max_examples=100, deadline=None)
@given(ARC_PROFILES)
# the largest intercept a search over 2753 random profiles found, 0.4143
@example(DegreeDistribution.from_fractions({1: 0.975, 12: 0.025}))
@example(DegreeDistribution.from_fractions({0: 0.98, 60: 0.02}))
def test_segment_rests_on_a_convex_arc_below_one_half(dist):
    # Below 1/avg the bound keeps t = R avg of the checks covered, which is
    # the best t only if the arc's tangent at r = R/t >= 1/avg meets R = 0
    # below D = 1/2.  Zero tolerance on both properties; the intercept also
    # has the closed form in the bounds module docstring.
    x = solve_x_for_rate(dist, 1.0 / dist.average_degree)
    rate, distortion, slope = arc_point_and_slope(dist, x)
    intercept = distortion - rate * slope
    assert intercept < 0.5
    assert intercept == pytest.approx(math.log2(2.0 / (1.0 + x)) / -math.log2(x), abs=1e-9)
    # Convex: the slope rises with R, so it falls along x, where R falls.
    xs = np.linspace(1e-6, 1.0 - 1e-3, 2000)
    slopes = [arc_point_and_slope(dist, float(t))[2] for t in xs]
    rises = [
        (float(xs[k + 1]), after - before)
        for k, (before, after) in enumerate(zip(slopes, slopes[1:]))
        if after > before
    ]
    assert not rises, rises[:3]


def test_parametric_endpoints_regular2():
    start, end = parametric_endpoints(REG2)
    assert start == (0.0, 1.0)
    assert end[0] == pytest.approx(0.25, abs=1e-15)
    assert end[1] == pytest.approx(0.25, abs=1e-15)


def test_parametric_endpoints_general_second_moment():
    # Non-regular case: R -> 1/E[i^2] and D -> (E[i^2]-E[i]) / (2 E[i^2]).
    start, end = parametric_endpoints(MIXED)
    second = MIXED.moment(2)
    assert start == (0.0, 1.0)
    assert end[1] == pytest.approx(1.0 / second, abs=1e-14)
    assert end[0] == pytest.approx(
        (second - MIXED.average_degree) / (2.0 * second), abs=1e-14
    )


@st.composite
def small_profiles(draw):
    """Integer weights 0-4 on degrees 0 to a top degree in 0-8; degree 0's may be 0."""
    top = draw(st.integers(0, 8))
    weights = draw(st.lists(st.integers(0, 4), min_size=top + 1, max_size=top + 1).filter(any))
    total = sum(weights)
    return DegreeDistribution.from_fractions({d: w / total for d, w in enumerate(weights) if w})


@settings(max_examples=150, deadline=None)
@given(small_profiles())
@example(parse_degree_literal("0:1"))
@example(parse_degree_literal("1:1"))
@example(parse_degree_literal("1:1.0000000000000002"))
@example(parse_degree_literal("0:0.9999999999999,2:1e-13"))
def test_parametric_endpoints_exist_exactly_off_the_line(dist):
    # The endpoints are None exactly when the counting curve is the line
    # (1 - R avg)/2 of the whole average; an arc lifts every row in (0, 1)
    # above it.  "0:1" raised ValueError, and "0:0.9999999999999,2:1e-13"
    # lies 1.2e-14 above its line at R = 1/2.
    rates = np.array([0.25, 0.5, 0.75])
    line = np.maximum((1.0 - rates * dist.average_degree) / 2.0, 0.0)
    curve = counting_bound_distortion(dist, rates)
    assert np.all(curve >= line)
    endpoints = parametric_endpoints(dist)
    assert (endpoints is None) == np.array_equal(curve, line), (dist, endpoints, curve - line)
    if endpoints is not None:
        scale = math.fsum(fraction for degree, fraction in dist.entries if degree)
        assert endpoints[0] == (0.0, pytest.approx(1.0 / scale, rel=1e-15))


def test_parametric_approaches_endpoints():
    x_small = 1e-8
    assert parametric_rate(REG2, x_small) == pytest.approx(1.0, abs=1e-6)
    assert parametric_distortion(REG2, x_small) == pytest.approx(0.0, abs=1e-6)
    # The x -> 1 side loses precision quadratically, so only the trend is
    # checked numerically; the exact limit is covered by parametric_endpoints.
    far, near = parametric_rate(REG2, 1.0 - 1e-2), parametric_rate(REG2, 1.0 - 1e-3)
    assert abs(near - 0.25) < abs(far - 0.25)


@st.composite
def fixed_profiles(draw):
    """1-4 distinct degrees in 1..12, ascending as a DegreeDistribution has them, with random
    fractions, as (degrees, fractions)."""
    degrees = sorted(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True)))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(degrees), max_size=len(degrees)))
    total = math.fsum(weights)
    return tuple(degrees), tuple(weight / total for weight in weights)


def log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


@settings(max_examples=150, deadline=None)
@given(fixed_profiles(), st.lists(log_uniform(1e-6, 0.99), min_size=1, max_size=12), st.floats(0.0, 1.0))
def test_fixed_profile_array_rows_match_float_calls(profile, xs, rate):
    # One degree at a time for a float and an array alike; numpy's power
    # and logarithms may differ from math's in the last bit.  The arc and
    # the tangent cancel toward 0: the arc's numerator 1 - h(x/(1+x)) is
    # about 1.8e-5 at x = 0.99, and a tangent near 0 keeps only the bits
    # its terms leave, so each also allows 1e-15 of its terms' scale.
    x = np.array(xs)
    log_gf, occupancy = weight_transforms(*profile, x)
    arc, tangent = 1.0 - bounds_module._deficit(*profile, x), bounds_module._tangent(*profile, rate, x)
    for k, value in enumerate(xs):
        assert (log_gf[k], occupancy[k]) == pytest.approx(weight_transforms(*profile, value), rel=1e-13, abs=0)
        share = value / (1.0 + value)
        arc_terms = 1e-15 / (1.0 - binary_entropy(share)) * abs(arc[k])
        assert abs(arc[k] - (1.0 - bounds_module._deficit(*profile, value))) <= 1e-13 * abs(arc[k]) + arc_terms
        single = bounds_module._tangent(*profile, rate, value)
        terms = (1.0 - rate + math.log2(1.0 + value) + rate * log_gf[k]) / -math.log2(value)
        assert abs(tangent[k] - single) <= 1e-13 * single + 1e-15 * terms


@settings(max_examples=40, deadline=None)
@given(fixed_profiles(), st.lists(log_uniform(1e-3, 0.9), min_size=1, max_size=4))
@example(((2, 3, 6), (0.25, 0.5, 0.25)), [1e-3, 0.05, 0.5, 0.9])
def test_arc_rate_matches_mpmath(profile, xs):
    x = np.array(xs)
    for row, value in zip(1.0 - bounds_module._deficit(*profile, x), xs):
        expected = float(oracles_mp.arc_rate(zip(*profile), value))
        assert abs(1.0 - bounds_module._deficit(*profile, value) - expected) <= 1e-13 * expected
        assert abs(row - expected) <= 1e-13 * expected


@settings(max_examples=60, deadline=None)
@given(fixed_profiles(), st.lists(log_uniform(1e-30, 0.99), min_size=1, max_size=4))
@example(((1, 2), (0.99, 0.01)), [1e-30, 1e-18, 1e-9, 0.5, 0.99])
@example(((1, 2), (0.9999999999, 1e-10)), [1e-30, 1e-9, 0.5, 0.99])
@example(((2, 3, 6), (0.25, 0.5, 0.25)), [1e-30, 1e-16, 1e-3, 0.99])
@example(((1, 2), (0.998003992015968, 0.001996007984031936)), [math.exp(-1.0)])
def test_deficit_matches_mpmath(profile, xs):
    # 1 - R keeps its relative digits down to x = 1e-30, where 1 - Num/Den
    # would be 0, and whatever the degree-1 share; array rows equal float
    # calls.  Its sums cancel toward x = 1, where Den -> 0: each check also
    # allows 1e-14/Den of the value: 5e-12 at x = 0.9 for 1:0.99,2:0.01,
    # which misses by 8e-14 there.  The oracle's formula assumes the fractions
    # sum to 1, so it gets them renormalised at 60 digits; the float form
    # does not depend on their sum.
    with mpmath.workdps(60):
        total = mpmath.fsum(map(mpmath.mpf, profile[1]))
        normalised = [(d, mpmath.mpf(f) / total) for d, f in zip(*profile)]
    rows = bounds_module._deficit(*profile, np.array(xs))
    for row, value in zip(rows, xs):
        expected = float(1 - oracles_mp.arc_rate(normalised, value))
        single = bounds_module._deficit(*profile, value)
        log_gf, occupancy = weight_transforms(*profile, value)
        cancelled = 1e-14 / (1.0 - log_gf + occupancy * math.log2(value))
        # regular 1 has 1 - R = 0; the oracle reads its 60-digit noise
        assert abs(single - expected) <= (1e-13 + cancelled) * expected + 1e-55, (value, single, expected)
        assert abs(row - single) <= (1e-14 + cancelled) * single


@settings(max_examples=60, deadline=None)
@given(fixed_profiles(), st.floats(0.0, 1.0))
@example(((1, 12), (0.9, 0.1)), 0.0)
@example(((1, 12), (0.9, 0.1)), 0.9)
@example(((2,), (1.0,)), 1.0)
def test_arc_solve_matches_bisection_and_mpmath(profile, position):
    # The Newton solve against the bisection it replaced and against a
    # 60-digit g(u) = ln(1 - R(e^u)), whose error over its slope is x's
    # relative error.  1 - R is log-uniform from 2^-53 to its value at
    # x = 1/2; above that the top of 1 - R, sum_i L_i (h_1 - h_i), cancels,
    # and both solves lose x's digits to it (1.4e-9 at x = 0.99 for
    # 1:0.99,2:0.01).  For 1:0.9,12:0.1, g is not concave: Newton points
    # overshoot the root and move the bracket's upper end.
    degrees, fractions = profile
    assume(math.fsum(d * f for d, f in zip(*profile)) > 1.0 + 1e-12)
    with mpmath.workdps(60):
        total = mpmath.fsum(map(mpmath.mpf, fractions))
        normalised = [(d, mpmath.mpf(f) / total) for d, f in zip(*profile)]
        g = lambda u: mpmath.log(1 - oracles_mp.arc_rate(normalised, mpmath.exp(u)))
        widest = math.log(float(mpmath.exp(g(mpmath.log(0.5)))))
    rate = 1.0 - math.exp(-53 * math.log(2.0) * (1.0 - position) + widest * position)
    x = bounds_module._solve_arc(degrees, fractions, rate)
    assert abs(x - arc_parameter(degrees, fractions, rate)) <= 2e-13 * x
    with mpmath.workdps(60):
        u = mpmath.log(x)
        slope = mpmath.diff(g, u, h=mpmath.mpf(10) ** -20)
        assert abs(g(u) - mpmath.log(1 - mpmath.mpf(rate))) <= 1e-14 * slope
        analytic = bounds_module._log_deficit(*bounds_module._split(degrees, fractions), math.log(x))[1]
        assert abs(analytic - slope) <= 1e-10 * slope


def test_arc_solve_keeps_its_newton_points_in_the_bracket(monkeypatch):
    # A Newton point outside the bracket is replaced by its midpoint: with
    # the slope taken 100 times too small, the steps overshoot, and the
    # solve still ends on the root, by bisection's bound on the steps.
    rates = np.linspace(0.3, 0.95, 50)
    solved = bounds_module._solve_arc((2,), (1.0,), rates)
    log_deficit = bounds_module._log_deficit

    def misled(*args):
        g, slope = log_deficit(*args)
        return g, slope / 100.0

    monkeypatch.setattr(bounds_module, "_log_deficit", misled)
    x = bounds_module._solve_arc((2,), (1.0,), rates)
    assert np.all(np.abs(x - solved) <= 1e-12 * solved)


def test_counting_line_segment_regular2():
    # Below the reciprocal average degree the arc hands off to a straight
    # line through (0, 1/2).
    assert counting_bound_distortion(REG2, 0.0) == 0.5
    arc_end = counting_bound_distortion(REG2, 0.5)
    line_end = counting_bound_distortion(REG2, 0.5 - 1e-12)
    assert line_end == pytest.approx(arc_end, abs=1e-9)


def test_counting_degenerate_low_degree():
    # Average degree <= 1 collapses the bound to the trivial line (1-R)/2;
    # so does an average 1 + 2e-16 or 1 + 4e-16, masses summing to 1 within
    # the 1e-12 a profile may be off, whose arc solve used to fail.
    for fractions in ({1: 1.0}, {1: 1.0000000000000002}, {1: 1.0000000000000002, 2: 1e-16}):
        dist = DegreeDistribution.from_fractions(fractions)
        for rate in (0.0, 0.3, 0.77, 1.0):
            assert counting_bound_distortion(dist, rate) == pytest.approx(
                (1.0 - rate) / 2.0, abs=1e-15
            )
        assert counting_bound_distortion(dist, 1.0) == 0.0
        assert counting_bound_distortion(dist, np.array([1.0]))[0] == 0.0


@settings(max_examples=60, deadline=None)
@given(mixed_profiles().filter(lambda dist: dist.degrees[0] == 0), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
@example(DEGREE0, [0.0, 0.1, 0.5, 0.9, 1.0])
def test_degree_zero_mass_scales_the_rate(dist, rates):
    # A degree-0 generator adds no codeword, so the bound of L at R is that
    # of its positive part L+ at R (1 - L_0), the mass renormalised by its
    # own sum.  These profiles average above 1, where the two rules agree.
    scale = math.fsum(fraction for degree, fraction in dist.entries if degree)
    positive = DegreeDistribution.from_fractions({d: f / scale for d, f in dist.entries if d})
    rates = np.array(rates)
    whole = counting_bound_distortion(dist, rates)
    assert np.all(np.abs(whole - counting_bound_distortion(positive, rates * scale)) <= 1e-15)
    for rate, row in zip(rates.tolist(), whole):
        assert abs(counting_bound_distortion(dist, rate) - row) <= 1e-15


def test_counting_rejects_bad_rate():
    with pytest.raises(ValueError):
        counting_bound_distortion(REG2, -0.1)
    with pytest.raises(ValueError):
        counting_bound_distortion(REG2, 1.1)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_counting_in_range_and_above_shannon(rate):
    value = counting_bound_distortion(REG2, rate)
    assert 0.0 <= value <= 0.5
    assert value >= shannon_distortion(rate) - 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.02, max_value=0.96),
    st.floats(min_value=0.005, max_value=0.03),
)
def test_counting_decreasing_in_rate(rate, step):
    lo = counting_bound_distortion(REG3, rate)
    hi = counting_bound_distortion(REG3, rate + step)
    assert hi <= lo + 1e-10


# ---------------------------------------------------------------------------
# coverage exponent
# ---------------------------------------------------------------------------


def test_coverage_exponent_below_curve_is_small():
    at_bound = counting_bound_distortion(REG2, 0.5)
    result = coverage_exponent(REG2, at_bound - 0.02, 0.5)
    assert result.value < 1.0


def test_coverage_exponent_on_curve_is_one():
    for rate in (0.55, 0.7, 0.9):
        at_bound = counting_bound_distortion(REG2, rate)
        result = coverage_exponent(REG2, at_bound, rate)
        assert result.value == pytest.approx(1.0, abs=1e-7)


def test_coverage_exponent_zero_rate():
    result = coverage_exponent(REG2, 0.3, 0.0)
    assert result.value == pytest.approx(binary_entropy(0.3), abs=1e-12)
    assert result.minimizer_x == 0.0


@pytest.mark.parametrize(
    "dist, distortion, rate",
    [
        (REG2, counting_bound_distortion(REG2, 0.6) - 0.01, 0.6),
        # The objective is flat to rounding around these minimisers, so
        # only the slope's sign can locate them.
        (DegreeDistribution.from_fractions({0: 0.5, 7: 0.5}), 0.01, 0.5),
        (DegreeDistribution.regular(7), 0.01, 0.5),
    ],
    ids=["regular2", "degree0-7", "regular7"],
)
def test_coverage_exponent_minimizer_stationarity(dist, distortion, rate):
    result = coverage_exponent(dist, distortion, rate)
    x = result.minimizer_x
    lhs = x / (1.0 + x)
    rhs = distortion + rate * dist.mean_occupancy(x)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_coverage_exponent_minimizer_respects_cap():
    # So close to D = 1/2 the cap D + a(x) R <= 1/2 puts x below 1e-9.
    dist = DegreeDistribution.regular(1)
    distortion, rate = 0.5 - 1e-12, 0.5
    result = coverage_exponent(dist, distortion, rate)
    assert distortion + rate * dist.mean_occupancy(result.minimizer_x) <= 0.5 + 1e-14


# ---------------------------------------------------------------------------
# test-channel bound
# ---------------------------------------------------------------------------


def test_test_channel_matches_counting_regular():
    for degree, dist in ((2, REG2), (3, REG3)):
        for rate in (1.0 / degree + 0.05, 0.6, 0.82):
            counting = counting_bound_distortion(dist, rate)
            channel = channel_distortion_bound(degree, rate)
            assert channel == pytest.approx(counting, abs=1e-6)


def test_test_channel_rate_bound_endpoints():
    assert channel_rate_bound(2, 0.0) == 1.0
    assert channel_rate_bound(2, 0.5) == 0.0


def test_test_channel_rate_bound_above_shannon():
    for d in (0.05, 0.11, 0.2, 0.3):
        assert channel_rate_bound(2, d) > 1.0 - binary_entropy(d)


def test_test_channel_distortion_bound_monotone():
    values = [channel_distortion_bound(3, r) for r in (0.4, 0.6, 0.8)]
    assert values[0] > values[1] > values[2]


@pytest.mark.parametrize(
    "degree, rate",
    [(2, 0.01), (2, 0.05), (2, 0.1), (2, 0.2), (3, 0.05), (3, 0.1), (4, 0.01), (4, 0.05)],
)
def test_test_channel_line_regime(degree, rate):
    # Below R = 1/l^2 the maximum sits at the D' -> 1/2 limit
    # (1 - 2D)/l, so the bound is the line D = (1 - l R)/2.
    expected = (1.0 - degree * rate) / 2.0
    assert channel_distortion_bound(degree, rate) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.floats(min_value=1e-6, max_value=0.4999))
def test_test_channel_rate_bound_against_grid(degree, distortion):
    # Brute force over D' on a fine grid: a missed second peak would put
    # the bound below the grid maximum.
    channels = np.linspace(distortion, 0.5 - 1e-4, 20001)
    divergence = distortion * np.log2(distortion / channels) + (
        1.0 - distortion
    ) * np.log2((1.0 - distortion) / (1.0 - channels))
    numerator = 1.0 - binary_entropy(distortion) - divergence
    denominator = 1.0 - np.log2(1.0 + (channels / (1.0 - channels)) ** degree)
    best = max(float(np.max(numerator / denominator)), (1.0 - 2.0 * distortion) / degree)
    value = channel_rate_bound(degree, distortion)
    assert best - 1e-12 <= value <= best + 1e-6


@pytest.mark.parametrize(
    "degree, distortion",
    [(2, 1.8855786548691747e-18), (1, 1e-15), (3, 1e-12), (8, 1e-300)],
)
def test_test_channel_rate_bound_at_tiny_distortion(degree, distortion):
    # The maximiser D' sits near D here; a search in log2 s resolves it
    # relative to D, not to an absolute width above D.
    reference = float(oracles_mp.test_channel_rate(degree, distortion))
    assert abs(channel_rate_bound(degree, distortion) - reference) <= 1e-15


# The arc's rates at the cap D' = 1/2 - 1e-4 for l = 2 and 3, where the
# arc solve ends.
CAP_RATE_L2, CAP_RATE_L3 = 0.2500000150403328, 0.11111112902515753


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@example(2, 0.26)
@example(4, 0.0626)
@example(3, 1.0 - 1e-6)
@example(2, CAP_RATE_L2)
@example(3, CAP_RATE_L3)
@example(1, 0.3)
def test_test_channel_distortion_bound_against_grid(degree, rate):
    # Brute force over D' on a fine grid, geometric below 1e-3 where the
    # maximiser sits at rates near 1: a missed second peak of
    # phi_R(D') = (1 + log2(1 - D') - R Den) / log2((1 - D')/D') would put
    # the bound below the grid maximum.
    channels = np.concatenate((np.geomspace(1e-12, 1e-3, 2000), np.linspace(1e-3, 0.5 - 1e-4, 20001)))
    denominator = 1.0 - np.log2(1.0 + (channels / (1.0 - channels)) ** degree)
    phi = (1.0 + np.log2(1.0 - channels) - rate * denominator) / np.log2((1.0 - channels) / channels)
    best = max(float(np.max(phi)), (1.0 - degree * rate) / 2.0)
    value = channel_distortion_bound(degree, rate)
    assert best - 1e-12 <= value <= best + 1e-6


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.floats(min_value=0.0, max_value=1.0))
@example(3, 1.0 / 9.0)
@example(2, 1.0 - 1e-12)
@example(5, 0.5)
@example(2, 1.0 - 1e-16)
@example(2, CAP_RATE_L2)
@example(3, CAP_RATE_L3)
@example(1, 0.3)
def test_test_channel_distortion_bound_inverts_rate_bound(degree, rate):
    # The bound, one maximisation over D' at a fixed R, against the primal
    # rate bound, which maximises N/Den over D' at a fixed D.  At
    # R = 1 - 1e-16 the unclamped tangent is -4.8e-18, which the primal's
    # range check refuses.
    distortion = channel_distortion_bound(degree, rate)
    assert abs(channel_rate_bound(degree, distortion) - rate) <= 1e-10


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_test_channel_equals_counting_arc(degree):
    # Between R = 1/l^2, where the arc reaches x -> 1, and R = 1 the
    # test-channel bound traces the counting arc, which is computed by an
    # independent route.
    dist = DegreeDistribution.regular(degree)
    for x in np.linspace(0.02, 0.98, 25):
        rate = parametric_rate(dist, float(x))
        expected = parametric_distortion(dist, float(x))
        assert channel_distortion_bound(degree, rate) == pytest.approx(expected, abs=1e-11)
    end = channel_distortion_bound(degree, 1.0 / degree**2)
    assert end == pytest.approx((degree - 1) / (2 * degree), abs=1e-11)


def degree_profiles_to_nine():
    """Profiles on degrees 0-9 with average degree above 1."""
    weights = st.dictionaries(st.integers(0, 9), st.floats(1e-3, 1.0), min_size=1)
    profiles = weights.map(
        lambda w: DegreeDistribution.from_fractions({d: v / sum(w.values()) for d, v in w.items()})
    )
    return profiles.filter(lambda dist: dist.average_degree > 1.0)


@pytest.mark.parametrize("degree", range(1, 13))
def test_test_channel_never_exceeds_counting(degree):
    # The test-channel objective is a tangent of the counting arc, and
    # below 1/l the arc lies under the counting segment.
    rates = np.linspace(0.0, 1.0, 20001)
    counting = counting_bound_distortion(DegreeDistribution.regular(degree), rates)
    excess = channel_distortion_bound(degree, rates) - counting
    assert excess.max() <= 1e-15, rates[excess.argmax()]


@settings(max_examples=200, deadline=None)
@given(degree_profiles_to_nine(), st.floats(0.01, 0.95), st.floats(0.0, 1.0))
def test_test_channel_objective_is_the_counting_arc_tangent(dist, x, rate):
    # phi_R(D') = (1 + log2(1 - D') - R Den) / log2((1 - D')/D'), with
    # Den = 1 - log2 gf(s) at s = D'/(1 - D'), is at D' = x/(1 + x) the
    # counting arc's tangent at x read at R; so, the arc being convex, its
    # slope in D' changes sign once, at the arc point of rate R.
    log_gf = math.fsum(f * math.log2(1.0 + x**d) for d, f in dist.entries)
    share = x / (1.0 + x)
    phi = (1.0 + math.log2(1.0 - share) - rate * (1.0 - log_gf)) / math.log2((1.0 - share) / share)
    arc_rate, arc_distortion = parametric_rate(dist, x), parametric_distortion(dist, x)
    tangent = arc_distortion + (1.0 - log_gf) / math.log2(x) * (rate - arc_rate)
    assert abs(phi - tangent) <= 1e-12


@pytest.mark.parametrize(
    "degree, rate, reference",
    [
        (2, 0.3, TEST_CHANNEL_L2_R03),
        (3, 0.14, TEST_CHANNEL_L3_R014),
        (4, 0.1, TEST_CHANNEL_L4_R01),
    ],
)
def test_test_channel_interior_reference_values(degree, rate, reference):
    assert channel_distortion_bound(degree, rate) == pytest.approx(reference, abs=1e-12)


# ---------------------------------------------------------------------------
# fixed-check-degree ensemble bound
# ---------------------------------------------------------------------------


def test_ensemble_rate_bound_against_independent_solver():
    # Same root found through a library solver on the defining equation.
    target = 1.0 - binary_entropy(0.05)

    def slack(rate):
        return rate * (1.0 - math.exp(-(1.0 - 0.05) * 4.0 / rate)) - target

    reference = brentq(slack, 1e-6, 1.0, xtol=1e-13)
    value = poisson_ensemble_rate_bound(4, 0.05)
    assert value == pytest.approx(reference, abs=1e-8)
    assert value == pytest.approx(ENSEMBLE_R4_D005, abs=1e-10)


def test_ensemble_rate_bound_no_solution():
    # Check degree 1 cannot reach the entropy target at distortion 0.01.
    with pytest.raises(NoSolutionError):
        poisson_ensemble_rate_bound(1, 0.01)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.floats(0.0, 0.5, exclude_max=True))
@example(4, 0.0)
@example(4, 0.05)
@example(4, 0.4999999)  # its bound, about 2.9e-14, lay below the old bracket's 1e-12
@example(4, 0.499999)
@example(4, 0.5 - 1e-9)
@example(4, 0.5 - 1e-12)
@example(1, 0.5 - 1e-12)
@example(8, 0.5 - 2.0**-53)
def test_ensemble_rate_bound_matches_mpmath(check_degree, distortion):
    # where rate 1 is within rounding of the boundary, either answer is right
    assume(abs(oracles_mp.dwr_slack(check_degree, distortion, 1)) > 1e-12)
    expected = oracles_mp.dwr_rate(check_degree, distortion)
    if expected is None:
        with pytest.raises(NoSolutionError):
            poisson_ensemble_rate_bound(check_degree, distortion)
        return
    value = poisson_ensemble_rate_bound(check_degree, distortion)
    assert abs(value - expected) <= 1e-10 * expected, (value, expected)


def test_ensemble_distortion_bound_round_trip():
    rate = poisson_ensemble_rate_bound(4, 0.05)
    back = poisson_ensemble_distortion_bound(4, rate)
    assert back == pytest.approx(0.05, abs=1e-8)


def test_ensemble_distortion_above_shannon():
    for rate in (0.45, 0.6, 0.85):
        assert poisson_ensemble_distortion_bound(2, rate) > shannon_distortion(rate)


def test_ensemble_distortion_at_rate_zero():
    # Rate 0 admits no distortion under one half, for a float and an array row.
    assert poisson_ensemble_distortion_bound(3, 0.0) == 0.5
    rows = poisson_ensemble_distortion_bound(3, np.array([0.0, 0.5]))
    assert rows[0] == 0.5
    assert rows[1] == poisson_ensemble_distortion_bound(3, 0.5)
    with pytest.raises(ValueError):
        poisson_ensemble_distortion_bound(3, -1e-300)


# ---------------------------------------------------------------------------
# conjectured bound
# ---------------------------------------------------------------------------


def test_conjecture_reference_values():
    assert conjectured_exit_rate_bound(2, 0.11) == pytest.approx(
        CONJ_L2_D011, abs=1e-12
    )
    assert conjectured_exit_rate_bound(3, 0.2) == pytest.approx(
        CONJ_L3_D02, abs=1e-12
    )


def test_conjecture_degree_one_is_trivial():
    for d in (0.0, 0.1, 0.25, 0.4, 0.49):
        assert conjectured_exit_rate_bound(1, d) == pytest.approx(1.0, abs=1e-12)


def test_conjecture_tighter_than_counting():
    for d in (0.05, 0.11, 0.2):
        conj = conjectured_exit_rate_bound(2, d)
        channel = channel_rate_bound(2, d)
        assert conj > channel


CONJECTURE_EDGE_DISTORTIONS = [5e-324, 1e-300] + [0.5 - 10.0**-k for k in range(1, 13)]


@pytest.mark.parametrize("degree", range(1, 13))
def test_conjecture_rate_matches_mpmath_at_edges(degree):
    for d in CONJECTURE_EDGE_DISTORTIONS:
        reference = float(oracles_mp.conjecture_rate(degree, d))
        assert abs(conjectured_exit_rate_bound(degree, d) - reference) <= 1e-14 * reference, d
    assert conjectured_exit_rate_bound(degree, 0.5) == 1.0 / degree


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 0.5 - 1e-12, exclude_min=True))
def test_conjecture_rate_matches_mpmath(degree, distortion):
    reference = float(oracles_mp.conjecture_rate(degree, distortion))
    assert abs(conjectured_exit_rate_bound(degree, distortion) - reference) <= 1e-14 * reference


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize(
    # the last four are gaps where bisecting on R itself, which is known to
    # a few ulp only there, misses by 1.1e-12 to 1.8e-12
    "gap", [10.0**-k for k in range(3, 9)] + [1.07e-8, 1.26e-8, 1.41e-8, 2.41e-8]
)
def test_conjecture_distortion_near_reciprocal_degree(degree, gap):
    # Just above R = 1/l the crossing lies near D = 1/2, where the rate
    # bound is a ratio of two O((1/2 - D)^2) quantities.
    rate = 1.0 / degree + gap
    reference = float(oracles_mp.conjecture_distortion(degree, rate))
    assert abs(conjectured_exit_distortion_bound(degree, rate) - reference) <= 1e-12
    row = sample_curve("conjectured_exit", [rate], degree=degree).distortions[0]
    assert abs(row - reference) <= 1e-12


def test_conjecture_distortion_inversion():
    rate = conjectured_exit_rate_bound(2, 0.11)
    back = conjectured_exit_distortion_bound(2, rate)
    assert back == pytest.approx(0.11, abs=1e-8)


def test_conjecture_saturates_at_low_rate():
    # The rate bound never falls below 1/l, so such rates admit nothing
    # under one half.
    assert conjectured_exit_distortion_bound(2, 0.5) == 0.5
    assert conjectured_exit_distortion_bound(3, 1.0 / 3.0) == 0.5
    assert conjectured_exit_distortion_bound(1, 0.99) == 0.5
    assert conjectured_exit_distortion_bound(1, 1.0) == 0.0


# ---------------------------------------------------------------------------
# curve sampling
# ---------------------------------------------------------------------------


def test_rate_point_validation():
    with pytest.raises(ValueError, match="distortion out of range: 0.6"):
        BoundCurve("shannon", rates=(0.5,), distortions=(0.6,), params=())
    with pytest.raises(ValueError, match="rate out of range: 1.5"):
        BoundCurve("shannon", rates=(1.5,), distortions=(0.1,), params=())
    with pytest.raises(ValueError, match="2 rates but 1 distortions"):
        BoundCurve("shannon", rates=(0.2, 0.5), distortions=(0.1,), params=())


def test_bound_curve_rejects_unknown_kind():
    with pytest.raises(ValueError):
        BoundCurve(kind="mystery", rates=(), distortions=(), params=())


RATE_EDGES = [math.nan, 0.0, 1.0, -1e-12, -2e-12, 1.0 + 1e-12, 1.0 + 2e-12]
DISTORTION_EDGES = [math.nan, 0.0, 0.5, -1e-12, -2e-12, 0.5 + 1e-12, 0.5 + 2e-12]


@st.composite
def curve_rows(draw):
    """Short curves at the checks' edges: NaN, values 1e-12 and 2e-12 past
    each end of the range, tied rates, and rises of 5e-10 and 2e-9."""
    size = draw(st.integers(0, 5))
    rate_steps = st.sampled_from([0.0, 0.0, 0.1, 0.25, -0.1])
    distortion_steps = st.sampled_from([0.0, -0.05, 5e-10, 2e-9])
    rates = [draw(st.sampled_from(RATE_EDGES) | st.floats(0.0, 1.0))]
    distortions = [draw(st.sampled_from(DISTORTION_EDGES) | st.floats(0.0, 0.5))]
    for _ in range(1, size):
        rates.append(rates[-1] + draw(rate_steps))
        distortions.append(distortions[-1] + draw(distortion_steps))
    for row in draw(st.lists(st.integers(0, max(size - 1, 0)), max_size=2)):
        if draw(st.booleans()):
            rates[row] = draw(st.sampled_from(RATE_EDGES))
        else:
            distortions[row] = draw(st.sampled_from(DISTORTION_EDGES))
    return rates[:size], distortions[:size]


def _rejection(check, *args):
    """The message ``check`` raises for ``args``, or None when it accepts them."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(curve_rows())
@example(([0.2, 0.2, 0.5], [0.3, 0.3 + 5e-10, 0.1]))
@example(([0.2, 0.5], [0.3, 0.3 + 2e-9]))
@example(([0.5, 0.2], [0.3, 0.3 + 2e-9]))
@example(([0.2, 1.0 + 2e-12], [0.5 + 2e-12, 0.1]))
@example(([0.2, math.nan], [0.3, 0.1]))
def test_bound_curve_checks_match_naive(rows):
    rates, distortions = rows
    expected = _rejection(curve_check_naive, rates, distortions)
    got = _rejection(BoundCurve, "shannon", tuple(rates), tuple(distortions), ())
    assert got == expected


@st.composite
def curve_inputs(draw):
    """Rows of a valid curve, as tuples, lists or float64 arrays."""
    size = draw(st.integers(0, 6))
    rates = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    distortions = sorted(
        draw(st.lists(st.floats(0.0, 0.5), min_size=size, max_size=size)), reverse=True
    )
    form = draw(st.sampled_from([tuple, list, np.array]))
    return rates, distortions, form


@settings(max_examples=100, deadline=None)
@given(curve_inputs())
def test_bound_curve_holds_read_only_copies(inputs):
    rates, distortions, form = inputs
    given_rates, given_distortions = form(rates), form(distortions)
    curve = BoundCurve("shannon", given_rates, given_distortions, ())
    for held, values in ((curve.rates, rates), (curve.distortions, distortions)):
        assert held.dtype == np.float64 and held.shape == (len(values),)
        assert not held.flags.writeable
        assert held.tolist() == values
        with pytest.raises(ValueError, match="read-only"):
            held[...] = 0.25
    if form is not tuple:
        for given_values in (given_rates, given_distortions):
            given_values[:] = [math.nan] * len(given_values)
    assert curve.rates.tolist() == rates
    assert curve.distortions.tolist() == distortions


def test_sample_curve_shannon():
    curve = sample_curve("shannon", [0.2, 0.5, 0.8])
    assert curve.kind == "shannon"
    assert curve.rates.tolist() == [0.2, 0.5, 0.8]
    assert curve.distortions[1] == pytest.approx(0.11002786443835955, abs=1e-9)
    assert not curve.is_conjecture


def test_sample_curve_counting_fixed_distribution():
    curve = sample_curve("counting", [0.4, 0.5, 0.66], dist=REG2)
    assert dict(curve.params)["degrees"] == REG2.to_literal()
    distortions = curve.distortions
    assert distortions[0] > distortions[1] > distortions[2]


def test_sample_curve_counting_poisson_family():
    curve = sample_curve("counting", [0.5, 0.7], check_degree=2)
    assert dict(curve.params)["family"] == "poisson"
    assert curve.distortions[0] == pytest.approx(0.1161882945, abs=1e-6)


def test_sample_curve_dominance_over_shannon():
    rates = [0.3, 0.5, 0.7, 0.9]
    counting = sample_curve("counting", rates, dist=REG2)
    shannon = sample_curve("shannon", rates)
    for c, s in zip(counting.distortions, shannon.distortions):
        assert c > s


def test_sample_curve_conjecture_flagged():
    curve = sample_curve("conjectured_exit", [0.6, 0.8], degree=2)
    assert curve.is_conjecture


GRID = [k / 40 for k in range(41)]


@pytest.mark.parametrize(
    "kind, params, rates, point",
    [
        ("shannon", {}, GRID, shannon_distortion),
        ("counting", {"dist": REG3}, GRID, lambda r: counting_bound_distortion(REG3, r)),
        ("counting", {"dist": DEGREE0}, GRID, lambda r: counting_bound_distortion(DEGREE0, r)),
        ("counting", {"check_degree": 3}, GRID[1:], lambda r: counting_bound_distortion(poisson_member(3, r), r)),
        ("test_channel", {"degree": 3}, GRID, lambda r: channel_distortion_bound(3, r)),
        ("dwr", {"check_degree": 3}, GRID, lambda r: poisson_ensemble_distortion_bound(3, r)),
        ("conjectured_exit", {"degree": 3}, GRID, lambda r: conjectured_exit_distortion_bound(3, r)),
    ],
    ids=["shannon", "counting", "counting-degree0", "poisson", "test_channel", "dwr", "conjecture"],
)
def test_curve_rows_match_float_calls(kind, params, rates, point):
    # The float route is the reference for the row-wise solve.  The two
    # round differently, so a bisection may end one step apart: the bound
    # is twice the coarsest solver tolerance, 1e-12.
    curve = sample_curve(kind, rates, **params)
    assert curve.rates.tolist() == rates
    for array in (curve.rates, curve.distortions):
        assert array.dtype == np.float64 and not array.flags.writeable
    for rate, distortion in zip(rates, curve.distortions):
        assert distortion == pytest.approx(point(rate), abs=2e-12), rate


def test_sample_curve_argument_validation():
    with pytest.raises(ValueError):
        sample_curve("counting", [0.5])  # needs a distribution or family
    with pytest.raises(ValueError):
        sample_curve("counting", [0.5], dist=REG2, check_degree=2)
    with pytest.raises(ValueError):
        sample_curve("test_channel", [0.5])  # needs degree
    with pytest.raises(ValueError):
        sample_curve("dwr", [0.5])  # needs check degree
    with pytest.raises(ValueError):
        sample_curve("shannon", [0.5, 1.5])  # rate out of range


# ---------------------------------------------------------------------------
# solves per curve
# ---------------------------------------------------------------------------

def test_poisson_curve_leaves_bounded_caches():
    # The bound stack keeps no memo for a curve to fill.  Check degree 1
    # puts every rate below its member's reciprocal average degree, so
    # each row takes the segment, anchored on its own member; rows match
    # the float route.
    rates = [0.05 + 0.9 * k / 299 for k in range(300)]
    curve = sample_curve("counting", rates, check_degree=1)
    for k in (0, 150, 299):
        member = poisson_member(1, rates[k])
        assert rates[k] < 1.0 / member.average_degree
        expected = counting_bound_distortion(member, rates[k])
        assert curve.distortions[k] == pytest.approx(expected, abs=1e-12)


def test_poisson_curve_memory_does_not_grow_with_the_grid():
    # The zero-padded pmf matrix is built a bounded number of rows at a
    # time; built whole, this grid's matrices peak at about 24 MB.
    rates = [0.05 + 0.9 * k / 1999 for k in range(2000)]
    tracemalloc.start()
    try:
        sample_curve("counting", rates, check_degree=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_fixed_profile_curve_solves_its_anchor_with_its_arc(monkeypatch):
    # Regular 2 over R 0.05..0.95 spans 1/avg = 1/2: the arc rows and the
    # segment's anchor at 1/2, the last rate, share one row-wise arc solve,
    # and no float solve runs.  A second curve repeats exactly that.
    rates = [0.05 + 0.9 * k / 49 for k in range(50)]
    arc_rows = sum(rate >= 0.5 for rate in rates)
    assert 0 < arc_rows < len(rates)
    solved, solve_arc = [], bounds_module._solve_arc

    def counted(degrees, fractions, rate, *top):
        solved.append(np.array(rate, copy=True))
        return solve_arc(degrees, fractions, rate, *top)

    monkeypatch.setattr(bounds_module, "_solve_arc", counted)
    first = sample_curve("counting", rates, dist=REG2)
    assert [rate.shape for rate in solved] == [(arc_rows + 1,)]
    assert solved[0][-1] == 0.5
    assert solved[0][:-1].tolist() == [rate for rate in rates if rate >= 0.5]
    previous = solved[:]
    solved.clear()
    second = sample_curve("counting", rates, dist=REG2)
    assert np.array_equal(second.rates, first.rates)
    assert np.array_equal(second.distortions, first.distortions)
    assert (second.kind, second.params, second.dist) == (first.kind, first.params, first.dist)
    assert len(solved) == 1
    assert np.array_equal(solved[0], previous[0])


# ---------------------------------------------------------------------------
# sampled curves against 60-digit mpmath, family by family
# ---------------------------------------------------------------------------

RATE_LISTS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6)


def assert_rows_match(curve, oracle, tol=1e-10):
    for rate, distortion in zip(curve.rates, curve.distortions):
        expected = float(oracle(rate))
        assert abs(distortion - expected) <= tol, (rate, distortion, expected)


@settings(max_examples=30, deadline=None)
@given(RATE_LISTS)
@example([0.0, 1e-300, 1e-20, 1e-9, 0.5, 1.0 - 1e-9, 1.0])
def test_shannon_curve_matches_mpmath(rates):
    assert_rows_match(sample_curve("shannon", rates), oracles_mp.shannon_distortion)


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.integers(1, 8).map(DegreeDistribution.regular), mixed_profiles()), RATE_LISTS)
@example(DegreeDistribution.from_fractions({0: 0.1, 2: 0.5, 4: 0.4}), [0.0, 0.1, 0.5, 1.0])
@example(DegreeDistribution.from_fractions({1: 0.5, 3: 0.5}), [0.01, 0.3, 0.5, 0.99])
@example(DegreeDistribution.regular(3), [1.0 - 3.13e-8, 1.0 - 1e-12, 1.0])
@example(DegreeDistribution.from_fractions({0: 0.5, 1: 0.5}), [0.0, 0.05, 0.5, 0.95, 1.0])
def test_counting_curve_matches_mpmath(dist, rates):
    curve = sample_curve("counting", rates, dist=dist)
    assert_rows_match(curve, lambda rate: oracles_mp.counting_distortion(dist.entries, rate))


@settings(max_examples=6, deadline=None)
@given(st.integers(1, 6), st.lists(st.floats(0.15, 1.0), min_size=1, max_size=3))
@example(4, [0.15, 0.5, 1.0])
@example(1, [0.2, 0.9, 1.0])
def test_poisson_counting_curve_matches_mpmath(check_degree, rates):
    curve = sample_curve("counting", rates, check_degree=check_degree)
    assert_rows_match(
        curve,
        lambda rate: oracles_mp.counting_distortion(
            oracles_mp.poisson_profile(check_degree, rate), rate
        ),
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8), RATE_LISTS)
@example(3, [0.0, 1e-300, 1e-20, 0.02, 0.5, 1.0])
def test_dwr_curve_matches_mpmath(check_degree, rates):
    curve = sample_curve("dwr", rates, check_degree=check_degree)
    assert_rows_match(curve, lambda rate: oracles_mp.dwr_distortion(check_degree, rate))


@settings(max_examples=5, deadline=None)
@given(st.integers(2, 5), st.lists(st.floats(0.01, 1.0), min_size=1, max_size=2))
@example(3, [0.05, 0.14, 1.0])
def test_test_channel_curve_matches_mpmath(degree, rates):
    curve = sample_curve("test_channel", rates, degree=degree)
    assert_rows_match(curve, lambda rate: oracles_mp.test_channel_distortion(degree, rate))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
@example(3, [0.2, 1.0 / 3.0 + 1e-9, 0.5, 1.0])
def test_conjecture_curve_matches_mpmath(degree, rates):
    def oracle(rate):
        if rate <= 1.0 / degree:
            return 0.5
        if rate == 1.0:
            return 0.0
        return oracles_mp.conjecture_distortion(degree, rate)

    assert_rows_match(sample_curve("conjectured_exit", rates, degree=degree), oracle)


def _solved_function(solve):
    """The function the one ``numerics._newton`` call of ``solve`` solves, taking a float x to
    its value and analytic slope there, and that call's bracket."""
    captured, newton = [], bounds_module._newton

    def spy(value, lo, hi, *args, **kwargs):
        captured.append((value, (lo, hi)))
        return newton(value, lo, hi, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds_module, "_newton", spy)
        solve()
    ((value, bracket),) = captured
    return (lambda x: value(x, None)), bracket


def _mp_entropy_deficit(d):
    """1 - h(D) of an mpf D in (0, 1/2)."""
    return 1 + d * mpmath.log(d, 2) + (1 - d) * mpmath.log(1 - d, 2)


def _assert_slope_matches_mpmath(value, mp_value, x, rounding=0.0):
    """The analytic slope ``value`` gives at x matches mpmath.diff of ``mp_value`` to 1e-10,
    and to ``rounding`` more."""
    with mpmath.workdps(60):
        numeric = mpmath.diff(mp_value, mpmath.mpf(x), h=mpmath.mpf(x) * mpmath.mpf(10) ** -20)
    assert abs(value(x)[1] - numeric) <= 1e-10 * abs(numeric) + rounding, (x, value(x)[1], numeric)


def _assert_row_matches(distortion, expected, rate_slope, scale=1.0):
    """A row within 1e-13 of the 60-digit D, or within what 2^-48 of rounding (32 units of
    2^-53) of ``scale`` in the residual moves D, over the rate's slope in D.  That is the
    digits a rate near 1 leaves, where the residual cancels to an absolute error against a
    D of 1e-18, as the rows there come from rounded 1 - h(D)."""
    allowance = 2.0**-48 * scale / abs(rate_slope) if rate_slope else math.inf
    assert abs(distortion - float(expected)) <= 1e-13 * float(expected) + allowance, (
        distortion,
        float(expected),
    )


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(1e-300)
@example(1e-20)
@example(0.5)
@example(1.0 - 1e-13)
@example(1.0 - 2.0**-53)
def test_shannon_newton_rows_and_slope_match_mpmath(rate):
    # The solve runs on sqrt(1 - h(D)) against sqrt(R); 1 - h(D) is
    # rounded to a few ulps of R, which sets the digits near R = 1.
    value, _ = _solved_function(lambda: shannon_distortion(rate))
    distortion, expected = shannon_distortion(rate), oracles_mp.shannon_distortion(rate)
    with mpmath.workdps(60):
        rate_slope = float(mpmath.log((1 - expected) / expected, 2))
    _assert_row_matches(distortion, expected, rate_slope, rate)
    if 0.0 < distortion < 0.5:
        _assert_slope_matches_mpmath(value, lambda d: -mpmath.sqrt(_mp_entropy_deficit(d)), distortion)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.floats(0.0, 1.0, exclude_min=True))
@example(3, 1e-300)
@example(3, 0.5)
@example(8, 1.0 - 2.0**-53)
@example(8, 1.0)
def test_dwr_newton_rows_and_slope_match_mpmath(check_degree, rate):
    # Solved on sqrt(R (1 - e)) - sqrt(1 - h(D)), e = exp(-(1 - D) r/R).
    value, _ = _solved_function(lambda: poisson_ensemble_distortion_bound(check_degree, rate))
    distortion = poisson_ensemble_distortion_bound(check_degree, rate)
    expected = oracles_mp.dwr_distortion(check_degree, rate)
    with mpmath.workdps(60):
        r, e = mpmath.mpf(rate), mpmath.exp(-(1 - expected) * check_degree / mpmath.mpf(rate))
        rate_slope = float(mpmath.log((1 - expected) / expected, 2) - check_degree * e)

        def mp_value(d):
            gain = r * (1 - mpmath.exp(-(1 - d) * check_degree / r))
            return mpmath.sqrt(gain) - mpmath.sqrt(_mp_entropy_deficit(d))

    _assert_row_matches(distortion, expected, rate_slope, rate)
    if 0.0 < distortion < 0.5:
        _assert_slope_matches_mpmath(value, mp_value, distortion)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(2, 0.0, 0.0)
@example(5, 0.0, 0.0)
@example(3, 1.0, 1.0)
@example(3, 0.11, 0.5)  # just under the split at b = 1/2
@example(3, 0.12, 0.5)
def test_conjecture_newton_rows_and_slope_match_mpmath(degree, position, spot):
    # Rates from 1/l + 1e-6 to 1 - 2^-53.  Rows below the rate at
    # b = ln((1 - D)/D)/2 = 1.5/l are solved on ln(l R - 1) in ln b, the
    # rest on ln(rate/R), or ln((1 - R)/(1 - rate)) from (1 + 1/l)/2 on, in
    # ln D; each keeps the digits that ln R loses near R = 1/l or R = 1,
    # so every row is within 1e-13 of the 60-digit D, or of the oracle's
    # bisection width 1e-30 (D is 1.8e-18 at 1 - 2^-53 for l = 3).
    low, high = 1.0 / degree + 1e-6, 1.0 - 2.0**-53
    rate = low + (high - low) * position
    value, (lo, hi) = _solved_function(lambda: conjectured_exit_distortion_bound(degree, rate))
    distortion = conjectured_exit_distortion_bound(degree, rate)
    expected = oracles_mp.conjecture_distortion(degree, rate)
    assert abs(distortion - float(expected)) <= 1e-13 * float(expected) + 1e-30, (distortion, float(expected))

    def mp_rate(d):
        return oracles_mp.conjecture_rate(degree, d)

    with mpmath.workdps(60):
        if lo == math.log(1e-12):

            def mp_value(u):
                return mpmath.log(degree * mp_rate(1 / (1 + mpmath.exp(2 * mpmath.exp(u)))) - 1)

            root = mpmath.log(mpmath.log((1 - expected) / expected) / 2)
        else:
            near_one, r = rate >= 0.5 * (1.0 + 1.0 / degree), mpmath.mpf(rate)

            def mp_value(v):
                level = mp_rate(mpmath.exp(v))
                return mpmath.log((1 - level) / (1 - r)) if near_one else mpmath.log(r / level)

            root = mpmath.log(expected)
    # the slope at a point from 1 below the root to 1/2 above, in the bracket
    spot = min(max(float(root) - 1.0 + 1.5 * spot, lo), hi)
    _assert_slope_matches_mpmath(value, mp_value, spot)


@pytest.mark.parametrize(
    "bound",
    [
        pytest.param(shannon_distortion, id="shannon"),
        pytest.param(lambda rate: poisson_ensemble_distortion_bound(3, rate), id="dwr r=3"),
        pytest.param(lambda rate: conjectured_exit_distortion_bound(3, rate), id="conjecture l=3"),
    ],
)
def test_newton_keeps_its_points_in_the_bracket(monkeypatch, bound):
    # A Newton point outside the bracket is replaced by its midpoint: with
    # every slope taken 100 times too small, the steps overshoot, and each
    # row still ends on its root, at worst in a bracket 1e-13 wide after
    # bisection's bound on the steps.
    rates = np.linspace(0.35, 0.95, 40)
    solved, newton = bound(rates), bounds_module._newton

    def misled(value, *args, **kwargs):
        def shallow(x, rows):
            level, slope = value(x, rows)
            return level, slope / 100.0

        return newton(shallow, *args, **kwargs)

    monkeypatch.setattr(bounds_module, "_newton", misled)
    assert np.all(np.abs(bound(rates) - solved) <= 1e-12 * solved + 1e-13)


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_rows_near_rate_one_match_the_arc_to_1e17(degree):
    # Each row reads the arc's tangent at the solved x, off by the square
    # of x's 1e-15 error; the arc's distortion at that x is off by about
    # 1e-16, every digit of a row this close to R = 1.
    dist = DegreeDistribution.regular(degree)
    rates = [1.0 - 1e-14, 1.0 - 1e-13, 1.0 - 1e-12, 0.9999999999999999]
    rows = (
        counting_bound_distortion(dist, np.array(rates)),
        [counting_bound_distortion(dist, rate) for rate in rates],
        channel_distortion_bound(degree, np.array(rates)),
    )
    for rate, *values in zip(rates, *rows):
        expected = float(oracles_mp.counting_distortion(dist.entries, rate))
        assert all(abs(value - expected) <= 1e-17 for value in values), (rate, values, expected)


NEAR_ONE = [1.0 - 2.0**-53, 1.0 - 1e-15, 1.0 - 1e-14, 1.0 - 1e-13, 1.0 - 1e-12]


@pytest.mark.parametrize("spec", ["2:1", "3:1", "5:1", "1:0.5,3:0.5", "0:0.1,2:0.5,4:0.4"])
def test_counting_rows_near_rate_one_keep_every_digit(spec):
    # x is solved in ln x to 1e-13, so it keeps its relative digits
    # however small it is: about 1e-18 at R = 1 - 2^-53.
    dist = parse_degree_literal(spec)
    rows = counting_bound_distortion(dist, np.array(NEAR_ONE))
    for rate, row in zip(NEAR_ONE, rows):
        expected = float(oracles_mp.counting_distortion(dist.entries, rate))
        for value in (row, counting_bound_distortion(dist, rate)):
            assert abs(value - expected) <= 1e-12 * expected, (rate, value, expected)


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_test_channel_rows_near_rate_one_keep_every_digit(degree):
    dist = DegreeDistribution.regular(degree)
    for rate, row in zip(NEAR_ONE, channel_distortion_bound(degree, np.array(NEAR_ONE))):
        expected = float(oracles_mp.counting_distortion(dist.entries, rate))
        assert abs(row - expected) <= 1e-12 * expected, (rate, row, expected)


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_rows_at_rate_one_are_exact(degree):
    # The arc starts at (0, 1); rates within 3.13e-8 of 1 used to clamp
    # at x = 1e-9 and read about 1e-9.
    dist = DegreeDistribution.regular(degree)
    rates = [1.0 - 3.13e-8, 1.0 - 1e-9, 1.0 - 1e-12, 1.0]
    for curve in (
        sample_curve("counting", rates, dist=dist),
        sample_curve("test_channel", rates, degree=degree),
    ):
        assert_rows_match(
            curve,
            lambda rate: oracles_mp.counting_distortion(dist.entries, rate),
            tol=1e-12,
        )
        assert curve.distortions[-1] == 0.0
    for rate in rates:
        expected = float(oracles_mp.counting_distortion(dist.entries, rate))
        assert abs(counting_bound_distortion(dist, rate) - expected) <= 1e-12
    assert counting_bound_distortion(dist, 1.0) == 0.0
    assert channel_distortion_bound(degree, 1.0) == 0.0
    assert conjectured_exit_distortion_bound(degree, 1.0) == 0.0
    assert sample_curve("conjectured_exit", [1.0], degree=degree).distortions[0] == 0.0


@pytest.mark.parametrize("degree", range(1, 13))
def test_test_channel_ends_are_exact(degree):
    # max(tangent, line) alone: the line is 1/2 at R = 0 and below 0 at
    # R = 1 for l >= 2, where the tangent's numerator, 1 - R exact, is
    # negative and its clamp gives 0.  Float calls stay floats, +0.0 at
    # R = 1, and array rows equal them.
    rows = channel_distortion_bound(degree, np.linspace(0.0, 1.0, 11))
    for rate, expected, row in ((0.0, 0.5, rows[0]), (1.0, 0.0, rows[-1])):
        value = channel_distortion_bound(degree, rate)
        assert type(value) is float
        assert value == expected and math.copysign(1.0, value) == 1.0
        assert row == value and math.copysign(1.0, row) == 1.0
