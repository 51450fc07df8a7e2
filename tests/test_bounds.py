"""Bound families: reference values, identities, and curve sampling."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

import oracles_mp
from oracles import curve_check_naive

from ldgm_bounds import (
    BoundCurve,
    DegreeDistribution,
    NoSolutionError,
    binary_entropy,
    bisect_monotone,
    conjectured_exit_distortion_bound,
    conjectured_exit_rate_bound,
    counting_bound_distortion,
    coverage_exponent,
    parametric_distortion,
    parametric_endpoints,
    parametric_rate,
    poisson_ensemble_distortion_bound,
    poisson_ensemble_rate_bound,
    sample_curve,
    shannon_distortion,
    solve_x_for_rate,
    test_channel_distortion_bound as channel_distortion_bound,
    test_channel_rate_bound as channel_rate_bound,
)
from ldgm_bounds import bounds as bounds_module
from ldgm_bounds.degree import poisson_minimum_max_degree

REG2 = DegreeDistribution.regular(2)
REG3 = DegreeDistribution.regular(3)
MIXED = DegreeDistribution.from_fractions({1: 0.5, 3: 0.5})
DEGREE0 = DegreeDistribution.from_fractions({0: 0.1, 2: 0.5, 4: 0.4})

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
    # bisect_monotone returns the midpoint of a bracket at most 1e-14 wide.
    rates = np.sort(np.random.default_rng(2024).uniform(0.0, 1.0, 150))
    for rate, distortion in zip(rates, shannon_distortion(rates)):
        expected = float(oracles_mp.shannon_distortion(float(rate)))
        assert abs(distortion - expected) <= 5e-15 + math.ulp(expected), rate


@pytest.mark.parametrize(
    "bound",
    [
        shannon_distortion,
        lambda rate: poisson_ensemble_distortion_bound(3, rate),
        lambda rate: conjectured_exit_distortion_bound(3, rate),
    ],
)
def test_float_calls_agree_with_array_rows(bound):
    # math and numpy differ in the last bits of log and exp; the root
    # finder's grid of tol/2 keeps that from moving the solved points, but
    # for a point within those bits of a grid line.
    rates = np.random.default_rng(5).uniform(0.05, 0.95, 400)
    floats = np.array([bound(float(rate)) for rate in rates])
    assert np.mean(bound(rates) != floats) <= 0.02


def _grid_evaluations(monkeypatch, solve):
    """Evaluations of the function solved, in the row-wise calls ``solve`` makes."""
    counts = []

    def counted(fn, lo, hi, target, tol=1e-12):
        calls = []

        def evaluate(x):
            calls.append(None)
            return fn(x)

        root = bisect_monotone(evaluate, lo, hi, target, tol=tol)
        if np.ndim(root):
            counts.append(len(calls))
        return root

    monkeypatch.setattr(bounds_module, "bisect_monotone", counted)
    bounds_module._x_for_rate.cache_clear()
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
    # Bisection takes 48, 52, 48 and 41 evaluations here.
    counts = _grid_evaluations(monkeypatch, solve)
    assert counts and max(counts) <= 16, (family, counts)


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


def test_parametric_approaches_endpoints():
    x_small = 1e-8
    assert parametric_rate(REG2, x_small) == pytest.approx(1.0, abs=1e-6)
    assert parametric_distortion(REG2, x_small) == pytest.approx(0.0, abs=1e-6)
    # The x -> 1 side loses precision quadratically, so only the trend is
    # checked numerically; the exact limit is covered by parametric_endpoints.
    far, near = parametric_rate(REG2, 1.0 - 1e-2), parametric_rate(REG2, 1.0 - 1e-3)
    assert abs(near - 0.25) < abs(far - 0.25)


def test_counting_line_segment_regular2():
    # Below the reciprocal average degree the arc hands off to a straight
    # line through (0, 1/2).
    assert counting_bound_distortion(REG2, 0.0) == 0.5
    arc_end = counting_bound_distortion(REG2, 0.5)
    line_end = counting_bound_distortion(REG2, 0.5 - 1e-12)
    assert line_end == pytest.approx(arc_end, abs=1e-9)


def test_counting_degenerate_low_degree():
    # Average degree <= 1 collapses the bound to the trivial line (1-R)/2.
    reg1 = DegreeDistribution.regular(1)
    for rate in (0.0, 0.3, 0.77, 1.0):
        assert counting_bound_distortion(reg1, rate) == pytest.approx(
            (1.0 - rate) / 2.0, abs=1e-15
        )


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


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@example(2, 0.26)
@example(4, 0.0626)
@example(3, 1.0 - 1e-6)
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
def test_test_channel_distortion_bound_inverts_rate_bound(degree, rate):
    # The bound, one maximisation over D' at a fixed R, against the primal
    # rate bound, which maximises N/Den over D' at a fixed D.
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


def test_sample_curve_shannon():
    curve = sample_curve("shannon", [0.2, 0.5, 0.8])
    assert curve.kind == "shannon"
    assert curve.rates == (0.2, 0.5, 0.8)
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
    assert curve.rates == tuple(rates)
    assert {type(value) for value in curve.rates + curve.distortions} == {float}
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
# per-distribution caches
# ---------------------------------------------------------------------------

def test_poisson_curve_leaves_bounded_caches():
    # A Poisson curve builds no distribution per rate, so it leaves the
    # memoised solve untouched.  Check degree 1 puts every rate below its
    # member's reciprocal average degree, so each row takes the segment,
    # anchored on its own member; rows match the float route.
    bounds_module._x_for_rate.cache_clear()
    rates = [0.05 + 0.9 * k / 299 for k in range(300)]
    curve = sample_curve("counting", rates, check_degree=1)
    info = bounds_module._x_for_rate.cache_info()
    assert info.misses == 0
    assert info.currsize == 0
    for k in (0, 150, 299):
        member = poisson_member(1, rates[k])
        assert rates[k] < 1.0 / member.average_degree
        expected = counting_bound_distortion(member, rates[k])
        assert curve.distortions[k] == pytest.approx(expected, abs=1e-12)
    bounds_module._x_for_rate.cache_clear()


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


def test_line_anchor_cache_bounded_over_many_profiles():
    bounds_module._x_for_rate.cache_clear()
    for k in range(1, 80):
        mixed = DegreeDistribution.from_fractions({2: k / 80, 3: 1 - k / 80})
        counting_bound_distortion(mixed, 0.1)  # below 1/3: the straight segment
    info = bounds_module._x_for_rate.cache_info()
    assert info.misses == 79
    assert info.currsize <= info.maxsize


def test_fixed_profile_curve_hits_caches():
    # The segment rows of a curve share one anchor, solved once per
    # distribution at 1/avg: a second curve over the same profile only hits.
    bounds_module._x_for_rate.cache_clear()
    rates = [0.05 + 0.9 * k / 49 for k in range(50)]
    sample_curve("counting", rates, dist=REG2)
    sample_curve("counting", rates, dist=REG2)
    info = bounds_module._x_for_rate.cache_info()
    assert info.misses == 1
    assert info.hits == 1


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
