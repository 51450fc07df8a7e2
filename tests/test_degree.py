"""Degree distributions: construction, moments, and generating functions."""

import math

import pytest
from hypothesis import given, strategies as st

from ldgm_bounds import DegreeDistribution, TruncationError, parse_degree_literal
from ldgm_bounds.degree import poisson_minimum_max_degree


def test_regular_distribution():
    dist = DegreeDistribution.regular(3)
    assert dist.entries == ((3, 1.0),)
    assert dist.average_degree == 3.0
    assert dist.degrees[-1] == 3


def test_from_fractions_orders_entries():
    dist = DegreeDistribution.from_fractions({3: 0.5, 1: 0.5})
    assert dist.entries == ((1, 0.5), (3, 0.5))
    assert dist.average_degree == pytest.approx(2.0, abs=1e-15)


def test_from_degrees_counts_multiplicity():
    dist = DegreeDistribution.from_degrees([2, 2, 3, 2])
    assert dist.entries == ((2, 0.75), (3, 0.25))


def test_rejects_bad_mass():
    with pytest.raises(ValueError):
        DegreeDistribution(((1, 0.6), (2, 0.6)))
    with pytest.raises(ValueError):
        DegreeDistribution(((1, -0.1), (2, 1.1)))


@pytest.mark.parametrize("entries", [((2, math.nan),), ((2, math.nan), (3, 1.0))])
def test_rejects_nan_fraction(entries):
    with pytest.raises(ValueError, match=r"fraction for degree 2 must be >= 0, got nan"):
        DegreeDistribution(entries)


@pytest.mark.parametrize("text", ["2:nan", "2:nan,3:1"])
def test_literal_rejects_nan_fraction(text):
    with pytest.raises(ValueError, match=r"fraction for degree 2 must be >= 0, got nan"):
        parse_degree_literal(text)


def test_rejects_duplicate_or_descending_degrees():
    with pytest.raises(ValueError):
        DegreeDistribution(((2, 0.5), (2, 0.5)))
    with pytest.raises(ValueError):
        DegreeDistribution(((3, 0.5), (1, 0.5)))


def test_rejects_empty():
    with pytest.raises(ValueError):
        DegreeDistribution(())


def test_moments():
    dist = DegreeDistribution.from_fractions({1: 0.5, 3: 0.5})
    assert dist.moment(1) == pytest.approx(2.0, abs=1e-15)
    assert dist.moment(2) == pytest.approx(5.0, abs=1e-15)


def test_log2_weight_gf_regular():
    # log2(1 + x^3) at x = 0.5 is log2(1.125).
    assert DegreeDistribution.regular(3).log2_weight_gf(0.5) == pytest.approx(
        0.16992500144231237, abs=1e-14
    )
    assert DegreeDistribution.regular(2).log2_weight_gf(0.5) == pytest.approx(
        math.log2(1.25), abs=1e-14
    )
    assert DegreeDistribution.regular(2).log2_weight_gf(0.0) == 0.0


def test_log2_weight_gf_handles_degree_zero():
    dist = DegreeDistribution.from_fractions({0: 0.25, 2: 0.75})
    expected = 0.25 * 1.0 + 0.75 * math.log2(1.0 + 0.09)
    assert dist.log2_weight_gf(0.3) == pytest.approx(expected, abs=1e-13)


def test_log2_weight_gf_large_argument_stable():
    dist = DegreeDistribution.regular(3)
    x = 1e6
    # log2(1 + x^3) = 3 log2 x + log2(1 + x^-3)
    expected = 3.0 * math.log2(x) + math.log2(1.0 + x**-3)
    assert dist.log2_weight_gf(x) == pytest.approx(expected, rel=1e-14)


def test_mean_occupancy_values():
    dist = DegreeDistribution.regular(2)
    assert dist.mean_occupancy(1.0) == pytest.approx(1.0, abs=1e-15)
    assert dist.mean_occupancy(0.0) == 0.0
    mixed = DegreeDistribution.from_fractions({1: 0.5, 3: 0.5})
    x = 0.7
    expected = 0.5 * (x / (1 + x)) + 0.5 * (3 * x**3 / (1 + x**3))
    assert mixed.mean_occupancy(x) == pytest.approx(expected, abs=1e-14)


@given(st.floats(min_value=0.01, max_value=0.99))
def test_mean_occupancy_is_log_derivative(x):
    """a(x) must equal x d/dx log2 f(x) / log2 e, i.e. the weighted slope."""
    dist = DegreeDistribution.from_fractions({1: 0.25, 2: 0.5, 4: 0.25})
    step = 1e-6 * x
    # d/d(ln x) [ln f] = a(x); finite central difference in ln x.
    lo = dist.log2_weight_gf(x * math.exp(-step)) * math.log(2.0)
    hi = dist.log2_weight_gf(x * math.exp(step)) * math.log(2.0)
    slope = (hi - lo) / (2.0 * step)
    assert dist.mean_occupancy(x) == pytest.approx(slope, abs=1e-5)


@given(st.floats(min_value=0.0, max_value=50.0))
def test_mean_occupancy_bounded_by_average_degree(x):
    dist = DegreeDistribution.from_fractions({2: 0.5, 5: 0.5})
    occ = dist.mean_occupancy(x)
    assert 0.0 <= occ < dist.average_degree + 1e-12


def test_poisson_truncated_masses():
    dist = DegreeDistribution.poisson_truncated(4, 0.5, max_degree=60)
    lam = 4.0 / 0.5
    assert dist.entries[0][0] == 0
    ratio = dist.entries[1][1] / dist.entries[0][1]
    assert ratio == pytest.approx(lam, rel=1e-9)
    assert sum(frac for _, frac in dist.entries) == pytest.approx(1.0, abs=1e-12)
    assert dist.average_degree == pytest.approx(lam, rel=1e-8)


def test_poisson_truncation_error_when_tail_heavy():
    with pytest.raises(TruncationError):
        DegreeDistribution.poisson_truncated(4, 0.5, max_degree=10)


def test_poisson_minimum_max_degree():
    cut = poisson_minimum_max_degree(4, 0.5)
    DegreeDistribution.poisson_truncated(4, 0.5, max_degree=cut)
    with pytest.raises(TruncationError):
        DegreeDistribution.poisson_truncated(4, 0.5, max_degree=cut - 1)


def test_literal_round_trip():
    dist = DegreeDistribution.from_fractions({1: 0.5, 3: 0.5})
    again = parse_degree_literal(dist.to_literal())
    assert again.entries[0][0] == 1
    assert again.entries[1][0] == 3
    assert again.entries[0][1] == pytest.approx(0.5, abs=1e-12)


def test_parse_literal_errors():
    with pytest.raises(ValueError):
        parse_degree_literal("")
    with pytest.raises(ValueError):
        parse_degree_literal("2:0.5,2:0.5")
    with pytest.raises(ValueError):
        parse_degree_literal("a:1")
    with pytest.raises(ValueError):
        parse_degree_literal("2:0.4")  # mass short of one
