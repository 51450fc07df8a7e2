"""Scalar helpers: entropy, divergence, and the shared root finder."""

import math

import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from ldgm_bounds import (
    BracketError,
    binary_entropy,
    bisect_monotone,
    inverse_binary_entropy,
    kl_bernoulli,
)

# High-precision references computed independently with 30-digit arithmetic.
ENTROPY_QUARTER = 0.8112781244591329
ENTROPY_011 = 0.499915958164528
ENTROPY_03 = 0.8812908992306926
KL_01_02 = 0.05293250129808113


def test_entropy_reference_values():
    assert binary_entropy(0.25) == pytest.approx(ENTROPY_QUARTER, abs=1e-14)
    assert binary_entropy(0.11) == pytest.approx(ENTROPY_011, abs=1e-14)
    assert binary_entropy(0.3) == pytest.approx(ENTROPY_03, abs=1e-14)


def test_entropy_endpoints_exact():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_entropy_rejects_outside_unit_interval():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_entropy_symmetric(p):
    assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


@given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
def test_entropy_bounded_by_one(p):
    assert 0.0 < binary_entropy(p) <= 1.0


def test_inverse_entropy_reference_values():
    assert inverse_binary_entropy(1.0 / 3.0) == pytest.approx(
        0.06149047007872418, abs=1e-10
    )
    assert inverse_binary_entropy(0.5) == pytest.approx(
        0.11002786443835955, abs=1e-10
    )
    assert inverse_binary_entropy(0.6) == pytest.approx(
        0.14610240341188702, abs=1e-10
    )


def test_inverse_entropy_endpoints():
    assert inverse_binary_entropy(0.0) == 0.0
    assert inverse_binary_entropy(1.0) == pytest.approx(0.5, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_inverse_entropy_round_trip(y):
    p = inverse_binary_entropy(y)
    assert 0.0 <= p <= 0.5
    assert binary_entropy(p) == pytest.approx(y, abs=1e-9)


def test_kl_reference_value():
    assert kl_bernoulli(0.1, 0.2) == pytest.approx(KL_01_02, abs=1e-14)


def test_kl_zero_iff_equal():
    assert kl_bernoulli(0.3, 0.3) == 0.0
    assert kl_bernoulli(0.0, 0.4) == pytest.approx(
        -math.log2(0.6), abs=1e-14
    )


def test_kl_infinite_support_mismatch():
    with pytest.raises(ValueError):
        kl_bernoulli(0.3, 0.0)
    with pytest.raises(ValueError):
        kl_bernoulli(0.3, 1.0)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_kl_nonnegative(p, q):
    assert kl_bernoulli(p, q) >= 0.0


def test_bisect_increasing():
    root = bisect_monotone(lambda x: x * x, 0.0, 3.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-11)


def test_bisect_decreasing():
    root = bisect_monotone(lambda x: 1.0 / x, 0.5, 4.0, 1.0)
    assert root == pytest.approx(1.0, abs=1e-11)


def test_bisect_target_at_endpoint():
    root = bisect_monotone(lambda x: x, 0.0, 1.0, 0.0)
    assert root == pytest.approx(0.0, abs=1e-11)


def test_bisect_plateau_tie_rule():
    # On a plateau at the target, ties move the end whose value lies below
    # the target: the lowest root of an increasing function, the highest
    # of a decreasing one.  The bound solvers' printed digits rely on it.
    def plateau(x):
        return min(x, 0.3) + max(x - 0.7, 0.0)

    rising = bisect_monotone(plateau, 0.0, 1.0, 0.3)
    falling = bisect_monotone(lambda x: -plateau(x), 0.0, 1.0, -0.3)
    assert rising == pytest.approx(0.3, abs=1e-12)
    assert falling == pytest.approx(0.7, abs=1e-12)


def test_bisect_unbracketed_raises():
    with pytest.raises(BracketError):
        bisect_monotone(lambda x: x, 0.0, 1.0, 2.0)


@given(st.floats(min_value=0.1, max_value=0.9))
def test_bisect_entropy_agrees_with_inverse(y):
    direct = inverse_binary_entropy(y)
    via_bisect = bisect_monotone(binary_entropy, 0.0, 0.5, y, tol=1e-13)
    assert via_bisect == pytest.approx(direct, abs=1e-9)
    # an independent library root of the same equation
    reference = brentq(lambda p: binary_entropy(p) - y, 0.0, 0.5, xtol=1e-15)
    assert direct == pytest.approx(reference, abs=1e-12)
    assert via_bisect == pytest.approx(reference, abs=1e-12)
