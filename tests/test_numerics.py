"""Scalar helpers: entropy, divergence, and the shared root finder."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from ldgm_bounds import (
    BracketError,
    binary_entropy,
    bisect_monotone,
    inverse_binary_entropy,
    kl_bernoulli,
    shannon_distortion,
)
import oracles_mp

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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@example([0.0, 1.0, 1e-300, 1e-16, 1e-3, 0.019779956074714944, 0.5, 1.0 - 2.0**-53])
def test_inverse_entropy_matches_mpmath(ys):
    # Solved on sqrt(1 - h(p)) against sqrt(1 - y), as shannon_distortion
    # solves at rate 1 - y, so the reference is the root at that rate.
    # Array rows and float calls round that residual apart by up to 2^-54
    # (seen over 2e5 values of y), which the slope log2((1 - p)/p) /
    # (2 sqrt(1 - y)) maps to p: 1.3e-14 of p at y = 0.02.  They are
    # allowed 2^-52 over the slope.
    rows = inverse_binary_entropy(np.array(ys))
    for y, row in zip(ys, rows):
        p, expected = inverse_binary_entropy(y), oracles_mp.shannon_distortion(1.0 - y)
        assert abs(p - expected) <= 1e-15, (y, p, expected)
        if y >= 1e-3:
            assert abs(p - expected) <= 1e-12 * expected, (y, p, expected)
        slope = math.log2((1.0 - p) / p) / (2.0 * math.sqrt(1.0 - y)) if 0.0 < p < 0.5 else math.inf
        assert abs(row - p) <= 2e-15 * p + 2.0**-52 / slope, (y, row, p)
        if y >= 0.5:  # 1 - y is exact
            assert p == shannon_distortion(1.0 - y), y


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


def _plateau(x):
    """Rises to 0.3, stays there on [0.3, 0.7], rises again."""
    return np.minimum(x, 0.3) + np.maximum(x - 0.7, 0.0)


@pytest.mark.parametrize("form", ["float", "rows"])
def test_bisect_plateau_tie_rule(form):
    # On a plateau at the target, ties move the end whose value lies below
    # the target: the lowest root of an increasing function, the highest
    # of a decreasing one.  The bound solvers' printed digits rely on it.
    # The row form mixes increasing and decreasing rows in one call.
    if form == "float":
        rising = bisect_monotone(_plateau, 0.0, 1.0, 0.3)
        falling = bisect_monotone(lambda x: -_plateau(x), 0.0, 1.0, -0.3)
    else:
        sign = np.array([1.0, -1.0, 1.0, -1.0])
        roots = bisect_monotone(lambda x: sign * _plateau(x), 0.0, 1.0, 0.3 * sign)
        assert roots.shape == (4,)
        rising, falling = roots[0], roots[1]
        assert (roots[2], roots[3]) == (rising, falling)
    assert rising == pytest.approx(0.3, abs=1e-12)
    assert falling == pytest.approx(0.7, abs=1e-12)


# Functions whose float and array evaluations agree bit for bit: plain
# arithmetic, and numpy ufuncs, which evaluate one float by the array loop.
ROW_FUNCTIONS = [
    lambda x: x * x * x - x,
    lambda x: -np.tanh(3.0 * x),
    lambda x: np.log2(1.0 + x * x) + 0.25 * x,
    lambda x: -_plateau(x),
]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(range(len(ROW_FUNCTIONS))),
            st.floats(-2.0, 2.0),
            st.floats(1e-6, 3.0),
            st.floats(0.0, 1.0),
        ),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from([1e-12, 1e-15, 0.0]),
)
@example([(1, 0.0625, 1.0, 1.0), (3, -0.5, 1.5, 0.5), (0, 0.0, 1e-6, 0.0)], 0.0)
def test_bisect_rows_match_the_float_loop_bit_for_bit(rows, tol):
    # Each row of one array call returns exactly what the float loop
    # returns for that row alone; rows may use different functions.
    kinds = np.array([kind for kind, _, _, _ in rows])
    lo = np.array([start for _, start, _, _ in rows])
    hi = lo + np.array([width for _, _, width, _ in rows])
    ends = [(ROW_FUNCTIONS[k](float(a)), ROW_FUNCTIONS[k](float(b))) for k, a, b in zip(kinds, lo, hi)]
    target = np.array(
        [
            min(max(fa + share * (fb - fa), min(fa, fb)), max(fa, fb))
            for (fa, fb), (_, _, _, share) in zip(ends, rows)
        ]
    )

    def fn(x):
        return np.select([kinds == k for k in range(len(ROW_FUNCTIONS))], [f(x) for f in ROW_FUNCTIONS])

    solved = bisect_monotone(fn, lo, hi, target, tol=tol)
    for k, row in enumerate(rows):
        alone = bisect_monotone(ROW_FUNCTIONS[row[0]], float(lo[k]), float(hi[k]), float(target[k]), tol=tol)
        assert solved[k] == alone, k


def _bisection_steps(width, tol):
    """Steps bisection needs to bring ``width`` down to ``tol``: the least n
    with tol 2^n >= width, counted without rounding."""
    steps = 0
    while tol * 2.0**steps < width:
        steps += 1
    return steps


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(ROW_FUNCTIONS + [_plateau]),
    st.floats(-1.0, 1.0),
    st.floats(1e-6, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from([1e-12, 1e-15]),
)
@example(_plateau, 0.0, 1.0, 0.5, 1e-12)  # the target 0.3 is the plateau's value
@example(ROW_FUNCTIONS[3], 0.0, 1.0, 0.5, 1e-12)
@example(ROW_FUNCTIONS[1], 0.0625, 1.0, 1.0, 1e-15)
def test_solve_takes_at_most_one_step_beyond_bisection(fn, lo, width, share, tol):
    # Two evaluations at the ends and at most one step more than bisection
    # takes: the ends here are below 2, so tol spans at least 4 ulps.
    hi = lo + width
    f_lo, f_hi = float(fn(lo)), float(fn(hi))
    target = min(max(f_lo + share * (f_hi - f_lo), min(f_lo, f_hi)), max(f_lo, f_hi))
    calls = []

    def counted(x):
        calls.append(x)
        return fn(x)

    root = bisect_monotone(counted, lo, hi, target, tol=tol)
    assert lo <= root <= hi
    assert len(calls) <= _bisection_steps(hi - lo, tol) + 3


def test_float_solve_returns_a_float():
    # Also when fn answers in numpy scalars, with or without a tolerance.
    assert type(bisect_monotone(lambda x: x, 0.0, 1.0, 0.5)) is float
    assert type(bisect_monotone(np.tanh, 0.0, 1.0, 0.5)) is float
    assert type(bisect_monotone(np.tanh, 0.0, 1.0, 0.5, tol=0.0)) is float


def test_bisect_rows_bracket_error_names_first_bad_row():
    lo = np.zeros(5)
    target = np.array([0.5, 0.2, 2.0, 0.1, 3.0])
    with pytest.raises(BracketError, match=r"^row 2: target 2\.0 not bracketed"):
        bisect_monotone(lambda x: x, lo, 1.0, target)


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
