"""Exact code machinery: enumerators, transforms, floors, verification."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ldgm_bounds import (
    BudgetError,
    DegreeDistribution,
    LdgmCode,
    binary_entropy,
    code_from_text,
    code_to_text,
    coefficient_lower_bound,
    conjectured_exit_distortion_bound,
    counting_bound_distortion,
    distance_transform,
    parse_degree_literal,
    read_code_file,
    sample_code,
    verify_code,
    weight_enumerator,
    write_code_file,
)
from ldgm_bounds import exact as exact_module
from ldgm_bounds.exact import (
    BLOCKLENGTH_LIMIT,
    CoverProfile,
    _basis,
    _dual_rows,
    _krawtchouk,
    _macwilliams,
    generator_masks,
)
from oracles import (
    chain_check_naive,
    coefficient_floor_naive,
    distance_transform_degree2,
    distance_transform_naive,
    distance_transform_table,
    encode,
    optimal_average_distortion,
    weight_enumerator_gray,
    weight_enumerator_naive,
)
from oracles_float import coefficient_growth_exponent
from oracles_mp import counting_distortion

REG2 = DegreeDistribution.regular(2)
REG3 = DegreeDistribution.regular(3)

PAIR_CODE = LdgmCode(
    num_checks=8, generators=((0, 1), (2, 3), (4, 5), (6, 7))
)

# Codes the sampler never draws: rank-deficient with a repeated generator,
# some empty generators, and no generators at all.
EDGE_CODES = (
    LdgmCode(num_checks=9, generators=((0, 4), (2, 5, 8), (0, 4), (1, 2), (1, 5, 8))),
    LdgmCode(num_checks=7, generators=((), (1, 3, 6), (), (0, 2))),
    LdgmCode(num_checks=6, generators=()),
)
# Wider than one 32-bit word, so the enumerator sums popcounts over slices.
WIDE_CODE = LdgmCode(
    num_checks=70, generators=((0, 31, 32), (5, 40, 63, 64, 69), (31, 32), (0, 69))
)


# Budget-limit codes, m=26, n=24, regular:2, with histograms and enumerators
# computed by the kernels that scanned all 2^26 source words and all 2^24
# index words.  Seed 3 has rank 20 (every codeword repeats 2^4 times) and
# seed 230 has rank 24.
BUDGET_PINS = {
    3: (
        (1048576, 6291456, 15728640, 20971520, 15728640, 6291456, 1048576)
        + (0,) * 20,
        (16, 0, 1680, 0, 37168, 0, 342960, 0, 1562528, 0, 3817632, 0, 5174624, 0,
         3912288, 0, 1591632, 0, 313808, 0, 22640, 0, 240) + (0,) * 4,
    ),
    230: (
        (16777216, 33554432, 16777216) + (0,) * 24,
        (1, 0, 300, 0, 12650, 0, 177100, 0, 1081575, 0, 3268760, 0, 5200300, 0,
         4457400, 0, 2042975, 0, 480700, 0, 53130, 0, 2300, 0, 25) + (0,) * 2,
    ),
}


@st.composite
def small_codes(draw, max_checks=12):
    """Codes with m <= max_checks and n <= 9, repeats and empty generators included."""
    m = draw(st.integers(min_value=1, max_value=max_checks))
    check_sets = st.lists(
        st.integers(min_value=0, max_value=m - 1), unique=True, max_size=min(m, 5)
    ).map(lambda checks: tuple(sorted(checks)))
    generators = draw(st.lists(check_sets, max_size=8))
    if generators and draw(st.booleans()):
        generators.append(draw(st.sampled_from(generators)))
    return LdgmCode(m, tuple(generators))


@st.composite
def near_full_rank_codes(draw, max_checks=12):
    """Codes with m <= max_checks and more than m/2, up to m + 3, generators
    of degree 1-3, so that most have rank k > m - k: the dual side."""
    m = draw(st.integers(min_value=1, max_value=max_checks))
    check_sets = st.lists(
        st.integers(min_value=0, max_value=m - 1), unique=True, min_size=1, max_size=min(m, 3)
    ).map(lambda checks: tuple(sorted(checks)))
    return LdgmCode(m, tuple(draw(st.lists(check_sets, min_size=m // 2 + 1, max_size=m + 3))))


@st.composite
def component_codes(draw, max_checks=20):
    """Codes with m <= max_checks whose covered checks fall into blocks, each
    tied together by a chain of generators overlapping in one check, and
    sometimes a single block: one giant component.  Some checks are left
    uncovered on purpose, and degree-0, repeated and dependent (the XOR of
    two others) generators are mixed in."""
    m = draw(st.integers(min_value=1, max_value=max_checks))
    order = draw(st.permutations(range(m)))
    covered = order[: draw(st.integers(min_value=0, max_value=m))]
    cuts = [] if draw(st.booleans()) else sorted(
        draw(st.sets(st.integers(min_value=1, max_value=max(1, len(covered) - 1)), max_size=6))
    )
    generators = []
    for start, stop in zip([0] + cuts, cuts + [len(covered)]):
        block = covered[start:stop]
        step = draw(st.integers(min_value=1, max_value=3))
        if len(block) == 1:
            generators.append(tuple(block))
        for first in range(0, len(block) - 1, step):
            generators.append(tuple(sorted(block[first : first + step + 1])))
    generators += [()] * draw(st.integers(min_value=0, max_value=2))
    if generators and draw(st.booleans()):
        generators.append(draw(st.sampled_from(generators)))
    if len(generators) > 1 and draw(st.booleans()):
        first, second = draw(st.lists(st.sampled_from(generators), min_size=2, max_size=2))
        generators.append(tuple(sorted(set(first) ^ set(second))))
    return LdgmCode(m, tuple(draw(st.permutations(generators))))


# ---------------------------------------------------------------------------
# code objects
# ---------------------------------------------------------------------------


def test_code_basic_properties():
    assert PAIR_CODE.num_generators == 4
    degrees = [len(checks) for checks in PAIR_CODE.generators]
    assert DegreeDistribution.from_degrees(degrees).entries == ((2, 1.0),)


def test_code_validation():
    with pytest.raises(ValueError):
        LdgmCode(num_checks=0, generators=())
    with pytest.raises(ValueError):
        LdgmCode(num_checks=4, generators=((0, 4),))
    with pytest.raises(ValueError):
        LdgmCode(num_checks=4, generators=((2, 1),))
    with pytest.raises(ValueError):
        LdgmCode(num_checks=4, generators=((1, 1),))


def test_generator_masks():
    assert generator_masks(PAIR_CODE) == (0b11, 0b1100, 0b110000, 0b11000000)


def test_sample_code_deterministic_and_degrees():
    code_a = sample_code(12, 6, REG2, seed=5)
    code_b = sample_code(12, 6, REG2, seed=5)
    code_c = sample_code(12, 6, REG2, seed=6)
    assert code_a == code_b
    assert code_a != code_c
    assert all(len(g) == 2 for g in code_a.generators)


def test_sample_code_mixed_distribution():
    mixed = DegreeDistribution.from_fractions({1: 0.5, 3: 0.5})
    code = sample_code(10, 4, mixed, seed=0)
    assert sorted(len(g) for g in code.generators) == [1, 1, 3, 3]


def test_sample_code_rejects_non_integral_split():
    mixed = DegreeDistribution.from_fractions({1: 0.5, 3: 0.5})
    with pytest.raises(ValueError):
        sample_code(10, 5, mixed, seed=0)


def test_encode_xor_of_rows():
    word = encode(PAIR_CODE, [1, 0, 1, 0])
    assert word == [1, 1, 0, 0, 1, 1, 0, 0]
    assert encode(PAIR_CODE, [0, 0, 0, 0]) == [0] * 8


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=4),
       st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=4))
def test_encode_linear(u, v):
    """Encoding the XOR of index words equals the XOR of encodings."""
    combined = [a ^ b for a, b in zip(u, v)]
    direct = encode(PAIR_CODE, combined)
    pieces = [
        a ^ b for a, b in zip(encode(PAIR_CODE, u), encode(PAIR_CODE, v))
    ]
    assert direct == pieces


# ---------------------------------------------------------------------------
# weight enumerator
# ---------------------------------------------------------------------------


def test_weight_enumerator_pair_code():
    counts = weight_enumerator(PAIR_CODE).counts
    # Codewords are unions of disjoint pairs: binomial in the pair count.
    expected = [0] * 9
    for picked in range(5):
        expected[2 * picked] = math.comb(4, picked)
    assert list(counts) == expected


def test_weight_enumerator_total_mass():
    code = sample_code(12, 6, REG2, seed=1)
    counts = weight_enumerator(code).counts
    assert sum(counts) == 2**6
    assert counts[0] >= 1


def test_weight_enumerator_zero_generators():
    empty = LdgmCode(num_checks=5, generators=())
    assert weight_enumerator(empty).counts == (1, 0, 0, 0, 0, 0)


def test_weight_enumerator_matches_naive():
    sampled = [sample_code(11, 6, REG3, seed=seed) for seed in range(6)]
    for code in sampled + list(EDGE_CODES) + [WIDE_CODE]:
        fast = weight_enumerator(code)
        slow = weight_enumerator_naive(code)
        assert fast.counts == slow.counts


def test_weight_enumerator_budget():
    wide = LdgmCode(num_checks=2, generators=((0,),) * 30)
    with pytest.raises(BudgetError):
        weight_enumerator(wide)


@settings(max_examples=60, deadline=None)
@given(near_full_rank_codes())
# full rank: m - k = 0, so the dual is the zero word alone
@example(LdgmCode(4, ((0,), (1, 2), (2,), (3,), (0, 3))))
# the tie k = m - k, which stays on the primal side
@example(LdgmCode(6, ((0, 1), (2, 3), (4, 5))))
# degree-0 and repeated generators on the dual side: rank 4 at m = 5
@example(LdgmCode(5, ((0, 1), (), (1, 2), (1, 2), (3,), (0, 4), ())))
def test_weight_enumerator_dual_side_matches_naive(code):
    masks = generator_masks(code)
    rows = _basis(masks)
    dual = _dual_rows(rows, code.num_checks)
    assert len(dual) == code.num_checks - len(rows)
    assert all((word & mask).bit_count() % 2 == 0 for word in dual for mask in masks)
    assert weight_enumerator(code).counts == weight_enumerator_naive(code).counts


def test_weight_enumerator_dual_side_past_one_word():
    # Rank 18 > m - k = 16, and the dual words reach checks 32 and 33, so
    # their popcounts are summed over two 32-check slices.
    code = sample_code(34, 18, REG3, seed=0)
    rows = _basis(generator_masks(code))
    assert len(rows) == 18
    assert max(_dual_rows(rows, 34)) >> 32
    assert weight_enumerator(code).counts == weight_enumerator_gray(code).counts


def test_krawtchouk_table_matches_binomial_sums():
    # int64 up to m = 41, Python ints beyond; the dual side reaches m = 47.
    for m in range(1, 49):
        table = _krawtchouk(m)
        assert table.dtype == (np.int64 if m <= 41 else object), m
        binomial_sums = [
            [
                sum((-1) ** i * math.comb(j, i) * math.comb(m - j, w - i) for i in range(w + 1))
                for j in range(m + 1)
            ]
            for w in range(m + 1)
        ]
        assert table.tolist() == binomial_sums, m
        exact = table.astype(object)
        identity = [[(1 << m) * (w == v) for v in range(m + 1)] for w in range(m + 1)]
        assert (exact @ exact).tolist() == identity, m


def test_macwilliams_refuses_a_sum_it_cannot_divide():
    # Three words of weights 0, 1 and 2 at m = 3 are no dual code: A_0 = 3/2.
    with pytest.raises(ArithmeticError, match="not multiples of 2"):
        _macwilliams((1, 1, 1, 0), 1)


def test_weight_enumerator_allocates_only_the_dual_span():
    # Rank 24 at m = 26: the dual has 4 words, so nothing sized by the
    # 2^24 codewords may be allocated.
    code = sample_code(26, 24, REG2, seed=230)
    tracemalloc.start()
    try:
        weight_enumerator(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# coefficient floor and its growth exponent
# ---------------------------------------------------------------------------


def test_coefficient_floor_regular_closed_form():
    # For l-regular distributions the floor is a sum of binomials: picking
    # g generators contributes weight exactly l*g.
    floors = coefficient_lower_bound([2] * 7)
    expected_cumulative = []
    total = 0
    for w in range(15):
        total += math.comb(7, w // 2) if w % 2 == 0 else 0
        expected_cumulative.append(total)
    assert list(floors) == expected_cumulative


def test_coefficient_floor_handles_degree_zero():
    floors = coefficient_lower_bound([0, 0, 2, 2])
    # Two degree-zero generators double every coefficient twice over.
    base = coefficient_lower_bound([2, 2])
    assert floors[-1] == 2**4
    assert list(floors) == [4 * value for value in base]


def test_coefficient_floor_is_exact_integer_arithmetic():
    floors = coefficient_lower_bound([3] * 40)
    assert floors[-1] == 2**40
    assert all(isinstance(v, int) for v in floors)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=30))
# degree 0 alone: the floor is 2^n at every weight
@example([0, 0, 0])
# degree 0 beside a mix of degrees
@example([0, 2, 5, 0, 1, 2, 2])
def test_coefficient_floor_matches_per_generator_product(degrees):
    assert coefficient_lower_bound(degrees) == coefficient_floor_naive(degrees)


def test_growth_exponent_regular_identity():
    # For 2-regular weights the exponent at occupancy 1/2 is h(1/4).
    value = coefficient_growth_exponent(REG2, 0.5)
    assert value == pytest.approx(0.8112781244591329, abs=1e-10)


def test_growth_exponent_at_full_occupancy():
    value = coefficient_growth_exponent(REG2, REG2.mean_occupancy(1.0))
    assert value == pytest.approx(REG2.log2_weight_gf(1.0), abs=1e-12)


def test_growth_exponent_matches_finite_size():
    n = 400
    floors = coefficient_lower_bound([2] * n)
    w = n // 2
    finite = math.log2(floors[w]) / n
    asymptotic = coefficient_growth_exponent(REG2, 0.5)
    assert finite == pytest.approx(asymptotic, abs=0.02)


# ---------------------------------------------------------------------------
# distance transform
# ---------------------------------------------------------------------------


def test_distance_transform_pair_code():
    profile = distance_transform(PAIR_CODE)
    assert sum(profile.histogram) == 2**8
    # Each of the four pairs contributes distance 0 or 1 with 2 patterns
    # apiece, so the histogram is binomial(4, 1/2) scaled to 256 words.
    assert list(profile.histogram[:5]) == [math.comb(4, k) * 16 for k in range(5)]
    assert all(v == 0 for v in profile.histogram[5:])
    assert profile.average_distortion() == 0.25


def test_distance_transform_matches_naive():
    sampled = [sample_code(10, 5, REG2, seed=seed) for seed in range(5)]
    for code in sampled + list(EDGE_CODES):
        fast = distance_transform(code)
        slow = distance_transform_naive(code)
        assert tuple(fast.histogram) == tuple(slow.histogram)


def _spy_on_histogram(monkeypatch):
    """Record the number of values each ``_histogram`` call counts."""
    sizes, histogram = [], exact_module._histogram

    def spy(values, length):
        sizes.append(values.size)
        return histogram(values, length)

    monkeypatch.setattr(exact_module, "_histogram", spy)
    return sizes


def test_distance_transform_of_one_generator_on_22_checks(monkeypatch):
    # One part with 21 free bits: its 2^21-cell coset table is counted in
    # chunks.  A word is at distance min(w, 22 - w) from {0, 1^22}.
    sizes = _spy_on_histogram(monkeypatch)
    histogram = distance_transform(LdgmCode(22, (tuple(range(22)),))).histogram
    expected = [math.comb(22, d) + math.comb(22, 22 - d) for d in range(11)] + [math.comb(22, 11)]
    assert histogram == tuple(expected + [0] * 11)
    assert max(sizes) == 2**21 > exact_module._COUNT_CHUNK


def test_weight_enumerator_of_21_disjoint_pairs(monkeypatch):
    # Rank 21 on 42 checks takes the direct path over 2^21 words, counted
    # in chunks: choosing j of the pairs gives weight 2j.
    sizes = _spy_on_histogram(monkeypatch)
    counts = weight_enumerator(LdgmCode(42, tuple((2 * g, 2 * g + 1) for g in range(21)))).counts
    assert counts == tuple(math.comb(21, w // 2) if w % 2 == 0 else 0 for w in range(43))
    assert max(sizes) == 2**21 > exact_module._COUNT_CHUNK


@pytest.mark.parametrize("seed", sorted(BUDGET_PINS))
def test_kernels_at_budget_limit_match_pins(seed):
    code = sample_code(26, 24, REG2, seed=seed)
    histogram, counts = BUDGET_PINS[seed]
    assert distance_transform(code).histogram == histogram
    assert weight_enumerator(code).counts == counts


@settings(max_examples=60, deadline=None)
@given(small_codes())
# full rank, so the coset table has one cell
@example(LdgmCode(5, ((0,), (1, 2), (2,), (3, 4), (4,), (0, 4))))
# rank 0: every generator has degree 0
@example(LdgmCode(6, ((), (), ())))
# no generators at all
@example(LdgmCode(4, ()))
# repeated generators next to degree-0 ones
@example(LdgmCode(8, ((1, 3), (), (1, 3), (2, 5, 7), (2, 5, 7), (0,), ())))
# full rank again, with more generators than checks
@example(LdgmCode(10, tuple((b, b + 1) for b in range(9)) + ((0,), (3, 9))))
# pivots 2, 3, 4 sit between the non-pivot bits 0, 1 and 5, 6
@example(LdgmCode(7, ((3, 5), (4, 5), (2, 4, 6))))
# the row with pivot 0 hits non-pivot bits 1 and 6, the lowest and highest
@example(LdgmCode(7, ((0, 1, 6), (2, 3))))
def test_kernels_match_oracles_on_small_codes(code):
    assert weight_enumerator(code).counts == weight_enumerator_naive(code).counts
    assert distance_transform(code).histogram == distance_transform_naive(code).histogram


@settings(max_examples=60, deadline=None)
@given(component_codes())
# every check uncovered, beside two degree-0 generators
@example(LdgmCode(20, ((), ())))
# one giant component on all 20 checks, a path of degree-2 generators
@example(LdgmCode(20, tuple((b, b + 1) for b in range(19))))
# three parts, a repeat, a dependent generator and an uncovered check 3
@example(LdgmCode(9, ((0, 1), (1, 2), (4, 5, 6), (7, 8), (4, 5, 6), (0, 2), ())))
# one connected generator graph whose basis rows (0, 1) and (2, 3) split it
@example(LdgmCode(6, ((0, 1), (0, 1, 2, 3), (2, 3), (4, 5))))
def test_factored_transform_matches_unfactored_oracles(code):
    histogram = distance_transform(code).histogram
    assert histogram == distance_transform_table(code).histogram
    if code.num_checks <= 12:
        assert histogram == distance_transform_naive(code).histogram


@st.composite
def degree_two_codes(draw, max_checks=BLOCKLENGTH_LIMIT):
    """Codes with m <= max_checks and up to 40 generators of degree 0, 1 or
    2, sometimes with a generator repeated."""
    m = draw(st.integers(min_value=1, max_value=max_checks))
    check_sets = st.lists(
        st.integers(min_value=0, max_value=m - 1), unique=True, max_size=min(m, 2)
    ).map(lambda checks: tuple(sorted(checks)))
    generators = draw(st.lists(check_sets, max_size=40))
    if generators and draw(st.booleans()):
        generators.append(draw(st.sampled_from(generators)))
    return LdgmCode(m, tuple(generators))


@settings(max_examples=100, deadline=None)
@given(degree_two_codes())
# parallel edges, a repeated pin, degree-0 generators and an isolated check
@example(LdgmCode(6, ((0, 1), (0, 1), (), (2,), (2,), (1, 3), ())))
# a cycle without a pin, and a pinned path
@example(LdgmCode(7, ((0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6,))))
# every check pinned, so the code is full rank
@example(LdgmCode(4, ((0,), (1,), (2,), (3,), (0, 3))))
# the budget code, regular 2 at m = 26 and rank 20
@example(sample_code(26, 24, REG2, seed=3))
def test_distance_transform_matches_degree_two_closed_form(code):
    assert distance_transform(code).histogram == distance_transform_degree2(code).histogram


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*[st.integers(min_value=0, max_value=20)] * 3).filter(any),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_counting_bound_below_degree_two_optimum(weights, rate):
    # A forest with distinct pins reaches D = (1 - R (1 - L_0)) / 2, so no
    # bound for every code with the profile may exceed it.
    fractions = {d: w / sum(weights) for d, w in enumerate(weights) if w}
    line = (1.0 - rate * (1.0 - fractions.get(0, 0.0))) / 2.0
    dist = DegreeDistribution.from_fractions(fractions)
    assert counting_bound_distortion(dist, rate) <= line + 1e-12


@st.composite
def degree_one_instances(draw):
    """(m, n, generators of degree 1, seed) with m <= 20 and n <= m."""
    m = draw(st.integers(1, 20))
    n = draw(st.integers(1, m))
    return m, n, draw(st.integers(0, n)), draw(st.integers(0, 2**32))


@settings(max_examples=100, deadline=None)
@given(degree_one_instances())
def test_counting_bound_of_degree_one_codes(instance):
    # Degrees 0 and 1 only: the counting bound is the line (1 - R L_1)/2,
    # no more than the exact optimum (m - pins)/(2m), and equal to it when
    # the n L_1 pins fall on distinct checks.  The float line may round an
    # ulp above the optimum it equals.
    m, n, ones, seed = instance
    dist = DegreeDistribution.from_degrees([0] * (n - ones) + [1] * ones)
    code = sample_code(m, n, dist, seed)
    optimal = distance_transform(code).average_distortion()
    bound = counting_bound_distortion(dist, n / m)
    assert bound <= optimal + 1e-15
    if len(set(code.generators) - {()}) == ones:
        assert bound == pytest.approx((m - ones) / (2 * m), abs=1e-15)


def test_coset_table_only_for_parts_with_two_free_bits(monkeypatch):
    # A part with one free bit is a factor (1 + z) of the binomial row.
    free_bits = []

    def spy(checks, rows):
        free_bits.append(checks.bit_count() - len(rows))
        return coset_leaders(checks, rows)

    coset_leaders = exact_module._coset_leaders
    monkeypatch.setattr(exact_module, "_coset_leaders", spy)
    distance_transform(sample_code(26, 24, REG2, seed=3))
    assert free_bits == []
    codes = [sample_code(12, 6, REG3, seed) for seed in range(5)] + list(EDGE_CODES)
    codes.append(sample_code(16, 8, DegreeDistribution.from_fractions({1: 0.5, 3: 0.5}), 0))
    for code in codes:
        distance_transform(code)
    assert free_bits and min(free_bits) >= 2


@pytest.mark.parametrize("num_generators", [0, 4])
def test_low_rank_transform_at_budget_limit_stays_under_1mb(num_generators):
    # At m = 26 and rank <= 4 the unfactored coset table had at least 2^22
    # cells; the parts here are single checks or a few generators' checks.
    codes = [sample_code(26, num_generators, REG2, seed) for seed in range(5)]
    tracemalloc.start()
    try:
        profiles = [distance_transform(code) for code in codes]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    if num_generators == 0:
        assert profiles[0].histogram == tuple(math.comb(26, j) for j in range(27))


def test_distance_transform_allocates_only_its_coset_table():
    # Rank 24 at m = 26: the coset table has 4 cells, so nothing sized
    # by the 2^24 codewords may be allocated.
    code = sample_code(26, 24, REG2, seed=230)
    tracemalloc.start()
    try:
        distance_transform(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_distance_transform_budget():
    big = LdgmCode(num_checks=30, generators=((0, 1),))
    with pytest.raises(BudgetError):
        distance_transform(big)


def test_distance_transform_ignores_enumeration_budget():
    # 30 copies of one generator: rank 1, so the coset table has 2^19 cells
    # however many generators there are.
    wide = LdgmCode(num_checks=20, generators=((0, 1),) * 30)
    single = LdgmCode(num_checks=20, generators=((0, 1),))
    assert distance_transform(wide).histogram == distance_transform(single).histogram


def test_verify_code_refuses_enumeration_before_allocating():
    wide = LdgmCode(num_checks=26, generators=((0, 1),) * 30)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            verify_code(wide, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_optimal_distortion_zero_matrix():
    zero = LdgmCode(num_checks=10, generators=((), (), ()))
    assert optimal_average_distortion(zero) == 0.5
    assert distance_transform(zero).average_distortion() == 0.5


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def test_verify_code_passes_on_sampled_instance():
    code = sample_code(12, 6, REG2, seed=9)
    report = verify_code(code, 26)
    assert report.passed
    assert report.chain_ok and report.enumerator_ok and report.bound_ok
    assert report.optimal_distortion >= report.bound_distortion - 1e-9
    assert report.enumerator_slack >= 0
    assert report.num_checks == 12 and report.num_generators == 6


def test_verify_report_margins_consistent():
    code = sample_code(14, 7, REG2, seed=2)
    report = verify_code(code, 26)
    assert report.bound_margin == pytest.approx(
        report.optimal_distortion - report.bound_distortion, abs=1e-15
    )
    assert report.bound_distortion == pytest.approx(
        counting_bound_distortion(REG2, 0.5), abs=1e-12
    )


def chain_fields(report):
    return report.chain_ok, report.chain_margin


def exact_grid(steps):
    """The d-grid of ``steps`` steps as exact fractions k / (2 (steps - 1))."""
    return [Fraction(k, 2 * (steps - 1)) for k in range(steps)]


@settings(max_examples=80, deadline=None)
@given(
    # rate at most 1, where the counting bound is defined
    small_codes(max_checks=16).filter(lambda code: code.num_generators <= code.num_checks),
    st.integers(min_value=2, max_value=200),
)
# den = 16 (steps 9) is a multiple of m = 8: every radius k m / den is whole
@example(PAIR_CODE, 9)
# den = 50 (steps 26) is not a multiple of m = 6: most radii are floored
@example(LdgmCode(6, ()), 26)
# steps 2, the smallest grid: d in {0, 1/2}
@example(LdgmCode(7, ((0, 1), (2, 3, 4))), 2)
# full rank: optimal 0 equals the right-hand side at d = 0, and the chain holds
@example(LdgmCode(2, ((0,), (0, 1))), 2)
def test_chain_check_matches_naive_fractions(code, steps):
    report = verify_code(code, steps)
    profile = distance_transform(code)
    assert chain_fields(report) == chain_check_naive(profile, exact_grid(steps))


@pytest.mark.parametrize("seed", sorted(BUDGET_PINS))
def test_chain_check_at_budget_limit_matches_naive(seed):
    # steps 26 is the grid k/50, steps 14 the grid k/26, whose radii k
    # land exactly on integers at m = 26.
    code = sample_code(26, 24, REG2, seed=seed)
    pinned = CoverProfile(26, BUDGET_PINS[seed][0])
    for steps in (26, 14):
        report = verify_code(code, steps)
        assert chain_fields(report) == chain_check_naive(pinned, exact_grid(steps))
        assert report.chain_ok


def test_verify_code_eliminates_once_per_code(monkeypatch):
    # Both kernels read one basis per code: the primal-side enumerator at
    # rank 6 of m = 14, the dual side at rank above m/2 (m = 12, n = 10).
    calls = []

    def spy(masks):
        calls.append(masks)
        return basis(masks)

    basis = exact_module._basis
    monkeypatch.setattr(exact_module, "_basis", spy)
    codes = [sample_code(14, 6, REG3, seed) for seed in range(3)]
    codes += [sample_code(12, 10, REG2, seed) for seed in range(3)]
    for count, code in enumerate(codes, start=1):
        verify_code(code, 26)
        assert len(calls) == count
    assert max(len(code._rows) for code in codes) > 6


def test_kernels_share_one_elimination_per_code(monkeypatch):
    # The basis is memoised in the code's __dict__: both kernels, in either
    # order and called twice, eliminate once per code, and an equal copy,
    # a new object, eliminates again.
    calls = []

    def spy(masks):
        calls.append(masks)
        return basis(masks)

    basis = exact_module._basis
    monkeypatch.setattr(exact_module, "_basis", spy)
    codes = [sample_code(14, 6, REG3, seed=1), sample_code(12, 10, REG2, seed=2)]
    for count, code in enumerate(codes, start=1):
        kernels = (distance_transform, weight_enumerator)
        for kernel in kernels if count == 1 else kernels[::-1]:
            first = kernel(code)
            assert kernel(code) == first
        assert len(calls) == count
        assert code.__dict__["_rows"] == code._rows
    copy = LdgmCode(codes[0].num_checks, codes[0].generators)
    assert copy == codes[0] and copy._rows == codes[0]._rows
    assert len(calls) == 3


def test_profile_memo_bounded_over_many_sizes():
    # One key per (n, m): n generators of degree 1, all on check 0.
    memo = exact_module._profile_checks
    memo.cache_clear()
    keys = memo.cache_info().maxsize + 50
    sizes = [(n, m) for m in range(1, BLOCKLENGTH_LIMIT + 1) for n in range(m + 1)][:keys]
    assert len(sizes) == keys
    codes = [LdgmCode(m, ((0,),) * n) for n, m in sizes]
    for code in codes:
        verify_code(code, 26)
    info = memo.cache_info()
    assert info.misses == keys
    assert info.currsize == info.maxsize
    # The first size was evicted, so asking again computes afresh.
    verify_code(codes[0], 26)
    assert memo.cache_info().misses == keys + 1
    memo.cache_clear()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=30))
@example([0, 0, 0])
@example([0, 2, 5, 0, 1, 2, 2])
def test_memoised_floors_match_per_generator_product(degrees):
    # A miss and then a hit both give the naive product, with zero tolerance.
    m = max(len(degrees), *degrees, 1)
    for _ in range(2):
        floors, _ = exact_module._profile_checks(tuple(sorted(degrees)), m)
        assert floors == coefficient_floor_naive(degrees)


def test_verify_code_reads_the_profile_from_the_code():
    # Two spellings of 1/3, 2/3 round to the same counts {1: 1, 2: 2} and
    # sample the same code; it is checked against its own profile, the
    # exact thirds, whichever spelling it came from and in any generator
    # order.
    spellings = ("1:0.3333333,2:0.6666667", "1:0.3333334,2:0.6666666")
    codes = [sample_code(6, 3, parse_degree_literal(text), seed=0) for text in spellings]
    report = verify_code(codes[0], 26)
    assert verify_code(codes[1], 26) == report
    assert verify_code(LdgmCode(6, codes[0].generators[::-1]), 26) == report
    thirds = DegreeDistribution.from_degrees([1, 2, 2])
    assert report.bound_distortion == counting_bound_distortion(thirds, 0.5)
    reference = counting_distortion(((1, 1 / 3), (2, 2 / 3)), 0.5)
    assert abs(report.bound_distortion - float(reference)) <= 1e-10


@st.composite
def codes_with_idle_generators(draw):
    """Codes with m <= 10 and up to m + 6 generators of degree 0 to 4, many
    of degree 0: some have n > m, some no generator of positive degree."""
    m = draw(st.integers(min_value=1, max_value=10))
    check_sets = st.lists(
        st.integers(min_value=0, max_value=m - 1), unique=True, max_size=min(m, 4)
    ).map(lambda checks: tuple(sorted(checks)))
    return LdgmCode(m, tuple(draw(st.lists(check_sets | st.just(()), max_size=m + 6))))


@settings(max_examples=150, deadline=None)
@given(codes_with_idle_generators())
@example(LdgmCode(8, ((0, 1),) * 12))
@example(LdgmCode(4, ((), (), (0, 1, 2), (1, 3))))
@example(LdgmCode(6, ((), (0, 1, 2), (2, 3), (1, 4, 5))))
@example(LdgmCode(3, ((), (0,), (1,), (2,))))
@example(LdgmCode(5, ((),) * 7))
def test_verify_bound_is_that_of_the_positive_generators(code):
    # A degree-0 generator adds no codeword, so the bound is that of the n+
    # positive-degree generators at rate n+/m: 1/2 without any, 0 from
    # n+ = m on.  Where the whole profile averages above 1 and n <= m, its
    # own bound at n/m is the same number up to rounding.
    m, n = code.num_checks, code.num_generators
    degrees = [len(checks) for checks in code.generators]
    positive = [d for d in degrees if d]
    if not positive:
        expected = 0.5
    elif len(positive) >= m:
        expected = 0.0
    else:
        dist = DegreeDistribution.from_degrees(positive)
        expected = counting_bound_distortion(dist, len(positive) / m)
    report = verify_code(code, 6)
    assert report.bound_distortion == expected
    assert report.bound_ok
    whole = DegreeDistribution.from_degrees(degrees) if 0 < n <= m else None
    if whole is not None and whole.average_degree > 1.0:
        assert abs(counting_bound_distortion(whole, n / m) - expected) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, m - 1), max_size=4, unique=True).map(lambda c: tuple(sorted(c))),
            min_size=1,
            max_size=m,
        ).map(lambda generators: LdgmCode(m, ((),) + tuple(generators[1:])))
    )
)
@example(LdgmCode(8, ((), (), (0, 1), (2, 3))))  # the whole profile averages 1
@example(LdgmCode(6, ((),) * 6))
def test_verify_and_curve_bound_a_profile_by_one_rule(code):
    # The bound verify checks a code against, from its positive-degree
    # generators at n+/m, is the counting bound of the whole profile at
    # n/m, degree-0 generators and all, as ``curve`` computes it.
    m, n = code.num_checks, code.num_generators
    whole = DegreeDistribution.from_degrees([len(checks) for checks in code.generators])
    report = verify_code(code, 6)
    assert abs(report.bound_distortion - counting_bound_distortion(whole, n / m)) <= 1e-15


def repetition_distance(length: int) -> Fraction:
    """Mean distance from a uniform word of ``length`` bits to {0^l, 1^l}."""
    return Fraction(sum(math.comb(length, w) * min(w, length - w) for w in range(length + 1)), 2**length)


def hamming_distance(redundancy: int) -> Fraction:
    """Mean distance from a uniform word to a perfect Hamming code of length
    2^r - 1: every word lies within 1 of it, and a share 2^-r on it."""
    return 1 - Fraction(1, 2**redundancy)


# Two codes that lie below the conjectured curve: (code, its optimum as a
# direct sum of closed forms over its parts, that optimum, degree, rate).
# Six disjoint degree-2 generators; and one degree-3 generator beside the
# cyclic Hamming code on 7 checks, the shifts {s, s+1, s+3} mod 7,
# s = 0..3, of 1 + x + x^3.
CONJECTURE_COUNTEREXAMPLES = (
    (
        LdgmCode(12, tuple((2 * g, 2 * g + 1) for g in range(6))),
        6 * repetition_distance(2) / 12,
        Fraction(1, 4),
        2,
        0.5,
    ),
    (
        LdgmCode(10, ((0, 1, 2),) + tuple(tuple(sorted(3 + (s + o) % 7 for o in (0, 1, 3))) for s in range(4))),
        (repetition_distance(3) + hamming_distance(3)) / 10,
        Fraction(13, 80),
        3,
        0.5,
    ),
)


@pytest.mark.parametrize(
    "code, closed_form, optimum, degree, rate", CONJECTURE_COUNTEREXAMPLES, ids=["matching", "hamming"]
)
def test_conjecture_lies_above_explicit_codes(code, closed_form, optimum, degree, rate):
    # The conjectured curve claims no regular code of degree l does better
    # at rate R; these do, exactly: 1/4 against 1/2, and 13/80 against
    # 0.1722461415.
    assert {len(checks) for checks in code.generators} == {degree}
    assert code.num_generators / code.num_checks == rate
    profile = distance_transform(code)
    weighted = sum(d * count for d, count in enumerate(profile.histogram))
    assert Fraction(weighted, code.num_checks << code.num_checks) == closed_form == optimum
    assert conjectured_exit_distortion_bound(degree, rate) > optimum + Fraction(1, 200)
    assert verify_code(code, 26).passed


# The degree profiles of a verify campaign, each with the generator count
# it divides, as in perfbench/workloads.py.
CAMPAIGN_PROFILES = (
    (REG2, 1),
    (REG3, 1),
    (parse_degree_literal("1:0.5,3:0.5"), 2),
    (parse_degree_literal("2:0.5,4:0.5"), 2),
    (parse_degree_literal("1:0.25,2:0.5,3:0.25"), 4),
)


@pytest.mark.parametrize(
    "dist, multiple", CAMPAIGN_PROFILES, ids=[dist.to_literal() for dist, _ in CAMPAIGN_PROFILES]
)
def test_verify_code_accepts_the_profile_a_code_was_sampled_from(dist, multiple):
    for m in (12, 20):
        for rate in (0.25, 0.5, 0.75):
            n = max(multiple, round(m * rate / multiple) * multiple)
            for seed in range(2):
                assert verify_code(sample_code(m, n, dist, seed), 26).passed


@pytest.mark.parametrize("steps", [1, 0, -3])
def test_verify_code_rejects_fewer_than_two_steps(steps):
    with pytest.raises(ValueError, match="at least 2 d-grid steps"):
        verify_code(PAIR_CODE, steps)


# ---------------------------------------------------------------------------
# code files
# ---------------------------------------------------------------------------


def test_code_text_round_trip():
    text = code_to_text(PAIR_CODE)
    again = code_from_text(text)
    assert again == PAIR_CODE
    assert text.endswith("\n")


def test_code_file_round_trip(tmp_path):
    path = tmp_path / "code.txt"
    write_code_file(PAIR_CODE, path)
    assert read_code_file(path) == PAIR_CODE


def test_code_from_text_error_messages():
    with pytest.raises(ValueError, match="line 1"):
        code_from_text("not a header\n")
    with pytest.raises(ValueError, match="line 2"):
        code_from_text("ldgm 4 1\n0 9\n")
    with pytest.raises(ValueError, match="line 3"):
        code_from_text("ldgm 4 2\n0 1\n2 x\n")
    with pytest.raises(ValueError, match="promises 2"):
        code_from_text("ldgm 4 2\n0 1\n")
