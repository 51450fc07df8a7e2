"""Brute-force oracles for the exact kernels, built on ``encode`` or on
XORs of the generators' check sets, never on the package's kernels; a
per-generator coefficient floor; a union-find closed form of the
transform for codes of degree at most 2; a naive chain check in
``Fraction``s; the bound curves' row checks taken one row and one pair
at a time; their CSV rows written one f-string at a time; and the exact stack's small helpers that the package itself
does not use (``encode``, ``optimal_average_distortion``).

The bound stack's float second routes (the primal rate bounds, the
coverage exponent and the coefficient floor's growth rate) live in
``oracles_float.py``, and its 60-digit references in ``oracles_mp.py``."""

import math
from fractions import Fraction
from itertools import accumulate, product

import numpy as np

from ldgm_bounds import CoverProfile, LdgmCode, WeightEnumerator


def encode(code: LdgmCode, index_bits) -> list[int]:
    """Map an index word (length n of 0/1) to its codeword (length m)."""
    if len(index_bits) != code.num_generators:
        raise ValueError(
            f"index word length {len(index_bits)} != {code.num_generators}"
        )
    word = [0] * code.num_checks
    for bit, checks in zip(index_bits, code.generators):
        if bit not in (0, 1):
            raise ValueError(f"index word entries must be 0/1, got {bit!r}")
        if bit:
            for index in checks:
                word[index] ^= 1
    return word


def _all_codewords(code: LdgmCode) -> list[int]:
    """The codeword of every index word, as an integer bitmask."""
    return [
        sum(bit << i for i, bit in enumerate(encode(code, bits)))
        for bits in product((0, 1), repeat=code.num_generators)
    ]


def weight_enumerator_naive(code: LdgmCode) -> WeightEnumerator:
    """Reference enumerator: encode each index word from scratch."""
    counts = [0] * (code.num_checks + 1)
    for word in _all_codewords(code):
        counts[word.bit_count()] += 1
    return WeightEnumerator(code.num_checks, code.num_generators, tuple(counts))


def weight_enumerator_gray(code: LdgmCode) -> WeightEnumerator:
    """Reference enumerator for codes too long to encode word by word: a Gray
    walk over the index words, one generator's check set XORed in per step,
    as Python ints."""
    masks = [sum(1 << index for index in checks) for checks in code.generators]
    counts = [0] * (code.num_checks + 1)
    word = 0
    counts[0] = 1
    for step in range(1, 1 << len(masks)):
        word ^= masks[(step & -step).bit_length() - 1]
        counts[word.bit_count()] += 1
    return WeightEnumerator(code.num_checks, code.num_generators, tuple(counts))


def distance_transform_naive(code: LdgmCode) -> CoverProfile:
    """Reference transform: per source word, scan the whole codeword set."""
    codewords = set(_all_codewords(code))
    histogram = [0] * (code.num_checks + 1)
    for word in range(1 << code.num_checks):
        histogram[min((word ^ c).bit_count() for c in codewords)] += 1
    return CoverProfile(code.num_checks, tuple(histogram))


def distance_transform_table(code: LdgmCode) -> CoverProfile:
    """Reference transform over one table of all 2^m source words, with no
    elimination, cosets or factoring.

    The table starts at 0 on the zero word only; XORing in each generator's
    check set in turn spreads the 0s over the code's span, and one min-plus
    pass per check bit then leaves each word's distance to the nearest 0.
    Each XOR is a flip of the axes of a (2,)*m view.
    """
    m = code.num_checks
    table = np.full(1 << m, m + 1, dtype=np.uint8)
    table[0] = 0
    cube = table.reshape((2,) * m)

    def flipped(checks):
        # check bit b is axis m - 1 - b of the view
        return cube[tuple(slice(None, None, -1) if m - 1 - axis in checks else slice(None)
                          for axis in range(m))]

    for checks in code.generators:
        np.minimum(cube, flipped(set(checks)), out=cube)
    for bit in range(m):
        np.minimum(cube, flipped({bit}) + np.uint8(1), out=cube)
    return CoverProfile(m, tuple(np.bincount(table, minlength=m + 1).tolist()))


def distance_transform_degree2(code: LdgmCode) -> CoverProfile:
    """Closed-form transform of a code whose generators have degree <= 2.

    Degree-2 generators are edges of a graph on the checks, and degree-1
    generators pin a check.  A connected component with a pin has full
    rank; one without has rank v - 1, and its two cosets have leaders of
    weight 0 and 1.  With c unpinned components, isolated checks included,
    the histogram is C(c, j) 2^(m - c).
    """
    m = code.num_checks
    parent = list(range(m))

    def root(check):
        while parent[check] != check:
            check = parent[check]
        return check

    pins = []
    for checks in code.generators:
        if len(checks) > 2:
            raise ValueError(f"generator of degree {len(checks)} > 2")
        if len(checks) == 1:
            pins.append(checks[0])
        elif len(checks) == 2:
            parent[root(checks[0])] = root(checks[1])
    free = len({root(check) for check in range(m)} - {root(check) for check in pins})
    return CoverProfile(m, tuple(math.comb(free, j) << (m - free) for j in range(m + 1)))


def coefficient_floor_naive(degrees) -> tuple[int, ...]:
    """Reference coefficient floor: prefix sums of prod_g (1 + x^(d_g)),
    multiplied out one generator of degree d_g at a time."""
    coefficients = [1]
    for degree in degrees:
        grown = coefficients + [0] * degree
        for k, c in enumerate(coefficients):
            grown[k + degree] += c
        coefficients = grown
    return tuple(accumulate(coefficients))


def optimal_average_distortion(code: LdgmCode) -> float:
    """Distortion of the best possible encoder: mean nearest-codeword distance."""
    return distance_transform_table(code).average_distortion()


def chain_check_naive(profile: CoverProfile, d_grid):
    """Reference chain check: (chain_ok, chain_margin) in ``Fraction``s.

    ``d_grid`` holds exact ``Fraction``s.  At each grid d, with covered the
    source words within radius floor(d m), the chain holds when
    optimal >= d (1 - covered/2^m).
    """
    m, total = profile.num_checks, 1 << profile.num_checks
    optimal = Fraction(sum(d * count for d, count in enumerate(profile.histogram)), m * total)
    chain_ok = True
    worst = Fraction(0)
    for d in d_grid:
        covered = sum(profile.histogram[: math.floor(d * m) + 1])
        rhs = d * (total - covered) / total
        worst = max(worst, rhs)
        if optimal < rhs:
            chain_ok = False
    return chain_ok, float(optimal) - float(worst)


def curve_check_naive(rates, distortions):
    """Reference curve check: raise ValueError as ``BoundCurve`` does.

    Each (rate, distortion) row is range-checked in turn, rate first, to
    1e-12; then each consecutive pair must have rates in order and no
    distortion rise above 1e-9.
    """
    for rate, distortion in zip(rates, distortions):
        if not -1e-12 <= rate <= 1.0 + 1e-12:
            raise ValueError(f"rate out of range: {rate!r}")
        if not -1e-12 <= distortion <= 0.5 + 1e-12:
            raise ValueError(f"distortion out of range: {distortion!r}")
    for k in range(1, len(rates)):
        if rates[k] < rates[k - 1]:
            raise ValueError("curve points must be sorted by rate")
        if distortions[k] > distortions[k - 1] + 1e-9:
            raise ValueError(
                f"distortion must not increase with rate: "
                f"{distortions[k - 1]!r} -> {distortions[k]!r}"
            )


def csv_rows_naive(distortions, rates) -> str:
    """Reference CSV rows of a curve: one ``%.10g`` f-string per row."""
    return "".join(f"{d:.10g},{r:.10g}\n" for d, r in zip(distortions, rates))
