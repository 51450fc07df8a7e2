"""Brute-force oracles for the exact kernels, built on ``encode`` alone."""

from itertools import product

from ldgm_bounds import CoverProfile, LdgmCode, WeightEnumerator, encode


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


def distance_transform_naive(code: LdgmCode) -> CoverProfile:
    """Reference transform: per source word, scan the whole codeword set."""
    codewords = set(_all_codewords(code))
    histogram = [0] * (code.num_checks + 1)
    for word in range(1 << code.num_checks):
        histogram[min((word ^ c).bit_count() for c in codewords)] += 1
    return CoverProfile(code.num_checks, tuple(histogram))
