"""Exact machinery for concrete small codes.

Everything here is combinatorially exact: codeword weight counts and
coefficient floors use arbitrary-precision integers, and the distance
transform assigns every source word its true distance to the nearest
codeword.  This is what lets the asymptotic bounds be checked
against brute-force optima on real instances.

Both kernels start from one GF(2) elimination, ``_basis``, which reduces
the generator masks to k independent rows, k being the code's rank.  The
weight enumerator counts the popcounts of the smaller of the code and its
dual: the 2^k distinct codewords, or, when m - k < k, the 2^(m-k) dual
words turned into codeword counts by the MacWilliams identity in exact
integers.  It scales each count by the 2^(n-k) index words that share a
codeword.  The distance transform convolves, in exact integers, the
histograms of the code's parts on disjoint check sets: one binomial row
for the uncovered checks and the parts with one free bit, and for any
other part, of m_c checks and rank k_c, at most m_c min-plus passes over
a table of its 2^(m_c-k_c) cosets.

Budgets keep runtimes at desk scale: the weight enumerator is capped at
n <= 24 generators and m <= 1024 checks, and the distance transform at
m <= 26 checks.  All are checked before anything is allocated.

``verify_code`` checks a code against its own profile, the degrees of
its generators, and pays per code only for that code.  The code runs one
elimination, kept on it (``LdgmCode._rows``) for both kernels.  What holds
for every code of a profile, the coefficient floors and the counting bound
of its positive degrees, is kept by ``_profile_checks``, an ``lru_cache``
of ``_PROFILE_CACHE_SIZE`` = 256 entries keyed by (sorted degrees, m) that
holds immutable values only; its ``cache_info()`` counts the hits and
misses.  The chain check takes the d-grid as its step count s: grid
point k is k / den with den = 2 (s - 1), its radius is floor(k m / den),
and the check runs in integers over den.  ``_enumerator_rows`` is the
enumerator check that ``verify_code`` and the ``enum`` command both read.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from pathlib import Path

import numpy as np

from .bounds import counting_bound_distortion
from .degree import DegreeDistribution

__all__ = [
    "BLOCKLENGTH_LIMIT",
    "GENERATOR_LIMIT",
    "BudgetError",
    "CoverProfile",
    "LdgmCode",
    "VerificationReport",
    "WeightEnumerator",
    "code_from_text",
    "code_to_text",
    "coefficient_lower_bound",
    "distance_transform",
    "generator_masks",
    "read_code_file",
    "sample_code",
    "verify_code",
    "weight_enumerator",
    "write_code_file",
]

BLOCKLENGTH_LIMIT = 26
GENERATOR_LIMIT = 24
# The weight enumerator's check budget: its histograms and its output grow
# with m, even at rank 0.
_CHECKS_LIMIT = 1024


class BudgetError(ValueError):
    """An exact computation would exceed the enumeration budget."""


@dataclass(frozen=True)
class LdgmCode:
    """A sparse generator matrix: per-generator tuples of check indices.

    ``generators[g]`` lists, strictly ascending, the checks generator g is
    wired to.  Codewords are the XOR combinations of these check sets; the
    all-zero index word always maps to the all-zero codeword.
    """

    num_checks: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_checks < 1:
            raise ValueError(f"need at least one check node, got {self.num_checks!r}")
        for g, checks in enumerate(self.generators):
            _check_indices(checks, self.num_checks, "generator", g)

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def _rows(self) -> tuple[int, ...]:
        """The reduced basis of the generator masks, eliminated once per
        code and read by both exact kernels; memoised in the instance's
        ``__dict__``, without the lock ``functools.cached_property`` takes
        on Python 3.11."""
        rows = self.__dict__.get("_rows")
        if rows is None:
            rows = self.__dict__["_rows"] = tuple(_basis(generator_masks(self)))
        return rows


def _check_indices(checks, num_checks: int, label: str, number: int) -> None:
    """Reject indices out of [0, num_checks) or not ascending; cite label number."""
    prev = -1
    for index in checks:
        if not 0 <= index < num_checks:
            raise ValueError(
                f"{label} {number}: check index {index} out of range [0, {num_checks})"
            )
        if index <= prev:
            raise ValueError(f"{label} {number}: check indices must be strictly ascending")
        prev = index


def generator_masks(code: LdgmCode) -> tuple[int, ...]:
    """Each generator's check set as an integer bitmask."""
    return tuple(sum(1 << index for index in checks) for checks in code.generators)


def sample_code(
    num_checks: int, num_generators: int, dist: DegreeDistribution, seed: int
) -> LdgmCode:
    """Draw a code with the exact degree multiset implied by ``dist``.

    Requires every num_generators * fraction to be an integer.  Degrees are
    shuffled across generators and each generator picks its checks without
    replacement, all driven by ``seed`` for reproducibility.
    """
    if num_checks < 1:
        raise ValueError(f"need at least one check node, got {num_checks!r}")
    counts = _integral_degree_counts(dist, num_generators)
    degrees = [d for d, count in counts.items() for _ in range(count)]
    if degrees and max(degrees) > num_checks:
        raise ValueError(
            f"degree {max(degrees)} exceeds the number of checks {num_checks}"
        )
    rng = random.Random(seed)
    rng.shuffle(degrees)
    generators = tuple(
        tuple(sorted(rng.sample(range(num_checks), degree))) for degree in degrees
    )
    return LdgmCode(num_checks, generators)


def _integral_degree_counts(dist: DegreeDistribution, n: int) -> dict[int, int]:
    """n * L_i as exact integers; rejects distributions that do not divide n."""
    if n < 0:
        raise ValueError(f"negative generator count: {n!r}")
    counts: dict[int, int] = {}
    for degree, fraction in dist.entries:
        scaled = n * fraction
        count = round(scaled)
        if abs(scaled - count) > 1e-6:
            raise ValueError(
                f"{n} generators cannot realize fraction {fraction!r} "
                f"at degree {degree} exactly"
            )
        if count:
            counts[degree] = count
    if sum(counts.values()) != n:
        raise ValueError(f"degree counts {counts} do not sum to {n}")
    return counts


# ---------------------------------------------------------------------------
# GF(2) elimination and span kernel
# ---------------------------------------------------------------------------

_COUNT_CHUNK = 1 << 20


def _basis(masks) -> list[int]:
    """Reduced row-echelon basis of the span of ``masks``.

    Each row's pivot is its lowest set bit, and that bit is clear in every
    other row, so a combination of rows has a set pivot bit exactly where
    it picks that row.  The rank k is the number of rows.
    """
    rows: list[int] = []
    for mask in masks:
        for row in rows:
            if mask & row & -row:
                mask ^= row
        if mask:
            pivot = mask & -mask
            rows = [row ^ mask if row & pivot else row for row in rows]
            rows.append(mask)
    return rows


def _span(masks, first_check: int = 0) -> np.ndarray:
    """XOR of every subset of ``masks``, on bits first_check .. first_check+31.

    Entry j of the 2^len(masks) uint32 array XORs the masks picked by the
    bits of j.  Doubling in place: entries [2^g, 2^(g+1)) are entries
    [0, 2^g) XOR mask g.
    """
    words = np.zeros(1 << len(masks), dtype=np.uint32)
    for g, mask in enumerate(masks):
        half = 1 << g
        piece = np.uint32((mask >> first_check) & 0xFFFFFFFF)
        np.bitwise_xor(words[:half], piece, out=words[half : 2 * half])
    return words


def _histogram(values: np.ndarray, length: int) -> list[int]:
    """Exact bincount, 2^20 entries at a time to bound bincount's intp copy."""
    counts = np.bincount(values[:_COUNT_CHUNK], minlength=length)
    for start in range(_COUNT_CHUNK, values.size, _COUNT_CHUNK):
        counts += np.bincount(values[start : start + _COUNT_CHUNK], minlength=length)
    return counts.tolist()


def _span_weights(masks, num_checks: int) -> list[int]:
    """Popcount histogram of the span of ``masks``, summed over 32-check slices."""
    weights = np.bitwise_count(_span(masks))
    for first_check in range(32, num_checks, 32):
        more = np.bitwise_count(_span(masks, first_check))
        weights = np.add(weights, more, dtype=np.int32)
    return _histogram(weights, num_checks + 1)


# ---------------------------------------------------------------------------
# weight enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightEnumerator:
    """Exact codeword-weight counts over all 2^n index words.

    ``counts[w]`` is the number of index words whose codeword has Hamming
    weight w, multiplicity included, so the counts sum to 2^n.
    """

    num_checks: int
    num_generators: int
    counts: tuple[int, ...]

    def cumulative(self) -> tuple[int, ...]:
        """Number of index words with codeword weight at most w, per w."""
        return tuple(accumulate(self.counts))


def weight_enumerator(code: LdgmCode) -> WeightEnumerator:
    """Codeword-weight counts of the 2^k distinct codewords, times 2^(n-k).

    Every codeword of a rank-k code is the image of exactly 2^(n-k) index
    words.  When the dual code is smaller, 2k > m, its 2^(m-k) words are
    counted instead and ``_macwilliams`` turns their counts into the
    code's; so the work is about 2^min(k, m-k) words plus an (m+1)^2
    integer transform.
    """
    if code.num_generators > GENERATOR_LIMIT:
        raise BudgetError(
            f"{code.num_generators} generators exceed the enumeration budget "
            f"of {GENERATOR_LIMIT}"
        )
    m = code.num_checks
    if m > _CHECKS_LIMIT:
        raise BudgetError(
            f"blocklength {m} exceeds the enumeration budget of {_CHECKS_LIMIT}"
        )
    rows = code._rows
    k = len(rows)
    if 2 * k > m:
        counts = _macwilliams(_span_weights(_dual_rows(rows, m), m), m - k)
    else:
        counts = _span_weights(rows, m)
    shift = code.num_generators - k
    return WeightEnumerator(m, code.num_generators, tuple(c << shift for c in counts))


def _dual_rows(rows, num_checks: int) -> list[int]:
    """A basis of the dual code: per non-pivot bit f, e_f plus the pivots of
    the rows with bit f set.  Such a word meets every row in two bits or
    none, because a row's only pivot bit is its own."""
    free = (1 << num_checks) - 1
    pivots_at: dict[int, int] = {}  # non-pivot bit -> pivots of the rows with it
    for row in rows:
        pivot = row & -row
        free ^= pivot
        rest = row ^ pivot
        while rest:
            bit = rest & -rest
            pivots_at[bit] = pivots_at.get(bit, 0) | pivot
            rest ^= bit
    words = []
    while free:
        bit = free & -free
        words.append(bit | pivots_at.get(bit, 0))
        free ^= bit
    return words


# Above 41 checks a MacWilliams partial sum may pass 2^63; see _krawtchouk.
_INT64_CHECKS = 41


@functools.cache
def _krawtchouk(num_checks: int) -> np.ndarray:
    """Read-only table K[w, j] = K_w(j), the coefficient of z^w in
    (1 - z)^j (1 + z)^(m - j).

    Built by K_w(j + 1) = K_w(j) - K_(w-1)(j) - K_(w-1)(j + 1) from
    K_w(0) = C(m, w), one cumulative sum per row.  On the dual side
    m - k < m/2, so a partial sum of 2^(m-k) dual words against one row is
    below 2^(m-k) C(m, w) < 2^(1.5 m): int64 holds it up to m = 41, Python
    ints (object dtype) beyond.  The dual side needs k <= n <= 24, so at
    most 47 tables are ever cached.
    """
    m = num_checks
    table = np.zeros((m + 1, m + 1), dtype=np.int64 if m <= _INT64_CHECKS else object)
    table[0] = 1
    for w in range(1, m + 1):
        previous = table[w - 1]
        table[w, 0] = math.comb(m, w)
        table[w, 1:] = table[w, 0] - np.cumsum(previous[:-1] + previous[1:])
    table.flags.writeable = False
    return table


def _macwilliams(dual_counts, dual_rank: int) -> list[int]:
    """Codeword-weight counts A_w = 2^-(m-k) sum_j B_j K_w(j) from the dual's B_j.

    Exact: raises ArithmeticError if a sum is not a multiple of 2^(m-k),
    which no dual histogram gives.
    """
    table = _krawtchouk(len(dual_counts) - 1)
    sums = table @ np.array(dual_counts, dtype=table.dtype)
    if (sums & ((1 << dual_rank) - 1)).any():
        raise ArithmeticError(
            f"MacWilliams sums {sums.tolist()} are not multiples of 2^{dual_rank}"
        )
    return (sums >> dual_rank).tolist()


# ---------------------------------------------------------------------------
# coefficient floor on cumulative weight counts
# ---------------------------------------------------------------------------


def coefficient_lower_bound(degrees) -> tuple[int, ...]:
    """Prefix sums of the coefficients of prod_i (1 + x^i)^{n L_i}.

    Entry w floors the number of index words whose codeword weight is at
    most w, for any code whose n generators have these ``degrees``, n L_i
    of degree i.  Exact integers; the last entry is 2^n, (1,) at n = 0.
    Indices past the polynomial degree keep the terminal value 2^n.
    """
    counts = Counter(degrees)
    rows = (_binomial(count, degree) for degree, count in sorted(counts.items()))
    return tuple(accumulate(functools.reduce(_convolve, rows, [1])))


def _enumerator_rows(enumerator: WeightEnumerator, floors) -> list[tuple[int, int, int, bool]]:
    """The enumerator check per weight w = 0 .. m: (A_w, cumulative A_w,
    floor_w, cumulative >= floor), the floor held at 2^n past its degree."""
    padded = chain(floors, repeat(floors[-1]))
    rows = zip(enumerator.counts, enumerator.cumulative(), padded)
    return [(count, total, floor, total >= floor) for count, total, floor in rows]


# ---------------------------------------------------------------------------
# hypercube distance transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverProfile:
    """Histogram over distances from source words to their nearest codeword."""

    num_checks: int
    histogram: tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.histogram) != 1 << self.num_checks:
            raise ValueError("histogram must account for every source word")

    def average_distortion(self) -> float:
        """Mean nearest-codeword distance, normalized by blocklength."""
        weighted = sum(d * count for d, count in enumerate(self.histogram))
        return weighted / (self.num_checks * (1 << self.num_checks))


def distance_transform(code: LdgmCode) -> CoverProfile:
    """Exact nearest-codeword distance histogram over all 2^m source words.

    The code is a direct sum of parts on disjoint check sets: its basis
    rows grouped by shared checks, and each check no row touches.  A source
    word's distance is the sum of its distances in the parts, so the
    histogram is the convolution of the parts' histograms.  A row of one
    check is a part at distance 0.  An uncovered check, like a part with
    one free bit (m_c - k_c = 1), has two cosets with leaders of weight 0
    and 1, a factor (1 + z): one binomial row stands for all of them.

    In a part of m_c checks and rank k_c with m_c - k_c >= 2, the distance
    depends only on the coset: ``_coset_leaders`` keeps one cell per coset,
    indexed by the syndrome, the non-pivot bits of the coset's member with
    clear pivot bits.  Flipping check bit b XORs the syndrome with b's
    column: its unit vector for a non-pivot bit, its basis row's non-pivot
    bits for a pivot bit.  From the code's cell 0, one min-plus pass per
    distinct nonzero column leaves in each cell the coset leader's weight.
    The work is O(sum of m_c 2^(m_c-k_c)), not O(m 2^(m-k)); each coset
    stands for 2^k source words.
    """
    if code.num_checks > BLOCKLENGTH_LIMIT:
        raise BudgetError(
            f"blocklength {code.num_checks} exceeds the transform budget "
            f"of {BLOCKLENGTH_LIMIT}"
        )
    m = code.num_checks
    rows = code._rows
    parts: list[tuple[int, list[int]]] = []  # (check set, basis rows), disjoint
    for row in rows:
        if not row & (row - 1):
            continue
        checks, members, rest = row, [row], []
        for part in parts:
            if part[0] & row:
                checks |= part[0]
                members += part[1]
            else:
                rest.append(part)
        parts = rest + [(checks, members)]
    # factors (1 + z): the uncovered checks and the parts with one free bit
    wide = [part for part in parts if part[0].bit_count() - len(part[1]) > 1]
    ones = m - functools.reduce(int.__or__, rows, 0).bit_count() + len(parts) - len(wide)
    histograms = (_coset_leaders(checks, members) for checks, members in wide)
    histogram = functools.reduce(_convolve, histograms, _binomial(ones))
    histogram += [0] * (m + 1 - len(histogram))
    return CoverProfile(m, tuple(c << len(rows) for c in histogram))


def _coset_leaders(checks: int, rows) -> list[int]:
    """Coset-leader weights of the span of ``rows`` on the bits of
    ``checks``, one count per coset.  Syndrome bit j, the j-th non-pivot
    bit, is axis j from the end of a (2,)*(m_c-k_c) view, so each pass is
    a flip and a minimum."""
    syndrome = checks & ~functools.reduce(int.__or__, (row & -row for row in rows), 0)
    free = [b for b in range(checks.bit_length()) if syndrome >> b & 1]
    columns = {1 << b for b in free} | {row & syndrome for row in rows}
    columns.discard(0)
    table = np.full(1 << len(free), 100, dtype=np.uint8)  # larger than any distance
    table[0] = 0
    cube = table.reshape((2,) * len(free))
    for column in columns:
        flip = tuple(
            slice(None, None, -1) if column >> b & 1 else slice(None)
            for b in reversed(free)
        )
        np.minimum(cube, cube[flip] + np.uint8(1), out=cube)
    return _histogram(table, len(free) + 1)


def _binomial(count: int, stride: int = 1) -> list[int]:
    """Coefficients of (1 + z^stride)^count, exactly; [2^count] at stride 0."""
    row = [0] * (stride * count + 1)
    for j in range(count + 1):
        row[stride * j] += math.comb(count, j)
    return row


def _convolve(left: list[int], right: list[int]) -> list[int]:
    """Product of two polynomials given by their coefficient lists, exactly."""
    product = [0] * (len(left) + len(right) - 1)
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            product[i + j] += a * b
    return product


# ---------------------------------------------------------------------------
# verification of one instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the three per-code checks against the code's own profile,
    L_i its count of degree-i generators over n, with literal margins.

    * chain: optimal distortion >= d (1 - covered(d)) at each grid point
      d = k / den, den = 2 (steps - 1), k = 0 .. steps - 1, with covered(d)
      the share of source words within radius floor(k m / den), compared
      by exact integer cross-multiplication over den (zero tolerance);
      ``chain_margin`` rounds the exact worst case once.
    * enumerator: cumulative weight counts >= coefficient floor in the rows
      ``enum`` prints, exact; ``enumerator_slack`` is the smallest difference.
    * bound: optimal distortion >= counting bound - 1e-9, that of its n+
      positive-degree generators at rate n+/m (see ``_profile_checks``).
    """

    num_checks: int
    num_generators: int
    optimal_distortion: float
    bound_distortion: float
    bound_margin: float
    chain_margin: float
    enumerator_slack: int
    chain_ok: bool
    enumerator_ok: bool
    bound_ok: bool

    @property
    def passed(self) -> bool:
        return self.chain_ok and self.enumerator_ok and self.bound_ok


# Entries kept by the ``_profile_checks`` memo, keyed by (degrees, m):
# one verify command uses one, and a campaign over five profiles at
# m 12..20 cycles through 133.
_PROFILE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_PROFILE_CACHE_SIZE)
def _profile_checks(degrees: tuple[int, ...], num_checks: int):
    """What ``verify_code`` checks a code with these sorted generator
    degrees and m checks against, immutable and computed once per key: the
    coefficient floors of all n degrees, and the counting bound of the n+
    positive ones at rate n+/m, 1/2 at n+ = 0 and 0 at n+ >= m.  A degree-0
    generator adds no codeword: ``curve`` bounds the whole profile so too."""
    floors = coefficient_lower_bound(degrees)
    positive = degrees[degrees.count(0) :]
    if not positive:
        return floors, 0.5
    dist = DegreeDistribution.from_degrees(positive)
    # from n+ = m on the bound is 0, its value at rate 1 when L_0 = 0
    return floors, counting_bound_distortion(dist, min(len(positive) / num_checks, 1.0))


def verify_code(code: LdgmCode, d_grid_steps: int) -> VerificationReport:
    """Run all exact checks of the counting bound against one instance and
    the profile of its own generator degrees, the chain on the d-grid
    k / (2 (d_grid_steps - 1)), k < d_grid_steps; n may exceed m."""
    if d_grid_steps < 2:
        raise ValueError(f"need at least 2 d-grid steps, got {d_grid_steps!r}")
    # The enumerator first: its budget refuses before the transform allocates.
    enumerator = weight_enumerator(code)
    m = code.num_checks
    floors, bound = _profile_checks(tuple(sorted(map(len, code.generators))), m)
    profile = distance_transform(code)

    total = 1 << m
    weighted = sum(d * count for d, count in enumerate(profile.histogram))
    optimal = profile.average_distortion()

    # At d = k/den, d (1 - covered/2^m) <= weighted / (m 2^m) is
    # k (2^m - covered) m <= weighted den, all in integers, with covered
    # the source words within radius floor(k m / den).
    den = 2 * (d_grid_steps - 1)
    within = tuple(accumulate(profile.histogram))  # source words within radius r
    worst = max(k * (total - within[k * m // den]) for k in range(d_grid_steps))
    chain_ok = worst * m <= weighted * den
    chain_margin = optimal - worst / den / total

    rows = _enumerator_rows(enumerator, floors)
    enumerator_slack = min(cumulative - floor for _, cumulative, floor, _ in rows)
    enumerator_ok = enumerator_slack >= 0

    bound_margin = optimal - bound
    bound_ok = bound_margin >= -1e-9

    return VerificationReport(
        num_checks=m,
        num_generators=code.num_generators,
        optimal_distortion=optimal,
        bound_distortion=bound,
        bound_margin=bound_margin,
        chain_margin=chain_margin,
        enumerator_slack=enumerator_slack,
        chain_ok=chain_ok,
        enumerator_ok=enumerator_ok,
        bound_ok=bound_ok,
    )


# ---------------------------------------------------------------------------
# code files
# ---------------------------------------------------------------------------


def code_to_text(code: LdgmCode) -> str:
    """Serialize: header "ldgm m n", then one ascending index line per generator."""
    lines = [f"ldgm {code.num_checks} {code.num_generators}"]
    for checks in code.generators:
        lines.append(" ".join(str(index) for index in checks))
    return "\n".join(lines) + "\n"


def code_from_text(text: str) -> LdgmCode:
    """Parse the code file format; errors cite 1-based line numbers."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("line 1: empty file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "ldgm":
        raise ValueError(f'line 1: expected "ldgm <checks> <generators>", got {lines[0]!r}')
    try:
        num_checks = int(header[1])
        num_generators = int(header[2])
    except ValueError as exc:
        raise ValueError(f"line 1: bad counts in {lines[0]!r}") from exc
    if len(lines) - 1 != num_generators:
        raise ValueError(
            f"line 1: header promises {num_generators} generator lines, "
            f"found {len(lines) - 1}"
        )
    if num_checks < 1:
        raise ValueError(f"line 1: need at least one check node, got {num_checks}")
    generators = []
    for offset, line in enumerate(lines[1:], start=2):
        try:
            checks = tuple(int(token) for token in line.split())
        except ValueError as exc:
            raise ValueError(f"line {offset}: non-integer check index in {line!r}") from exc
        _check_indices(checks, num_checks, "line", offset)
        generators.append(checks)
    return LdgmCode(num_checks, tuple(generators))


def write_code_file(code: LdgmCode, path) -> None:
    Path(path).write_text(code_to_text(code))


def read_code_file(path) -> LdgmCode:
    return code_from_text(Path(path).read_text())
