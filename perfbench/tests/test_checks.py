"""Tests of the benchmark's references and checkers.

Run with ``python3 -m pytest perfbench/tests``.
"""

import contextlib
import io
import itertools
import random

import pytest

import checks
import references as ref
from ldgm_bounds import cli, exact


def brute_force(generators, m):
    """Histogram and enumerator by scanning every source and index word."""
    masks = ref.masks_of(generators)
    codewords = []
    for bits in itertools.product((0, 1), repeat=len(masks)):
        word = 0
        for bit, mask in zip(bits, masks):
            word ^= mask if bit else 0
        codewords.append(word)
    enumerator = [0] * (m + 1)
    for word in codewords:
        enumerator[word.bit_count()] += 1
    distinct = set(codewords)
    histogram = [0] * (m + 1)
    for y in range(1 << m):
        histogram[min((y ^ c).bit_count() for c in distinct)] += 1
    return histogram, enumerator


def random_code(m, degrees, rng):
    return tuple(tuple(sorted(rng.sample(range(m), d))) for d in degrees)


CODES = [
    (6, ((0, 1), (1, 2), (0, 2))),  # dependent generators: rank 2 < n
    (8, ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6))),  # k = 6 > m - k: MacWilliams
    (7, ((0,), (0,), (1, 2, 3))),  # a repeated generator
]
_rng = random.Random(7)
CODES += [(m, random_code(m, degrees, _rng)) for m, degrees in (
    (9, (2, 2, 3, 3, 1)),
    (10, (2,) * 7),
    (12, (3, 2, 1, 3, 2, 1)),
    (11, (2, 3) * 4),
)]


@pytest.mark.parametrize("m, generators", CODES)
def test_exact_references_match_brute_force(m, generators):
    histogram, enumerator = brute_force(generators, m)
    assert ref.distance_histogram(ref.masks_of(generators), m) == histogram
    assert ref.index_word_enumerator(ref.masks_of(generators), m) == enumerator


def test_coefficient_floor_counts_index_words_by_total_degree():
    degrees = [1, 2, 2, 3]
    by_degree = [0] * (sum(degrees) + 1)
    for bits in itertools.product((0, 1), repeat=len(degrees)):
        by_degree[sum(d for b, d in zip(bits, degrees) if b)] += 1
    assert ref.coefficient_floor(degrees) == list(itertools.accumulate(by_degree))


def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def verify_info(m, n, spec, seed):
    dist = cli.parse_degree_spec(spec).dist
    code = exact.sample_code(m, n, dist, seed)
    return {"m": m, "n": n, "seed": seed, "profile": ((2, 1.0),), "generators": code.generators}


def test_verify_checker_accepts_the_program_and_rejects_a_moved_histogram_count(monkeypatch):
    info = verify_info(12, 6, "regular:2", 3)
    argv = ["verify", "--m", "12", "--n", "6", "--degrees", "regular:2", "--trials", "1", "--seed", "3"]
    assert checks.check_verify(info, *call(argv)) == []

    original = exact.distance_transform

    def moved(code):
        profile = original(code)
        histogram = list(profile.histogram)
        d = max(i for i, c in enumerate(histogram) if c)
        histogram[d] -= 1
        histogram[d - 1] += 1
        return exact.CoverProfile(profile.num_checks, tuple(histogram))

    monkeypatch.setattr(exact, "distance_transform", moved)
    problems = checks.check_verify(info, *call(argv))
    assert any("optimal" in p for p in problems)


def test_enum_checker_rejects_a_moved_enumerator_count(tmp_path, monkeypatch):
    rng = random.Random(1)
    generators = random_code(10, (2, 2, 3, 3, 2, 2), rng)
    path = tmp_path / "code.txt"
    exact.write_code_file(exact.LdgmCode(10, generators), path)
    info = {"m": 10, "n": 6, "generators": generators}
    assert checks.check_enum(info, *call(["enum", str(path)])) == []

    original = exact.weight_enumerator

    def moved(code):
        enumerator = original(code)
        counts = list(enumerator.counts)
        w = max(i for i, c in enumerate(counts) if c)
        counts[w] -= 1
        counts[w - 1] += 1
        return exact.WeightEnumerator(enumerator.num_checks, enumerator.num_generators, tuple(counts))

    monkeypatch.setattr(cli, "weight_enumerator", moved)
    assert checks.check_enum(info, *call(["enum", str(path)]))


CURVES = [
    ("counting", ["--degrees", "2:0.5,3:0.5"], "counting", ((2, 0.5), (3, 0.5))),
    ("counting", ["--degrees", "poisson:4"], "poisson", 4),
    ("shannon", [], "shannon", None),
    ("dwr", ["--r", "5"], "dwr", 5),
    ("conjecture", ["--l", "3"], "conjecture", 3),
    ("test-channel", ["--l", "2"], "test-channel", 2),
]


def curve_case(bound, extra, family, param, steps=12):
    lo, hi = 0.2, 0.9
    argv = ["curve", "--bound", bound, *extra, "--rate-min", repr(lo), "--rate-max", repr(hi),
            "--steps", str(steps)]
    info = {"family": family, "param": param, "rate_min": lo, "rate_max": hi, "steps": steps}
    return info, *call(argv)


@pytest.mark.parametrize("bound, extra, family, param", CURVES)
def test_curve_checker_accepts_the_program(bound, extra, family, param):
    info, rc, out = curve_case(bound, extra, family, param)
    assert checks.check_curve(info, rc, out, random.Random(0)) == []


@pytest.mark.parametrize("bound, extra, family, param", CURVES)
def test_curve_checker_rejects_one_changed_digit(bound, extra, family, param):
    info, rc, out = curve_case(bound, extra, family, param)
    lines = out.splitlines()
    row = lines.index("D,R") + 8  # on the test-channel arc as well: R > 1/2
    d, r = lines[row].split(",")
    digit = len(d) - 3  # the eighth significant digit or so
    lines[row] = d[:digit] + str((int(d[digit]) + 5) % 10) + d[digit + 1:] + "," + r
    assert checks.check_curve(info, rc, "\n".join(lines) + "\n", random.Random(0))


def test_curve_checker_rejects_a_missing_conjecture_notice():
    info, rc, out = curve_case("conjecture", ["--l", "2"], "conjecture", 2)
    stripped = "".join(line for line in out.splitlines(True) if "CONJECTURE" not in line)
    assert checks.check_curve(info, rc, stripped, random.Random(0))


def test_tolerance_is_half_a_tenth_digit():
    assert checks.tolerance(0.1234567891) == pytest.approx(0.5e-10 + checks.SOLVER_SLACK)
    assert checks.tolerance(0.01234567891) == pytest.approx(0.5e-11 + checks.SOLVER_SLACK)
