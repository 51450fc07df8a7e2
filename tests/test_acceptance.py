"""Acceptance gate: ten end-to-end checks at pinned tolerances.

Each test prints exactly one PASS/FAIL line to the terminal (bypassing
capture) before asserting, so the full scorecard is visible in any run.
"""

import math

import pytest

from ldgm_bounds import (
    DegreeDistribution,
    LdgmCode,
    coefficient_lower_bound,
    counting_bound_distortion,
    distance_transform,
    parametric_endpoints,
    poisson_ensemble_distortion_bound,
    sample_code,
    sample_curve,
    shannon_distortion,
    solve_x_for_rate,
    test_channel_distortion_bound as channel_distortion_bound,
    verify_code,
    weight_enumerator,
)
from ldgm_bounds.bounds import _deficit
from oracles import distance_transform_naive, optimal_average_distortion, weight_enumerator_naive
from oracles_float import coefficient_growth_exponent

REG1 = DegreeDistribution.regular(1)
REG2 = DegreeDistribution.regular(2)
REG3 = DegreeDistribution.regular(3)
MIXED = DegreeDistribution.from_fractions({1: 0.5, 3: 0.5})



def announce(capsys, number, name, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {number:>2} {name}: {verdict} ({detail})", flush=True)


def test_criterion_01_counting_golden_values(capsys):
    targets = [(2.0 / 3.0, 0.0627, 5e-4), (0.5, 0.115, 1e-3), (0.4, 0.1920, 5e-4)]
    values = [counting_bound_distortion(REG2, rate) for rate, _, _ in targets]
    checks = [
        abs(value - pinned) <= tol
        for value, (_, pinned, tol) in zip(values, targets)
    ]
    # The bound strictly exceeds Shannon (criterion 4), so a pinned window
    # reaching down to Shannon's value cannot hold a correct counting value.
    below_shannon = [
        f"R={rate:.4g} window floor {pinned - tol:.7f} <= shannon {shannon_distortion(rate):.7f}"
        for rate, pinned, tol in targets
        if pinned - tol <= shannon_distortion(rate)
    ]
    ok = all(checks) and not below_shannon
    detail = "; ".join(
        f"R={rate:.4g}: {value:.7f} vs {pinned}+-{tol:g}"
        for value, (rate, pinned, tol) in zip(values, targets)
    )
    if below_shannon:
        detail += "; bad pin: " + "; ".join(below_shannon)
    announce(capsys, 1, "counting golden values", ok, detail)
    assert ok


def test_criterion_02_shannon_golden_values(capsys):
    targets = [(2.0 / 3.0, 0.0614905, 1e-6), (0.5, 0.110027, 1e-5), (0.4, 0.1461, 5e-5)]
    values = [shannon_distortion(rate) for rate, _, _ in targets]
    checks = [
        abs(value - pinned) <= tol
        for value, (_, pinned, tol) in zip(values, targets)
    ]
    detail = "; ".join(f"{value:.7f}" for value in values)
    announce(capsys, 2, "shannon golden values", all(checks), detail)
    assert all(checks)


def test_criterion_03_parametric_endpoints(capsys):
    start, end = parametric_endpoints(REG2)
    endpoint_ok = (
        abs(start[0] - 0.0) <= 1e-6
        and abs(start[1] - 1.0) <= 1e-6
        and abs(end[0] - 0.25) <= 1e-6
        and abs(end[1] - 0.25) <= 1e-6
    )
    x = solve_x_for_rate(REG2, 0.5)
    mid = x / (1.0 + x) - REG2.mean_occupancy(x) * (1.0 - _deficit(REG2.degrees, REG2.fractions, x))
    mid_ok = abs(mid - 0.115) <= 1e-3
    line_ok = counting_bound_distortion(REG2, 0.0) == 0.5
    ok = endpoint_ok and mid_ok and line_ok
    detail = (
        f"endpoints {start}/{end}, mid {mid:.6f}, "
        f"zero-rate value {counting_bound_distortion(REG2, 0.0)}"
    )
    announce(capsys, 3, "parametric endpoints", ok, detail)
    assert ok


def test_criterion_04_strict_dominance(capsys):
    rates = [0.02 + (0.98 - 0.02) * k / 49 for k in range(50)]
    worst = None
    for dist in (REG1, REG2, REG3, MIXED):
        for rate in rates:
            margin = counting_bound_distortion(dist, rate) - shannon_distortion(rate)
            if worst is None or margin < worst:
                worst = margin
    ok = worst > 0.0
    announce(capsys, 4, "dominance over shannon", ok, f"min margin {worst:.3e}")
    assert ok


def test_criterion_05_test_channel_identity(capsys):
    worst = 0.0
    for degree, dist in ((2, REG2), (3, REG3)):
        lo = 1.0 / degree
        rates = [lo + (1.0 - lo) * k / 29 for k in range(30)]
        for rate in rates:
            gap = abs(
                counting_bound_distortion(dist, rate)
                - channel_distortion_bound(degree, rate)
            )
            worst = max(worst, gap)
    ok = worst <= 1e-3
    announce(capsys, 5, "test-channel identity", ok, f"max gap {worst:.3e}")
    assert ok


def test_criterion_06_poisson_family_ordering(capsys):
    rates = [0.4 + 0.5 * k / 19 for k in range(20)]
    worst_pair = None
    worst_shannon = None
    for check_degree in (2, 4):
        counting = sample_curve("counting", rates, check_degree=check_degree)
        for distortion, rate in zip(counting.distortions, rates):
            ensemble = poisson_ensemble_distortion_bound(check_degree, rate)
            shannon = shannon_distortion(rate)
            pair_margin = distortion - ensemble
            shannon_margin = min(distortion - shannon, ensemble - shannon)
            if worst_pair is None or pair_margin < worst_pair:
                worst_pair = pair_margin
            if worst_shannon is None or shannon_margin < worst_shannon:
                worst_shannon = shannon_margin
    ok = worst_pair >= -1e-6 and worst_shannon >= 0.0
    detail = f"min counting-ensemble {worst_pair:.3e}, min vs shannon {worst_shannon:.3e}"
    announce(capsys, 6, "poisson family ordering", ok, detail)
    assert ok


def test_criterion_07_verification_campaign(capsys):
    failures = 0
    total = 0
    for num_checks, num_generators, dist, trials in (
        (14, 7, REG2, 100),
        (12, 8, REG3, 50),
    ):
        for seed in range(trials):
            code = sample_code(num_checks, num_generators, dist, seed)
            report = verify_code(code, 26)
            total += 1
            if not report.passed:
                failures += 1
    ok = failures == 0 and total == 150
    announce(capsys, 7, "verification campaign", ok, f"{total} codes, {failures} failures")
    assert ok


def test_criterion_08_oracle_equivalence(capsys):
    mismatches = 0
    for seed in range(20):
        code = sample_code(10, 6, REG2, seed)
        if tuple(distance_transform(code).histogram) != tuple(
            distance_transform_naive(code).histogram
        ):
            mismatches += 1
        if weight_enumerator(code).counts != weight_enumerator_naive(code).counts:
            mismatches += 1
    ok = mismatches == 0
    announce(capsys, 8, "oracle equivalence", ok, f"20 seeds, {mismatches} mismatches")
    assert ok


def test_criterion_09_exponent_consistency(capsys):
    asymptotic = coefficient_growth_exponent(REG2, 0.5)
    errors = []
    for n in (50, 100, 200):
        floors = coefficient_lower_bound([2] * n)
        finite = math.log2(floors[n // 2]) / n
        errors.append(abs(finite - asymptotic))
    ok = errors[0] > errors[1] > errors[2] and errors[2] < 0.05
    detail = "errors " + ", ".join(f"{e:.4f}" for e in errors)
    announce(capsys, 9, "exponent consistency", ok, detail)
    assert ok


def test_criterion_10_degenerate_identities(capsys):
    grid = [k / 10 for k in range(11)]
    line_worst = max(
        abs(counting_bound_distortion(REG1, rate) - (1.0 - rate) / 2.0)
        for rate in grid
    )
    zero_code = LdgmCode(num_checks=12, generators=((), (), (), ()))
    zero_value = optimal_average_distortion(zero_code)
    kernel_value = distance_transform(zero_code).average_distortion()
    ok = line_worst <= 1e-9 and zero_value == 0.5 and kernel_value == 0.5
    detail = f"line gap {line_worst:.2e}, zero-matrix optimum {kernel_value} (oracle {zero_value})"
    announce(capsys, 10, "degenerate identities", ok, detail)
    assert ok
