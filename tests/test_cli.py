"""Command-line interface: CSV shape, reports, and exit codes."""

import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ldgm_bounds import (
    BracketError,
    DegreeDistribution,
    LdgmCode,
    NoSolutionError,
    TruncationError,
    sample_code,
    shannon_distortion,
    verify_code,
    write_code_file,
)
from ldgm_bounds import bounds as bounds_module
from ldgm_bounds import cli as cli_module
from ldgm_bounds import exact as exact_module
from ldgm_bounds.cli import UsageError, main, parse_degree_spec
import oracles_mp
from oracles import csv_rows_naive

REG2 = DegreeDistribution.regular(2)


def run(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# ---------------------------------------------------------------------------
# degree specs
# ---------------------------------------------------------------------------


def test_parse_degree_spec_variants():
    assert parse_degree_spec("regular:3").dist.entries == ((3, 1.0),)
    assert parse_degree_spec("poisson:4").poisson == 4
    literal = parse_degree_spec("1:0.5,3:0.5")
    assert literal.dist.entries[1] == (3, 0.5)


def test_parse_degree_spec_errors():
    with pytest.raises(ValueError):
        parse_degree_spec("regular:x")
    with pytest.raises(ValueError):
        parse_degree_spec("poisson:0")
    with pytest.raises(ValueError):
        parse_degree_spec("2:0.9")


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


def test_curve_counting_stdout(capsys):
    status, out, err = run(
        [
            "curve", "--bound", "counting", "--degrees", "2:1",
            "--rate-min", "0.4", "--rate-max", "0.8", "--steps", "5",
        ],
        capsys,
    )
    assert status == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# bound=counting")
    assert any(line.startswith("# arc endpoint x->0") for line in lines)
    assert "D,R" in lines
    data = [line for line in lines if not line.startswith("#") and line != "D,R"]
    assert len(data) == 5
    first_d, first_r = data[0].split(",")
    assert float(first_r) == pytest.approx(0.4)
    assert float(first_d) == pytest.approx(0.1920332662, abs=1e-8)


def test_curve_conjecture_carries_notice(capsys):
    status, out, _ = run(
        [
            "curve", "--bound", "conjecture", "--l", "2",
            "--rate-min", "0.6", "--rate-max", "0.8", "--steps", "3",
        ],
        capsys,
    )
    assert status == 0
    assert out.splitlines()[0].startswith("# CONJECTURE")


def test_curve_writes_file(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    status, out, _ = run(
        [
            "curve", "--bound", "shannon",
            "--rate-min", "0.2", "--rate-max", "0.8", "--steps", "4",
            "--out", str(target),
        ],
        capsys,
    )
    assert status == 0
    text = target.read_text()
    assert text.endswith("\n")
    assert "D,R" in text


def test_curve_endpoints_from_unrounded_literal(capsys):
    # The fractions sum to 1, but their 10-digit rounding in the
    # preamble sums to 0.9999999999.
    status, out, _ = run(
        [
            "curve", "--bound", "counting",
            "--degrees", "1:0.11111111114,2:0.11111111114,3:0.77777777772",
            "--steps", "3",
        ],
        capsys,
    )
    assert status == 0
    lines = out.splitlines()
    assert lines[1] == "# arc endpoint x->0: D=0,R=1"
    assert lines[2].startswith("# arc endpoint x->1: D=")
    assert len(lines) == 7


@pytest.mark.parametrize(
    "bound, flags",
    [
        ("counting", ["--degrees", "regular:2", "--l", "3"]),
        ("test-channel", ["--degrees", "regular:2", "--l", "3"]),
        ("counting", ["--degrees", "poisson:3", "--r", "5"]),
        ("dwr", ["--degrees", "poisson:3", "--r", "5"]),
    ],
)
def test_curve_conflicting_profile_flags_exit_2(capsys, bound, flags):
    status, out, err = run(["curve", "--bound", bound, *flags], capsys)
    assert status == 2
    assert out == ""
    assert "--degrees and " + flags[2] in err


@pytest.mark.parametrize(
    "degrees, expected",
    [
        pytest.param("0:1", ["0.5,0.05", "0.5,0.5", "0.5,0.95"], id="0:1"),
        pytest.param(
            "0:0.5,1:0.5", ["0.4875,0.05", "0.375,0.5", "0.2625,0.95"], id="0:0.5,1:0.5"
        ),
        pytest.param("1:1.0000000000000002", ["0.475,0.05", "0.25,0.5", "0.025,0.95"], id="1:1+2e-16"),
        pytest.param(
            "1:1.0000000000000002,2:0.0000000000000001",
            ["0.475,0.05", "0.25,0.5", "0.025,0.95"],
            id="1:1+2e-16,2:1e-16",
        ),
    ],
)
def test_curve_without_arc_prints_no_endpoints(capsys, degrees, expected):
    # Average degree at most 1 + 1e-12: the counting bound is the line
    # D = (1 - R avg)/2, half the least share of checks no edge touches.
    # The last two averaged 1 + 2e-16 and 1 + 4e-16 and exited 4 on a
    # failed arc solve.
    status, out, _ = run(
        ["curve", "--bound", "counting", "--degrees", degrees, "--steps", "3"], capsys
    )
    assert status == 0
    assert "arc endpoint" not in out
    rows = out.splitlines()[out.splitlines().index("D,R") + 1 :]
    assert rows == expected


@pytest.mark.parametrize("degrees", ["0:0.5,2:0.5", "0:0.999,2:0.0010000000001"])
def test_curve_degree0_profile_prints_its_positive_part_arc(capsys, degrees):
    # The whole profile averages at most 1, its positive part 2: the rows
    # are that part's arc and segment, under its endpoints, above the line
    # (1 - R avg)/2 of the whole average.  The second literal's positive
    # fraction, divided by 1 - L_0 instead of by its own sum, would sum to
    # 1 + 1e-10 and be refused.
    status, out, _ = run(
        ["curve", "--bound", "counting", "--degrees", degrees, "--steps", "3"], capsys
    )
    assert status == 0
    assert "# arc endpoint x->1: D=0.25" in out
    rows = out.splitlines()[out.splitlines().index("D,R") + 1 :]
    line = [(1.0 - rate * 2.0 * float(degrees.split(":")[-1])) / 2.0 for rate in (0.05, 0.5, 0.95)]
    assert all(float(row.split(",")[0]) > floor for row, floor in zip(rows, line))


def test_curve_with_a_trace_of_positive_mass_prints_its_arc(capsys):
    # L+ is regular 2 at R 1e-13: the rows lie on its segment, 1.2e-14
    # above the whole profile's line at R = 1/2, and the arc's ends, in
    # the curve's rate units, lie far beyond R = 1.  This curve was refused
    # with "no positive-degree mass" and exit 2.
    degrees = "0:0.9999999999999,2:1e-13"
    status, out, err = run(
        ["curve", "--bound", "counting", "--degrees", degrees, "--rate-min", "0.5", "--rate-max", "1", "--steps", "3"],
        capsys,
    )
    assert (status, err) == (0, "")
    assert "# arc endpoint x->0: D=0,R=1e+13\n# arc endpoint x->1: D=0.25,R=2.5e+12\n" in out
    dist = parse_degree_spec(degrees).dist
    rows = out.splitlines()[out.splitlines().index("D,R") + 1 :]
    assert rows == [f"{bounds_module.counting_bound_distortion(dist, rate):.10g},{rate:.10g}" for rate in (0.5, 0.75, 1.0)]


def test_curve_dwr_requires_check_degree(capsys):
    status, _, err = run(
        ["curve", "--bound", "dwr", "--rate-min", "0.5", "--rate-max", "0.9"],
        capsys,
    )
    assert status == 2
    assert "error:" in err


# The whole error line of each refusal below, by the family it names.
_REFUSALS = {
    "counting": "error: counting takes a degree profile or poisson:<r>, exactly one\n",
    "test_channel": "error: test_channel takes a regular degree, regular:<l>\n",
    "dwr": "error: dwr takes a check degree, poisson:<r>\n",
    "conjectured_exit": "error: conjectured_exit takes a regular degree, regular:<l>\n",
    "poisson": "error: poisson rate out of range: 0.0\n",
}


@pytest.mark.parametrize(
    "bound, flags, family",
    [
        ("counting", [], "counting"),
        ("test-channel", ["--degrees", "2:1"], "test_channel"),
        ("test-channel", ["--r", "3"], "test_channel"),
        ("dwr", ["--degrees", "regular:3"], "dwr"),
        ("dwr", ["--l", "2"], "dwr"),
        ("conjecture", ["--degrees", "poisson:3"], "conjectured_exit"),
        ("conjecture", ["--degrees", "1:0.5,3:0.5"], "conjectured_exit"),
        # the Poisson family has no member at rate 0
        ("counting", ["--degrees", "poisson:3", "--rate-min", "0"], "poisson"),
    ],
)
def test_curve_spec_a_family_cannot_use_exits_2(capsys, bound, flags, family):
    status, out, err = run(["curve", "--bound", bound, *flags], capsys)
    assert (status, out, err) == (2, "", _REFUSALS[family])


def test_curve_unknown_family_is_a_usage_error_listing_every_flag(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["curve", "--bound", "nope"])
    captured = capsys.readouterr()
    assert (exited.value.code, captured.out) == (2, "")
    *_, line = captured.err.splitlines()
    head, _, choices = line.partition(" (choose from ")
    assert head == "ldgm-bounds curve: error: argument --bound: invalid choice: 'nope'"
    # argparse quotes each choice with repr on some Python versions and not on others
    assert choices.replace("'", "") == "conjecture, counting, dwr, shannon, test-channel)"


# Each family's --bound flag, the name of its point bound in ldgm_bounds.bounds
# (the names perfbench/tracing.py rebinds to time each family) and a spec it takes.
_POINT_BOUNDS = {
    "shannon": ("shannon_distortion", []),
    "counting": ("counting_bound_distortion", ["--degrees", "regular:3"]),
    "test-channel": ("test_channel_distortion_bound", ["--l", "3"]),
    "dwr": ("poisson_ensemble_distortion_bound", ["--r", "3"]),
    "conjecture": ("conjectured_exit_distortion_bound", ["--l", "3"]),
}


@pytest.mark.parametrize("flag", sorted(_POINT_BOUNDS))
def test_curve_calls_its_point_bound_by_module_name(monkeypatch, capsys, flag):
    # A tracer rebinds a point bound's name in the module's namespace, so a
    # family must look its bound up by that name when it runs: a table that
    # held the function object would never call the tracer's wrapper.
    assert set(_POINT_BOUNDS) == {family.flag for family in bounds_module._FAMILIES.values()}
    name, spec = _POINT_BOUNDS[flag]
    bound, calls = getattr(bounds_module, name), []

    def counted(*args):
        calls.append(args)
        return bound(*args)

    monkeypatch.setattr(bounds_module, name, counted)
    status, out, err = run(["curve", "--bound", flag, *spec, "--steps", "3"], capsys)
    assert (status, err) == (0, "")
    assert len(calls) == 1  # the whole grid in one call


_HUGE = str(10**400)  # past every float


@pytest.mark.parametrize(
    "argv",
    [
        # the conjecture's C(l, l // 2) converts to a float up to l = 1029
        ["curve", "--bound", "conjecture", "--l", "1030", "--steps", "3"],
        ["curve", "--bound", "counting", "--degrees", f"regular:{_HUGE}", "--steps", "3"],
        ["curve", "--bound", "counting", "--degrees", f"2:0.5,{_HUGE}:0.5", "--steps", "3"],
        ["curve", "--bound", "counting", "--degrees", f"poisson:{_HUGE}", "--steps", "3"],
        ["curve", "--bound", "test-channel", "--l", _HUGE, "--steps", "3"],
        ["curve", "--bound", "dwr", "--r", _HUGE, "--steps", "3"],
        ["curve", "--bound", "conjecture", "--l", _HUGE, "--steps", "3"],
        ["verify", "--m", "10", "--n", "3", "--degrees", f"regular:{_HUGE}"],
    ],
    ids=["conjecture-1030", "regular", "literal", "poisson", "test-channel", "dwr", "conjecture", "verify"],
)
def test_degree_past_its_limit_exits_2(capsys, argv):
    # Refused where degrees are validated, before float arithmetic on
    # them could overflow: one error line naming the limit, no traceback.
    status, out, err = run(argv, capsys)
    assert (status, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be in [1, " in err or "not an integer in [0, " in err


def test_conjecture_at_its_degree_limit_exits_0(capsys):
    status, out, err = run(["curve", "--bound", "conjecture", "--l", "1029", "--steps", "3"], capsys)
    assert (status, err) == (0, "")
    assert len(out.splitlines()[out.splitlines().index("D,R") + 1 :]) == 3


def test_curve_oversized_grid_refused_before_sampling(monkeypatch, capsys):
    def no_curve(*args, **kwargs):
        raise AssertionError("sampled a curve past the grid cap")

    monkeypatch.setattr(cli_module, "sample_curve", no_curve)
    steps = str(cli_module._STEPS_LIMIT + 1)
    status, out, err = run(["curve", "--bound", "shannon", "--steps", steps], capsys)
    assert (status, out) == (3, "")
    assert f"--steps {steps} exceeds the budget" in err


def test_curve_bad_rate_window(capsys):
    status, _, err = run(
        [
            "curve", "--bound", "shannon",
            "--rate-min", "0.9", "--rate-max", "0.1",
        ],
        capsys,
    )
    assert status == 2
    assert "error:" in err


def test_curve_bad_literal(capsys):
    status, _, err = run(
        ["curve", "--bound", "counting", "--degrees", "2:0.7"],
        capsys,
    )
    assert status == 2
    assert "error:" in err


@pytest.mark.parametrize("command", [["curve", "--bound", "counting"], ["verify", "--m", "14", "--n", "7"]])
@pytest.mark.parametrize("degrees", ["2:nan", "2:nan,3:1"])
def test_nan_fraction_is_a_usage_error(capsys, command, degrees):
    status, out, err = run([*command, "--degrees", degrees], capsys)
    assert (status, out) == (2, "")
    assert "fraction for degree 2 must be >= 0, got nan" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_small_campaign(capsys):
    status, out, _ = run(
        [
            "verify", "--m", "10", "--n", "5", "--degrees", "regular:2",
            "--trials", "3", "--seed", "11",
        ],
        capsys,
    )
    assert status == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert all("PASS" in line for line in lines[:3])
    assert lines[0].startswith("seed=11 ")
    assert lines[3].startswith("summary: trials=3 passed=3 failed=0")


def test_verify_writes_report(tmp_path, capsys):
    target = tmp_path / "report.txt"
    status, out, _ = run(
        [
            "verify", "--m", "8", "--n", "4", "--degrees", "regular:2",
            "--trials", "2", "--seed", "0", "--out", str(target),
        ],
        capsys,
    )
    assert status == 0
    assert "summary:" in out  # echoed when the report goes to a file
    assert target.read_text().count("PASS") == 2


def test_verify_rejects_poisson(capsys):
    status, _, err = run(
        [
            "verify", "--m", "10", "--n", "5", "--degrees", "poisson:2",
            "--trials", "1",
        ],
        capsys,
    )
    assert status == 2
    assert "error:" in err


def test_verify_rejects_unrealizable_split(capsys):
    status, _, err = run(
        [
            "verify", "--m", "10", "--n", "5",
            "--degrees", "1:0.5,3:0.5", "--trials", "1",
        ],
        capsys,
    )
    assert status == 2
    assert "error:" in err


def test_verify_zero_generators_degenerate(capsys):
    status, out, _ = run(
        [
            "verify", "--m", "8", "--n", "0", "--degrees", "regular:2",
            "--trials", "1",
        ],
        capsys,
    )
    assert status == 0
    assert "optimal=0.5" in out
    assert "PASS" in out


def test_verify_more_generators_than_checks(capsys):
    # n > m: the code's positive-degree generators reach rate 12/8 >= 1,
    # where the only bound is 0.
    status, out, err = run(
        [
            "verify", "--m", "8", "--n", "12", "--degrees", "regular:2",
            "--trials", "2",
        ],
        capsys,
    )
    assert (status, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(" bound=0 " in line or line.endswith(" bound=0") for line in lines)


def test_verify_budget_refused_before_sampling(monkeypatch, capsys):
    def no_sampling(*args):
        raise AssertionError("sampled a code past the budget")

    monkeypatch.setattr(cli_module, "sample_code", no_sampling)
    for size, flag in ((("30", "4"), "--m"), (("14", "25"), "--n")):
        status, out, err = run(
            [
                "verify", "--m", size[0], "--n", size[1], "--degrees", "regular:2",
                "--trials", "1",
            ],
            capsys,
        )
        assert status == 3
        assert out == ""
        assert flag in err


def test_verify_oversized_d_grid_refused_before_sampling(monkeypatch, capsys):
    def no_sampling(*args):
        raise AssertionError("sampled a code past the grid cap")

    monkeypatch.setattr(cli_module, "sample_code", no_sampling)
    steps = str(cli_module._D_GRID_LIMIT + 1)
    status, out, err = run(
        ["verify", "--m", "14", "--n", "7", "--degrees", "regular:2", "--d-grid-steps", steps],
        capsys,
    )
    assert (status, out) == (3, "")
    assert f"--d-grid-steps {steps} exceeds the budget" in err


def test_verify_trials_past_cap_refused_before_sampling(monkeypatch, capsys):
    def no_sampling(*args):
        raise AssertionError("sampled a code past the trials cap")

    monkeypatch.setattr(cli_module, "sample_code", no_sampling)
    trials = str(cli_module._TRIALS_LIMIT + 1)
    status, out, err = run(
        ["verify", "--m", "14", "--n", "7", "--degrees", "regular:2", "--trials", trials],
        capsys,
    )
    assert (status, out) == (3, "")
    assert f"--trials {trials} exceeds the budget" in err


def test_verify_solves_the_counting_bound_once(monkeypatch, capsys):
    # Every trial checks against the bound at the same rate n/m = 1/2, on
    # the arc of regular-3; the profile memo keeps it, so the float solve
    # is not repeated.
    solves = []

    def counted(dist, rate, *args):
        solves.append(rate)
        return solve(dist, rate, *args)

    solve = bounds_module.solve_x_for_rate
    monkeypatch.setattr(bounds_module, "solve_x_for_rate", counted)
    exact_module._profile_checks.cache_clear()
    argv = ["verify", "--m", "16", "--n", "8", "--degrees", "regular:3", "--trials", "5"]
    status, out, _ = run(argv, capsys)
    assert status == 0
    assert out.count("PASS") == 5
    assert solves == [0.5]
    assert run(argv, capsys) == (status, out, "")
    assert solves == [0.5]


def test_verify_segment_rates_share_one_solve(monkeypatch, capsys):
    # Rates 1/4 and 3/8 both lie below 1/avg = 1/2 for regular-2, on the
    # straight segment anchored at 1/2.  Each rate solves the arc there
    # once, on its ``_profile_checks`` miss, and its trials share that
    # solve; run again, both only hit the memo and solve nothing.
    solves = []

    def counted(dist, rate, *args):
        solves.append(rate)
        return solve(dist, rate, *args)

    solve = bounds_module.solve_x_for_rate
    monkeypatch.setattr(bounds_module, "solve_x_for_rate", counted)
    memo = exact_module._profile_checks
    memo.cache_clear()
    for expected in ([0.5, 0.5], []):
        solves.clear()
        before = memo.cache_info().misses
        for n in ("4", "6"):
            argv = ["verify", "--m", "16", "--n", n, "--degrees", "regular:2", "--trials", "3"]
            status, out, _ = run(argv, capsys)
            assert status == 0
            assert out.count("PASS") == 3
        assert solves == expected
        assert memo.cache_info().misses - before == len(expected)


# The degree specs of a verify campaign, as in perfbench/workloads.py,
# each with the generator count it divides.
CAMPAIGN_SPECS = (("regular:2", 1), ("regular:3", 1), ("1:0.5,3:0.5", 2),
                  ("2:0.5,4:0.5", 2), ("1:0.25,2:0.5,3:0.25", 4))


def test_campaign_instances_fit_the_profile_memo():
    # The (profile, n, m) instances of one verify campaign checked on the
    # default d-grid.  Replayed with fresh codes, and each spec parsed
    # afresh past its own memo, the second pass only hits: the memo is
    # keyed by value, not by object.
    instances = [
        (m, max(multiple, round(m * rate / multiple) * multiple), spec)
        for m in range(12, 21)
        for spec, multiple in CAMPAIGN_SPECS
        for rate in (0.25, 0.5, 0.75)
    ]
    assert len(instances) == 135
    memo = exact_module._profile_checks
    memo.cache_clear()
    for seed in range(2):
        before = memo.cache_info().misses
        for m, n, spec in instances:
            dist = parse_degree_spec.__wrapped__(spec).dist
            verify_code(sample_code(m, n, dist, seed), 26)
    info = memo.cache_info()
    assert info.misses == before
    assert info.hits >= len(instances)
    memo.cache_clear()


def test_parse_degree_spec_memo_returns_one_spec_per_text():
    parse_degree_spec.cache_clear()
    first = parse_degree_spec("1:0.5,3:0.5")
    assert parse_degree_spec("1:0.5,3:0.5") is first
    assert parse_degree_spec.cache_info()[:2] == (1, 1)  # hits, misses
    with pytest.raises(UsageError):
        parse_degree_spec("regular:0")
    assert parse_degree_spec.cache_info().currsize == 1  # errors are not kept


@pytest.mark.parametrize("size", [("0", "4"), ("14", "-1")])
def test_verify_negative_sizes_are_usage_errors(size, capsys):
    status, _, err = run(
        ["verify", "--m", size[0], "--n", size[1], "--degrees", "regular:2"], capsys
    )
    assert status == 2
    assert "need --m >= 1 and --n >= 0" in err


def test_curve_full_span_shannon(capsys):
    status, out, _ = run(
        [
            "curve", "--bound", "shannon",
            "--rate-min", "0", "--rate-max", "1", "--steps", "2",
        ],
        capsys,
    )
    assert status == 0
    rows = [l for l in out.splitlines() if not l.startswith("#") and l != "D,R"]
    assert rows == ["0.5,0", "0,1"]


def test_curve_poisson_large_mean(capsys):
    # At R = 0.01 the Poisson mean is 800, where exp(-800) underflows.
    status, out, _ = run(
        [
            "curve", "--bound", "counting", "--degrees", "poisson:8",
            "--rate-min", "0.01",
        ],
        capsys,
    )
    assert status == 0
    rows = [l for l in out.splitlines() if not l.startswith("#") and l != "D,R"]
    assert len(rows) == 19
    for row in rows:
        distortion, rate = (float(v) for v in row.split(","))
        assert distortion >= shannon_distortion(rate) - 1e-10


@pytest.mark.parametrize("error", [NoSolutionError, BracketError, TruncationError])
def test_curve_mathematical_refusal_exits_4(monkeypatch, capsys, error):
    # A refusal inside the curve's one solve over all its rates, for a
    # fixed profile and for the Poisson family.
    solves = []

    def refuse(degrees, fractions, rate, *top):
        solves.append(np.shape(rate))
        raise error(f"no parameter for {np.size(rate)} rates")

    monkeypatch.setattr(bounds_module, "_solve_arc", refuse)
    # The fixed profile solves its 4 arc rows and its anchor at 1/avg.
    for degrees, rows in (("2:1", 5), ("poisson:3", 4)):
        status, out, err = run(
            [
                "curve", "--bound", "counting", "--degrees", degrees,
                "--rate-min", "0.6", "--rate-max", "0.9", "--steps", "4",
            ],
            capsys,
        )
        assert status == 4
        assert out == ""
        assert f"error: no parameter for {rows} rates" in err
    assert solves == [(5,), (4,)]


# Small CSVs written by ``ldgm-bounds curve`` before the curve solve went
# row-wise, one per family; output must match them byte for byte.  Only
# the R = 1 rows of counting-regular3, test-channel-l3 and conjecture-l3
# were rewritten since, to the exact 0 (they read 9.99999999e-10 and
# 4.547473509e-13), and line 1 of conjecture-l3, its notice.
# counting-degree0-avg1 came later, with the positive-part rule: its
# profile averages 1, and its rows are those of its regular-2 part at R/2.
# counting-near-one came with the arc solve in ln x: its rows lie within
# 1e-10 of R = 1, and a test holds them to a 60-digit solve.
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CURVES = {
    "shannon": ["--bound", "shannon", "--rate-min", "0.05", "--rate-max", "1", "--steps", "12"],
    "counting-regular3": ["--bound", "counting", "--degrees", "regular:3", "--rate-min", "0", "--rate-max", "1", "--steps", "11"],
    "counting-degree0": ["--bound", "counting", "--degrees", "0:0.1,2:0.5,4:0.4", "--rate-min", "0.05", "--rate-max", "1", "--steps", "12"],
    "counting-degree0-avg1": ["--bound", "counting", "--degrees", "0:0.5,2:0.5", "--rate-min", "0", "--rate-max", "1", "--steps", "11"],
    "counting-near-one": ["--bound", "counting", "--degrees", "regular:2", "--rate-min", "0.9999999999", "--rate-max", "1", "--steps", "11"],
    "counting-mixed3": ["--bound", "counting", "--degrees", "2:0.25,3:0.5,6:0.25", "--rate-min", "0", "--rate-max", "1", "--steps", "11"],
    "counting-poisson4": ["--bound", "counting", "--degrees", "poisson:4", "--rate-min", "0.15", "--rate-max", "1", "--steps", "12"],
    "dwr-r3": ["--bound", "dwr", "--r", "3", "--rate-min", "0", "--rate-max", "1", "--steps", "11"],
    "test-channel-l3": ["--bound", "test-channel", "--l", "3", "--rate-min", "0", "--rate-max", "1", "--steps", "11"],
    "test-channel-l2": ["--bound", "test-channel", "--l", "2", "--rate-min", "0", "--rate-max", "1", "--steps", "41"],
    "conjecture-l3": ["--bound", "conjecture", "--l", "3", "--rate-min", "0", "--rate-max", "1", "--steps", "11"],
}


def test_golden_curves_name_every_golden_csv():
    assert sorted(GOLDEN_CURVES) == sorted(path.stem for path in GOLDEN.glob("*.csv"))


@pytest.mark.parametrize("name", sorted(GOLDEN_CURVES))
def test_curve_output_matches_golden_csv(capsys, name):
    status, out, err = run(["curve", *GOLDEN_CURVES[name]], capsys)
    assert (status, err) == (0, "")
    assert out == (GOLDEN / f"{name}.csv").read_text()


def test_near_one_golden_curve_matches_mpmath():
    # The golden's rows are those of this curve; near R = 1 its x is
    # 1e-13 and smaller, and every row keeps 12 digits of a 60-digit solve.
    args = cli_module._parser()[1]["curve"].parse_args(GOLDEN_CURVES["counting-near-one"])
    curve = cli_module._curve_for_args(args)
    for rate, distortion in zip(curve.rates.tolist(), curve.distortions.tolist()):
        expected = float(oracles_mp.counting_distortion(curve.dist.entries, rate))
        assert abs(distortion - expected) <= 1e-12 * expected, (rate, distortion, expected)


@pytest.mark.parametrize(
    "spec", ["1:0.99999,2:1e-05", "1:0.9999999,2:1e-07", "1:0.9999999999,2:1e-10", "1:0.99999999999,2:1e-11"]
)
def test_curve_of_a_profile_averaging_just_above_one(capsys, spec):
    # The arc's rate near x = 1 is 0/0; for these profiles the rate the
    # solve in x read there came out above 1, and the curve exited 4.  The
    # arc's 1 - R, with no degree-1 term, stays positive up to the top of
    # the bracket.  Every tenth row and those from R = 0.99 up match a
    # 60-digit solve to their ten printed digits, half a unit of which is
    # at most 5e-10.  At R = 1 the row is 0; the oracle, which renormalises
    # fractions that sum to 1 - 8e-18, reads 2.8e-19 there for 1e-10.
    argv = ["curve", "--bound", "counting", "--degrees", spec, "--rate-min", "0", "--rate-max", "1", "--steps", "201"]
    status, out, err = run(argv, capsys)
    assert (status, err) == (0, "")
    rows = out.splitlines()[out.splitlines().index("D,R") + 1 :]
    assert len(rows) == 201
    dist = parse_degree_spec(spec).dist
    for k in [*range(0, 198, 10), *range(198, 201)]:
        printed, rate = float(rows[k].split(",")[0]), k / 200
        expected = float(oracles_mp.counting_distortion(dist.entries, rate))
        assert abs(printed - expected) <= 5.1e-10 * expected + 1e-18, (rate, printed, expected)


# ---------------------------------------------------------------------------
# CSV rows: the numpy writer against one f-string per row
# ---------------------------------------------------------------------------


def _ulps(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


# Edges of the writer's fast path [1e-4, 1), its decades and its exact
# values, each with the doubles a few ulps either side.
_EDGE_VALUES = st.builds(
    _ulps, st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5e-324, 2.2250738585072014e-308]),
    st.integers(min_value=-3, max_value=3),
)
# Ten-digit decimals q 10^(e - 9) and the half-points between them, in and
# around the fast path's decades, the nearest double and one ulp either side.
_DECIMAL_VALUES = st.builds(
    lambda q, half, e, steps: _ulps(float(Decimal(2 * q + half) / 2 * Decimal(10) ** (e - 9)), steps),
    st.integers(min_value=10**9, max_value=10**10 - 1),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=-6, max_value=1),
    st.integers(min_value=-1, max_value=1),
)
_CSV_VALUES = st.one_of(
    st.floats(), st.floats(min_value=1e-4, max_value=1.0, exclude_max=True), _EDGE_VALUES, _DECIMAL_VALUES
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_CSV_VALUES, _CSV_VALUES), max_size=40))
def test_csv_rows_equal_one_fstring_per_row(rows):
    distortions = [d for d, _ in rows]
    rates = [r for _, r in rows]
    text = cli_module._csv_rows(np.array(distortions, float), np.array(rates, float))
    assert text == csv_rows_naive(distortions, rates)


def test_csv_rows_near_halves_and_decade_edges():
    # A tie, 3 2^-14 = 0.00018310546875, rounds to even as %g does; the
    # doubles at and next to the half-points 0.56379300495 and
    # 0.00035722124205 round away from rint of their scaled value; the
    # largest doubles below 1e-4, 0.1 and 1 print as the decade above.
    values = [3 * 2.0**-14]
    values += [_ulps(half, k) for half in (0.56379300495, 0.00035722124205) for k in range(-2, 3)]
    values += [_ulps(edge, -1) for edge in (1e-4, 1e-3, 1e-2, 0.1, 1.0)]
    values += [0.09999999999995, 0.0999999999995, -0.0, math.nan, math.inf]
    partner = [0.25] * len(values)  # in the fast path, so each row turns on its value
    for distortions, rates in ((values, partner), (partner, values)):
        text = cli_module._csv_rows(np.array(distortions), np.array(rates))
        assert text == csv_rows_naive(distortions, rates)


# Every curve family, dense and nested, with the lowest rate it takes.
_CSV_FAMILIES = [
    *((["--bound", "counting", "--degrees", spec], 0.0) for spec in (
        "regular:2", "regular:3", "regular:5", "1:0.5,3:0.5", "2:0.25,3:0.5,6:0.25", "0:0.1,2:0.5,4:0.4",
    )),
    (["--bound", "shannon"], 0.0),
    (["--bound", "dwr", "--r", "3"], 0.0),
    (["--bound", "dwr", "--r", "6"], 0.0),
    (["--bound", "conjecture", "--l", "2"], 0.0),
    (["--bound", "conjecture", "--l", "3"], 0.0),
    (["--bound", "test-channel", "--l", "2"], 0.0),
    (["--bound", "test-channel", "--l", "3"], 0.0),
    (["--bound", "counting", "--degrees", "poisson:3"], 0.15),
    (["--bound", "counting", "--degrees", "poisson:6"], 0.15),
]


@pytest.mark.parametrize("family, lowest", _CSV_FAMILIES, ids=[" ".join(family) for family, _ in _CSV_FAMILIES])
def test_curve_rows_equal_one_fstring_per_row(capsys, family, lowest):
    # 3000 rows over the whole range, where the rows at R = 0 or R = 1 take
    # the f-string, and on two seeded jittered windows inside it
    rng = np.random.default_rng(list(map(ord, " ".join(family))))
    windows = [(lowest, 1.0)] + [(lowest + rng.uniform(0.0, 0.02), 1.0 - rng.uniform(0.0, 0.02)) for _ in range(2)]
    for lo, hi in windows:
        argv = ["curve", *family, "--rate-min", repr(lo), "--rate-max", repr(hi), "--steps", "3000"]
        status, out, err = run(argv, capsys)
        assert (status, err) == (0, "")
        curve = cli_module._curve_for_args(cli_module._parser()[1]["curve"].parse_args(argv[1:]))
        assert out.split("D,R\n", 1)[1] == csv_rows_naive(curve.distortions, curve.rates)


# Reports and tables written by ``ldgm-bounds verify`` and ``enum``, run
# from the repository root, before the test-only bound forms left the
# package; output must match them byte for byte.  ``readme.ldgm`` is the
# code file README.md shows.  The codes of ``verify-pins-m8`` pin
# distinct checks, so its counting bound, the line (1 - R avg)/2, equals
# their optimum, 0.375: a bound above the optimum would fail it.
GOLDEN_REPORTS = {
    "verify-regular2-m14": ["verify", "--m", "14", "--n", "7", "--degrees", "regular:2", "--trials", "3"],
    "verify-mixed-m16": ["verify", "--m", "16", "--n", "8", "--degrees", "1:0.5,3:0.5", "--trials", "3", "--seed", "5"],
    "verify-rank24-m26": ["verify", "--m", "26", "--n", "24", "--degrees", "regular:2", "--seed", "230", "--trials", "1"],
    "verify-rank0-m26": ["verify", "--m", "26", "--n", "0", "--degrees", "regular:2", "--trials", "1"],
    "verify-default-m20": ["verify", "--m", "20", "--n", "10", "--degrees", "regular:3"],
    "verify-dgrid7-m20": ["verify", "--m", "20", "--n", "10", "--degrees", "regular:3", "--d-grid-steps", "7"],
    "verify-pins-m8": ["verify", "--m", "8", "--n", "4", "--degrees", "0:0.5,1:0.5", "--trials", "3"],
    # degrees 1 and 2 in thirds: the bound is the code's own profile, not the spelling's floats
    "verify-thirds-m6": ["verify", "--m", "6", "--n", "3", "--degrees", "1:0.3333333,2:0.6666667", "--trials", "3"],
    "enum-readme": ["enum", "tests/golden/readme.ldgm"],
    "enum-empty-m8": ["enum", "tests/golden/empty-m8.ldgm"],
}


def test_golden_reports_name_every_golden_txt():
    assert sorted(GOLDEN_REPORTS) == sorted(path.stem for path in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_report_output_matches_golden_txt(monkeypatch, capsys, name):
    monkeypatch.chdir(GOLDEN.parent.parent)
    status, out, err = run(GOLDEN_REPORTS[name], capsys)
    assert (status, err) == (0, "")
    assert out == (GOLDEN / f"{name}.txt").read_text()


def test_golden_reports_repeat_in_one_process(monkeypatch, capsys):
    # What one report leaves in the memos must not change another: every
    # report, run in order and then in reverse in one process, matches
    # its file.
    monkeypatch.chdir(GOLDEN.parent.parent)
    names = list(GOLDEN_REPORTS)
    for name in names + names[::-1]:
        expected = (0, (GOLDEN / f"{name}.txt").read_text(), "")
        assert run(GOLDEN_REPORTS[name], capsys) == expected, name


def test_verify_prints_one_report_for_two_spellings_of_a_profile(monkeypatch, capsys):
    # Both spellings sample the code with one degree-1 and two degree-2
    # generators, and its report is that of its own profile, the thirds.
    monkeypatch.chdir(GOLDEN.parent.parent)
    argv = GOLDEN_REPORTS["verify-thirds-m6"][:]
    argv[argv.index("--degrees") + 1] = "1:0.3333334,2:0.6666666"
    assert run(argv, capsys) == (0, (GOLDEN / "verify-thirds-m6.txt").read_text(), "")


def test_curve_rejects_single_step(capsys):
    status, _, err = run(
        [
            "curve", "--bound", "shannon",
            "--rate-min", "0.5", "--rate-max", "0.5", "--steps", "1",
        ],
        capsys,
    )
    assert status == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# enum
# ---------------------------------------------------------------------------


def test_enum_zero_generators(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("ldgm 8 0\n")
    status, out, _ = run(["enum", str(path)], capsys)
    assert status == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert lines[2].split() == ["0", "1", "1", "1", "yes"]


def test_enum_table(tmp_path, capsys):
    code = sample_code(10, 5, REG2, seed=3)
    path = tmp_path / "code.txt"
    write_code_file(code, path)
    status, out, _ = run(["enum", str(path)], capsys)
    assert status == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("code: m=10 n=5")
    assert lines[1].split() == ["w", "A", "cumulative", "floor", "ok"]
    assert len(lines) == 13  # header, columns, w = 0..10
    assert all(line.split()[-1] == "yes" for line in lines[2:])


def test_enum_missing_file(capsys):
    status, _, err = run(["enum", "/nonexistent/code.txt"], capsys)
    assert status == 2
    assert "error:" in err


def test_enum_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("ldgm 4 1\n0 9\n")
    status, _, err = run(["enum", str(path)], capsys)
    assert status == 2
    assert "line 2" in err


def test_enum_over_budget_exits_3(tmp_path, capsys):
    code = LdgmCode(num_checks=30, generators=tuple((g,) for g in range(25)))
    path = tmp_path / "wide.txt"
    write_code_file(code, path)
    status, out, err = run(["enum", str(path)], capsys)
    assert status == 3
    assert out == ""
    assert "error: 25 generators exceed the enumeration budget of 24" in err


def test_enum_past_check_budget_refused_before_elimination(tmp_path, capsys):
    # A 17-byte file that names a million checks: refused before the
    # enumerator eliminates or allocates anything that grows with m.
    path = tmp_path / "long.txt"
    path.write_text("ldgm 1000000 1\n0\n")
    cli_module._parser()
    tracemalloc.start()
    try:
        status, out, err = run(["enum", str(path)], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (status, out) == (3, "")
    assert "error: blocklength 1000000 exceeds the enumeration budget of 1024" in err
    assert peak < 1 << 20


def test_enum_check_budget_edge(tmp_path, capsys):
    path = tmp_path / "edge.txt"
    path.write_text("ldgm 1024 1\n0\n")
    status, out, _ = run(["enum", str(path)], capsys)
    assert status == 0
    assert len(out.splitlines()) == 1024 + 3
    path.write_text("ldgm 1025 1\n0\n")
    assert run(["enum", str(path)], capsys)[0] == 3
    # no generators is no exemption from the check budget
    path.write_text("ldgm 1025 0\n")
    assert run(["enum", str(path)], capsys)[:2] == (3, "")


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(CAMPAIGN_SPECS), st.integers(min_value=4, max_value=20), st.data())
def test_enum_table_and_verify_report_agree(tmp_path, capsys, spec_multiple, m, data):
    # enum on a sampled code prints the rows whose smallest cumulative -
    # floor is the enum_slack verify reports for the same code.
    spec, multiple = spec_multiple
    n = multiple * data.draw(st.integers(min_value=0, max_value=m // multiple), label="n / multiple")
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1), label="seed")
    path = tmp_path / "code.txt"
    write_code_file(sample_code(m, n, parse_degree_spec(spec).dist, seed), path)
    status, table, _ = run(["enum", str(path)], capsys)
    assert status == 0
    slack = min(int(row.split()[2]) - int(row.split()[3]) for row in table.splitlines()[2:])
    argv = ["verify", "--m", str(m), "--n", str(n), "--degrees", spec, "--trials", "1", "--seed", str(seed)]
    status, report, _ = run(argv, capsys)
    assert status == 0
    assert f" enum_slack={slack} " in report.splitlines()[0]


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def outcome(argv, capsys):
    """Exit status, or the SystemExit argparse raised, with stdout and stderr."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = f"SystemExit({exc.code})"
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_repeated_calls_agree_whatever_runs_between(tmp_path, capsys):
    path = tmp_path / "code.txt"
    write_code_file(sample_code(10, 5, REG2, seed=3), path)
    commands = [
        ["curve", *GOLDEN_CURVES["counting-regular3"]],
        ["verify", "--m", "12", "--n", "6", "--degrees", "regular:2", "--trials", "2"],
        ["enum", str(path)],
    ]
    between = (
        ("SystemExit(2)", ["verify", "--m", "12"]),  # argparse: --n and --degrees missing
        (3, ["verify", "--m", "30", "--n", "4", "--degrees", "regular:2"]),  # BudgetError
        ("SystemExit(0)", ["curve", "--help"]),
    )
    first = [outcome(argv, capsys) for argv in commands]
    assert [status for status, _, _ in first] == [0, 0, 0]
    assert first[0][1] == (GOLDEN / "counting-regular3.csv").read_text()
    for expected_status, argv in between:
        interrupted = outcome(argv, capsys)
        assert interrupted[0] == expected_status
        assert [outcome(argv, capsys) for argv in commands] == first
        assert outcome(argv, capsys) == interrupted
    assert cli_module._parser.cache_info().currsize == 1


_VERIFY = ["verify", "--m", "12", "--n", "6", "--degrees", "regular:2", "--trials", "1"]
DISPATCH_ARGV = [
    ["--help"],
    ["-h", "verify"],
    [],
    ["frobnicate", "--m", "12"],
    ["verify"],
    ["verify", "--m", "x", "--n", "6", "--degrees", "regular:2"],
    ["verify", "--m", "12", "--n", "6", "--deg", "regular:2", "--trials", "1"],
    ["verify", "--m=12", "--n=6", "--degrees=regular:2", "--trials=1"],
    ["verify", "--m", "30", "--n", "6", "--degrees", "regular:2", "--trials", "1", "--m", "12"],
    ["verify", "--m", "12", "--n", "6", "-h"],
    ["verify", "--m", "12", "--n", "6", "--he"],
    [*_VERIFY, "extra", "more"],
    [*_VERIFY, "--bogus", "1"],
    [*_VERIFY[:-1], "-1"],
    ["curve", "--bound", "shannon", "--steps", "3"],
    ["curve", "--bound", "nope"],
    ["curve", "--help"],
    ["enum"],
    ["enum", "tests/golden/readme.ldgm", "more"],
]


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=" ".join)
def test_dispatch_matches_the_top_level_parser(monkeypatch, capsys, argv):
    # main hands a command's arguments to its own parser; the top-level
    # parser alone gives the same status, output and messages
    dispatched = outcome(argv, capsys)

    def top_level(argv):
        args = cli_module._parser()[0].parse_args(argv)
        return args.command, args

    monkeypatch.setattr(cli_module, "_parse", top_level)
    assert outcome(argv, capsys) == dispatched


def test_import_builds_no_parser():
    # the parser is built by the first main() call, so importing stays cheap
    package_root = Path(cli_module.__file__).resolve().parents[1]
    probe = "import ldgm_bounds.cli as cli; print(cli._parser.cache_info().currsize)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
        check=True,
    )
    assert result.stdout == "0\n"
