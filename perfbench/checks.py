"""Checks of every operation's output against the references.

Each checker returns a list of problems; an empty list means the output
is right.  Printed numbers carry 10 significant digits, so a printed
value may sit up to half a unit of its tenth digit away from the exact
one; ``tolerance`` adds to that the solver error the program allows
itself (bisection to 1e-12 in distortion, or tighter).
"""

from __future__ import annotations

import functools
import math
import random
import re

import numpy as np

import references as ref

SOLVER_SLACK = 2e-12
MP_ROWS_PER_CURVE = 2
CONJECTURE_NOTICE = "# CONJECTURE"


def tolerance(printed: float) -> float:
    """Half a unit in the tenth significant digit of ``printed``, plus solver slack."""
    if printed == 0.0:
        return SOLVER_SLACK
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(printed))) - 9) + SOLVER_SLACK


def _close(printed: float, exact) -> bool:
    return abs(printed - float(exact)) <= tolerance(printed)


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


# family -> (float64 reference over an array of rates, mpmath reference at
# one rate), each given the family's parameter; test-channel is checked
# against the counting curve of its regular degree.
REFERENCES = {
    "shannon": (lambda _, r: ref.shannon_float(r), lambda _, r: ref.shannon_mp(r)),
    "counting": (ref.counting_float, ref.counting_mp),
    "poisson": (ref.poisson_counting_float, ref.poisson_counting_mp),
    "dwr": (ref.dwr_float, ref.dwr_mp),
    "conjecture": (ref.conjecture_float, ref.conjecture_mp),
    "test-channel": (
        lambda l, r: ref.counting_float(((l, 1.0),), r),
        lambda l, r: ref.counting_mp(((l, 1.0),), r),
    ),
}


def check_curve(info: dict, rc, out: str, rng: random.Random) -> list[str]:
    """CSV rows against float references on every row and mpmath on a sample.

    Properties on every row: 0 <= D <= 1/2, D does not increase with
    rate, D >= Shannon; test-channel equals counting at R >= 1/l and lies
    at or below it under 1/l; conjecture lies at or above counting.
    """
    family, param, steps = info["family"], info["param"], info["steps"]
    if rc != 0:
        return [f"exit status {rc}"]
    lines = out.splitlines()
    problems = []
    if (lines[:1] and lines[0].startswith(CONJECTURE_NOTICE)) != (family == "conjecture"):
        problems.append("conjecture notice missing or misplaced")
    if "D,R" not in lines:
        return problems + ["no D,R header"]
    rows = lines[lines.index("D,R") + 1:]
    if len(rows) != steps:
        return problems + [f"{len(rows)} rows, expected {steps}"]
    try:
        printed = np.array([[float(v) for v in row.split(",")] for row in rows])
    except ValueError as exc:
        return problems + [f"unparsable row: {exc}"]
    if printed.shape != (steps, 2):
        return problems + ["rows must hold two numbers"]
    d, r = printed[:, 0], printed[:, 1]
    lo, hi = info["rate_min"], info["rate_max"]
    grid = np.array([lo + (hi - lo) * k / (steps - 1) for k in range(steps)])
    tol = np.array([tolerance(v) for v in d])

    def flag(mask, what):
        bad = np.flatnonzero(mask)
        if bad.size:
            k = bad[0]
            problems.append(f"{what} at row {k} (R={r[k]!r}, D={d[k]!r}), {bad.size} rows")

    flag(np.abs(r - grid) > np.array([tolerance(v) for v in r]), "rate off the grid")
    flag((d < 0.0) | (d > 0.5), "distortion outside [0, 1/2]")
    flag(d[1:] > d[:-1] + tol[1:] + tol[:-1], "distortion increases with rate")
    flag(d < ref.shannon_float(grid) - tol, "distortion below Shannon")

    float_reference, mp_reference = REFERENCES[family]
    expected = float_reference(param, grid)
    if family == "test-channel":
        on_arc = grid >= 1.0 / param
        flag(on_arc & (np.abs(d - expected) > tol), "test-channel off the counting arc")
        flag(~on_arc & (d > expected + tol), "test-channel above counting under 1/l")
    else:
        flag(np.abs(d - expected) > tol, f"{family} off its reference")
    if family == "conjecture":
        counting = ref.counting_float(((param, 1.0),), grid)
        flag(d < counting - tol, "conjecture below counting")

    candidates = range(steps)
    if family == "test-channel":
        candidates = [k for k in candidates if grid[k] >= 1.0 / param]
    for k in rng.sample(list(candidates), min(MP_ROWS_PER_CURVE, len(candidates))):
        exact = mp_reference(param, float(grid[k]))
        if not _close(d[k], exact):
            problems.append(f"row {k}: D={d[k]!r}, mpmath reference {exact!r}")
        if abs(expected[k] - exact) > SOLVER_SLACK:
            problems.append(f"row {k}: float reference {expected[k]!r} != mpmath {exact!r}")
    return problems


# ---------------------------------------------------------------------------
# verify and enum
# ---------------------------------------------------------------------------

_REPORT = re.compile(
    r"seed=(?P<seed>-?\d+) m=(?P<m>\d+) n=(?P<n>\d+) optimal=(?P<optimal>\S+) "
    r"bound=(?P<bound>\S+) bound_margin=(?P<bound_margin>\S+) "
    r"chain_margin=(?P<chain_margin>\S+) enum_slack=(?P<enum_slack>-?\d+) (?P<verdict>PASS|FAIL)$"
)
_SUMMARY = re.compile(
    r"summary: trials=1 passed=1 failed=0 min_optimal=(?P<optimal>\S+) bound=(?P<bound>\S+)$"
)


@functools.lru_cache(maxsize=None)
def counting_bound(profile, m: int, n: int) -> float:
    return ref.counting_mp(profile, n / m)


def check_verify(info: dict, rc, out: str) -> list[str]:
    """One report line and the summary of ``verify --trials 1``."""
    if rc != 0:
        return [f"exit status {rc}"]
    lines = out.splitlines()
    if len(lines) != 2:
        return [f"{len(lines)} lines, expected a report line and a summary"]
    line, summary = _REPORT.match(lines[0]), _SUMMARY.match(lines[1])
    if line is None or summary is None:
        return [f"unparsable report: {out!r}"]
    m, n = info["m"], info["n"]
    expect = ref.verify_reference(info["generators"], m)
    bound = counting_bound(info["profile"], m, n)
    problems = []
    if (int(line["seed"]), int(line["m"]), int(line["n"])) != (info["seed"], m, n):
        problems.append(f"instance {line['seed']}/{line['m']}/{line['n']} is not the one asked for")
    if int(line["enum_slack"]) != expect["enum_slack"]:
        problems.append(f"enum_slack {line['enum_slack']}, reference {expect['enum_slack']}")
    if line["verdict"] != "PASS":
        problems.append("verdict is not PASS")
    for key, exact in (
        ("optimal", expect["optimal"]),
        ("chain_margin", expect["chain_margin"]),
        ("bound", bound),
        ("bound_margin", float(expect["optimal"]) - bound),
    ):
        if not _close(float(line[key]), exact):
            problems.append(f"{key}={line[key]}, reference {float(exact)!r}")
    if summary["optimal"] != line["optimal"] or summary["bound"] != line["bound"]:
        problems.append("summary disagrees with the report line")
    return problems


def check_enum(info: dict, rc, out: str) -> list[str]:
    """Every row of the enumerator table: A, cumulative, floor and verdict."""
    if rc != 0:
        return [f"exit status {rc}"]
    m, generators = info["m"], info["generators"]
    enum = ref.index_word_enumerator(ref.masks_of(generators), m)
    floor = ref.coefficient_floor([len(g) for g in generators])
    lines = out.splitlines()
    if len(lines) != m + 3:
        return [f"{len(lines)} lines, expected {m + 3}"]
    if not lines[0].startswith(f"code: m={m} n={info['n']} degrees="):
        return [f"bad header {lines[0]!r}"]
    problems = []
    cumulative = 0
    for w, line in enumerate(lines[2:]):
        cumulative += enum[w]
        want = [str(w), str(enum[w]), str(cumulative), str(floor[min(w, len(floor) - 1)]), "yes"]
        if line.split() != want:
            problems.append(f"row {w}: {line.split()} != {want}")
    return problems


def check_op(op, rc, out: str, rng: random.Random) -> list[str]:
    if op.kind == "curve":
        return check_curve(op.info, rc, out, rng)
    if op.kind == "verify":
        return check_verify(op.info, rc, out)
    return check_enum(op.info, rc, out)
