"""The three workloads: seeded argument lists for ``ldgm_bounds.cli.main``.

A run is a whole number of rounds; every round holds the same operations,
with fresh seeded values, so ``attempted`` depends only on ``--seconds``.
The program builds the inputs that need it (degree specs, codes, code
files), which is part of set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import references

WORKLOADS = ("curves", "verify-campaign", "verify-budget")

# Length of one round at the commit that added the benchmark, on a 2-core
# Xeon; the number of rounds is --seconds divided by this, so a run lasts
# about --seconds there and the same work takes less time on a faster
# program.
ROUND_SECONDS = {"curves": 3.3, "verify-campaign": 1.0, "verify-budget": 7.0}


@dataclass
class Op:
    """One call of ``cli.main(argv)`` and what the checks need to judge it."""

    argv: list[str]
    kind: str  # "curve", "verify" or "enum"
    info: dict = field(default_factory=dict)


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def profile_of(spec: str) -> tuple[tuple[int, float], ...]:
    """(degree, fraction) pairs of "regular:<l>" or a degree literal."""
    head, _, tail = spec.partition(":")
    if head == "regular":
        return ((int(tail), 1.0),)
    pairs = (part.split(":") for part in spec.split(","))
    return tuple(sorted((int(d), float(f)) for d, f in pairs))


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

# Dense grids for the families that solve once per point; grids of about a
# hundred points for the nested solvers.  Each group takes about half of a
# round.  Poisson rates stay at or above 0.15: the pmf's exp(-r/R)
# underflows once r/R passes about 745, and the CLI refuses rate 0.
# Each endpoint moves inward by a seeded amount up to _JITTER.
_DENSE, _NESTED = 3000, 100
_JITTER = 0.005
# Just above R = 1/l the conjectured curve is off by more than its printed
# digits (1.6e-10 at 1/3 + 1e-5), which a seeded grid would hit on some
# seeds only; see CHANGES.md.
_CONJECTURE_GAP = 0.001
CURVE_PLAN = (
    # (bound, spec argument, reference, rate range, steps)
    ("counting", ("--degrees", "regular:2"), ("counting", "regular:2"), (0.02, 0.98), _DENSE),
    ("counting", ("--degrees", "regular:3"), ("counting", "regular:3"), (0.02, 0.98), _DENSE),
    ("counting", ("--degrees", "regular:4"), ("counting", "regular:4"), (0.02, 0.98), _DENSE),
    ("counting", ("--degrees", "regular:5"), ("counting", "regular:5"), (0.02, 0.98), _DENSE),
    ("counting", ("--degrees", "1:0.5,3:0.5"), ("counting", "1:0.5,3:0.5"), (0.02, 0.98), _DENSE),
    ("counting", ("--degrees", "2:0.25,3:0.5,6:0.25"), ("counting", "2:0.25,3:0.5,6:0.25"), (0.02, 0.98), _DENSE),
    ("counting", ("--degrees", "0:0.1,2:0.5,4:0.4"), ("counting", "0:0.1,2:0.5,4:0.4"), (0.02, 0.98), _DENSE),
    ("shannon", (), ("shannon", None), (0.02, 0.98), _DENSE),
    ("dwr", ("--r", "3"), ("dwr", 3), (0.02, 0.98), _DENSE),
    ("dwr", ("--r", "6"), ("dwr", 6), (0.02, 0.98), _DENSE),
    ("conjecture", ("--l", "2"), ("conjecture", 2), (1 / 2 + _CONJECTURE_GAP, 0.98), _DENSE),
    ("conjecture", ("--l", "3"), ("conjecture", 3), (1 / 3 + _CONJECTURE_GAP, 0.98), _DENSE),
    ("test-channel", ("--l", "2"), ("test-channel", 2), (0.05, 0.95), _NESTED),
    ("test-channel", ("--l", "3"), ("test-channel", 3), (0.05, 0.95), _NESTED),
    ("counting", ("--degrees", "poisson:3"), ("poisson", 3), (0.15, 0.95), _NESTED),
    ("counting", ("--degrees", "poisson:4"), ("poisson", 4), (0.15, 0.95), _NESTED),
    ("counting", ("--degrees", "poisson:5"), ("poisson", 5), (0.15, 0.95), _NESTED),
    ("counting", ("--degrees", "poisson:6"), ("poisson", 6), (0.15, 0.95), _NESTED),
)


def curves_setup(program, rng: random.Random, rounds: int, workdir: Path) -> list[Op]:
    """Every grid endpoint is drawn afresh, so no operation hits a per-rate cache."""
    for _, spec, _, _, _ in CURVE_PLAN:
        if spec and spec[0] == "--degrees":
            program.cli.parse_degree_spec(spec[1])
    ops = []
    for _ in range(rounds):
        for bound, spec, (family, param), (lo, hi), steps in CURVE_PLAN:
            rate_min = lo + rng.uniform(0.0, _JITTER)
            rate_max = hi - rng.uniform(0.0, _JITTER)
            argv = ["curve", "--bound", bound, *spec, "--rate-min", repr(rate_min),
                    "--rate-max", repr(rate_max), "--steps", str(steps)]
            if family == "counting":
                param = profile_of(param)
            info = {"family": family, "param": param, "rate_min": rate_min,
                    "rate_max": rate_max, "steps": steps}
            ops.append(Op(argv, "curve", info))
    return ops


# ---------------------------------------------------------------------------
# verify-campaign and verify-budget
# ---------------------------------------------------------------------------

CAMPAIGN_PROFILES = (
    # (spec, n must be a multiple of)
    ("regular:2", 1),
    ("regular:3", 1),
    ("1:0.5,3:0.5", 2),
    ("2:0.5,4:0.5", 2),
    ("1:0.25,2:0.5,3:0.25", 4),
)
CAMPAIGN_CHECKS = range(12, 21)
CAMPAIGN_RATES = (0.25, 0.5, 0.75)
ENUM_EVERY = 4  # one enum call on a written code file per four verify calls


def campaign_instances() -> list[tuple[int, int, str]]:
    instances = []
    for m in CAMPAIGN_CHECKS:
        for spec, multiple in CAMPAIGN_PROFILES:
            for rate in CAMPAIGN_RATES:
                n = max(multiple, round(m * rate / multiple) * multiple)
                instances.append((m, n, spec))
    return instances


def _verify_op(program, m: int, n: int, spec: str, seed: int) -> Op:
    dist = program.cli.parse_degree_spec(spec).dist
    code = program.exact.sample_code(m, n, dist, seed)
    argv = ["verify", "--m", str(m), "--n", str(n), "--degrees", spec,
            "--trials", "1", "--seed", str(seed)]
    info = {"m": m, "n": n, "seed": seed, "profile": profile_of(spec),
            "generators": code.generators}
    return Op(argv, "verify", info)


def campaign_setup(program, rng: random.Random, rounds: int, workdir: Path) -> list[Op]:
    """Verify calls with fresh code seeds every round; the enum calls of
    every round read the same code files, written once."""
    instances = campaign_instances()
    enum_ops = {}
    for i in range(0, len(instances), ENUM_EVERY):
        m, n, spec = instances[i]
        code = program.exact.sample_code(m, n, program.cli.parse_degree_spec(spec).dist,
                                         rng.randrange(1 << 31))
        path = workdir / f"code-{i}.txt"
        program.exact.write_code_file(code, path)
        enum_ops[i] = Op(["enum", str(path)], "enum", {"m": m, "n": n, "generators": code.generators})
    ops = []
    for _ in range(rounds):
        for i, (m, n, spec) in enumerate(instances):
            ops.append(_verify_op(program, m, n, spec, rng.randrange(1 << 31)))
            if i in enum_ops:
                ops.append(enum_ops[i])
    return ops


BUDGET_INSTANCE = (26, 24, "regular:2")
# Time and peak RSS of verify grow with the code's GF(2) rank k, since
# 2^k distinct codewords are sorted and scattered into the 2^26 table: at
# this size a rank-24 code takes 1.1 GB and about three times as long as a
# rank-17 one.  Every budget code has the most common rank, 20 (28% of
# draws), so that runs on different seeds do the same work.
BUDGET_RANK = 20


def budget_setup(program, rng: random.Random, rounds: int, workdir: Path) -> list[Op]:
    m, n, spec = BUDGET_INSTANCE
    ops = []
    while len(ops) < rounds:
        op = _verify_op(program, m, n, spec, rng.randrange(1 << 31))
        rows, _ = references.gf2_rref(references.masks_of(op.info["generators"]))
        if len(rows) == BUDGET_RANK:
            ops.append(op)
    return ops


SETUPS = {
    "curves": curves_setup,
    "verify-campaign": campaign_setup,
    "verify-budget": budget_setup,
}
