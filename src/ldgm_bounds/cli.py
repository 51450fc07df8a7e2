"""Command-line front end.

Three subcommands:

* ``curve``: sample one bound family over a rate grid and emit CSV.
* ``verify``: sample random codes, brute-force their optimal distortion,
  and check it against the counting bound and its exact ingredients.
* ``enum``: print the weight enumerator of a code file next to its
  coefficient floor.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
or parse errors, 3 when an exact computation exceeds its budget
(``BudgetError``; ``verify`` raises it for ``--m`` or ``--n`` past the
budget before sampling), and 4 when a bound has no solution or its
numerics cannot deliver one (``NoSolutionError``, ``BracketError``,
``TruncationError``).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import BoundCurve, NoSolutionError, parametric_endpoints, sample_curve
from .degree import DegreeDistribution, TruncationError, parse_degree_literal
from .exact import (
    BLOCKLENGTH_LIMIT,
    GENERATOR_LIMIT,
    BudgetError,
    coefficient_lower_bound,
    read_code_file,
    sample_code,
    verify_code,
    weight_enumerator,
)
from .numerics import BracketError

_BOUND_FLAGS = {
    "shannon": "shannon",
    "counting": "counting",
    "test-channel": "test_channel",
    "dwr": "dwr",
    "conjecture": "conjectured_exit",
}

CONJECTURE_NOTICE = "# CONJECTURE: unproven bound, not a theorem"


class UsageError(ValueError):
    """Bad arguments or unreadable inputs; mapped to exit code 2."""


@dataclass(frozen=True)
class DegreeSpec:
    """Parsed --degrees value: a fixed distribution, or a named family."""

    dist: DegreeDistribution | None = None
    regular: int | None = None
    poisson: int | None = None


def parse_degree_spec(text: str) -> DegreeSpec:
    """Accept "regular:<l>", "poisson:<r>", or a degree:fraction literal."""
    head, sep, tail = text.partition(":")
    if sep and head in ("regular", "poisson"):
        try:
            value = int(tail)
        except ValueError as exc:
            raise UsageError(f"bad {head} parameter in {text!r}") from exc
        if value < 1:
            raise UsageError(f"{head} parameter must be >= 1, got {value}")
        if head == "regular":
            return DegreeSpec(dist=DegreeDistribution.regular(value), regular=value)
        return DegreeSpec(poisson=value)
    try:
        return DegreeSpec(dist=parse_degree_literal(text))
    except ValueError as exc:
        raise UsageError(f"bad degree spec {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldgm-bounds",
        description="Rate-distortion lower bounds for sparse generator codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="sample a bound curve as CSV")
    curve.add_argument(
        "--bound", required=True, choices=sorted(_BOUND_FLAGS), help="curve family"
    )
    curve.add_argument("--degrees", help="degree spec: literal, regular:<l>, poisson:<r>")
    curve.add_argument("--l", type=int, help="generator degree for regular families")
    curve.add_argument("--r", type=int, help="check degree for ensemble families")
    curve.add_argument("--rate-min", type=float, default=0.05)
    curve.add_argument("--rate-max", type=float, default=0.95)
    curve.add_argument("--steps", type=int, default=19)
    curve.add_argument("--out", default="-", help="output path, - for stdout")

    verify = sub.add_parser("verify", help="check sampled codes against the bound")
    verify.add_argument("--m", type=int, required=True, help="number of check nodes")
    verify.add_argument("--n", type=int, required=True, help="number of generators")
    verify.add_argument("--degrees", required=True, help="degree literal or regular:<l>")
    verify.add_argument("--trials", type=int, default=10)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--d-grid-steps", type=int, default=26)
    verify.add_argument("--out", default="-", help="report path, - for stdout")

    enum = sub.add_parser("enum", help="weight enumerator of a code file")
    enum.add_argument("path", help="code file")

    return parser


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


def _rate_grid(args) -> np.ndarray:
    if args.steps < 2:
        raise UsageError(f"--steps must be >= 2, got {args.steps}")
    if not (0.0 <= args.rate_min < args.rate_max <= 1.0):
        raise UsageError(
            f"need 0 <= rate-min < rate-max <= 1, got {args.rate_min}..{args.rate_max}"
        )
    span = args.rate_max - args.rate_min
    return args.rate_min + span * np.arange(args.steps) / (args.steps - 1)


def _curve_for_args(args) -> BoundCurve:
    kind = _BOUND_FLAGS[args.bound]
    grid = _rate_grid(args)
    given = [
        flag
        for flag, value in (("--degrees", args.degrees), ("--l", args.l), ("--r", args.r))
        if value is not None
    ]
    if len(given) > 1:
        raise UsageError(
            f"give at most one of --degrees, --l and --r, got {' and '.join(given)}"
        )
    if args.degrees:
        spec = parse_degree_spec(args.degrees)
    else:
        spec = DegreeSpec(regular=args.l, poisson=args.r)

    if kind == "shannon":
        return sample_curve("shannon", grid)

    if kind == "counting":
        if spec.poisson is not None:
            if min(grid) <= 0.0:
                raise UsageError("poisson counting curves need rates > 0")
            return sample_curve("counting", grid, check_degree=spec.poisson)
        dist = spec.dist
        if dist is None and spec.regular is not None:
            dist = DegreeDistribution.regular(spec.regular)
        if dist is None:
            raise UsageError("counting needs --degrees (or --l / --r)")
        return sample_curve("counting", grid, dist=dist)

    if kind in ("test_channel", "conjectured_exit"):
        if spec.regular is None:
            raise UsageError(f"{args.bound} needs --l or --degrees regular:<l>")
        return sample_curve(kind, grid, degree=spec.regular)

    # dwr
    if spec.poisson is None:
        raise UsageError("dwr needs --r or --degrees poisson:<r>")
    return sample_curve("dwr", grid, check_degree=spec.poisson)


def render_curve_csv(curve: BoundCurve) -> str:
    """CSV with a comment preamble; rows carry 10 significant digits."""
    lines = []
    if curve.is_conjecture:
        lines.append(CONJECTURE_NOTICE)
    params = " ".join(f"{key}={value}" for key, value in curve.params)
    lines.append(f"# bound={curve.kind}" + (f" {params}" if params else ""))
    if curve.kind == "counting":
        if curve.dist is None:
            lines.append("# poisson family: degree distribution rebuilt at every rate")
        elif curve.dist.average_degree > 1.0:  # otherwise the curve is the line, no arc
            start, end = parametric_endpoints(curve.dist)
            lines.append(f"# arc endpoint x->0: D={start[0]:.10g},R={start[1]:.10g}")
            lines.append(f"# arc endpoint x->1: D={end[0]:.10g},R={end[1]:.10g}")
    lines.append("D,R")
    for distortion, rate in zip(curve.distortions, curve.rates):
        lines.append(f"{distortion:.10g},{rate:.10g}")
    return "\n".join(lines) + "\n"


def _write_output(path: str, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when ``path`` is "-"."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc}") from exc


def cmd_curve(args) -> int:
    _write_output(args.out, render_curve_csv(_curve_for_args(args)))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_distribution(text: str) -> DegreeDistribution:
    spec = parse_degree_spec(text)
    if spec.poisson is not None:
        raise UsageError("verify needs an exactly realizable distribution, not poisson")
    assert spec.dist is not None
    return spec.dist


def report_line(report) -> str:
    return (
        f"seed={report.seed} m={report.num_checks} n={report.num_generators} "
        f"optimal={report.optimal_distortion:.10g} "
        f"bound={report.bound_distortion:.10g} "
        f"bound_margin={report.bound_margin:.10g} "
        f"chain_margin={report.chain_margin:.10g} "
        f"enum_slack={report.enumerator_slack} "
        f"{'PASS' if report.passed else 'FAIL'}"
    )


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    if args.d_grid_steps < 2:
        raise UsageError(f"--d-grid-steps must be >= 2, got {args.d_grid_steps}")
    if args.m < 1 or args.n < 0:
        raise UsageError(f"need --m >= 1 and --n >= 0, got {args.m} and {args.n}")
    # Refuse oversized instances before sampling anything.
    if args.m > BLOCKLENGTH_LIMIT:
        raise BudgetError(f"--m {args.m} exceeds the budget of {BLOCKLENGTH_LIMIT}")
    if args.n > GENERATOR_LIMIT:
        raise BudgetError(f"--n {args.n} exceeds the budget of {GENERATOR_LIMIT}")
    dist = _verify_distribution(args.degrees)
    grid = [k / (2 * (args.d_grid_steps - 1)) for k in range(args.d_grid_steps)]

    lines = []
    failures = 0
    worst_optimal = None
    bound_value = None
    for trial in range(args.trials):
        seed = args.seed + trial
        code = sample_code(args.m, args.n, dist, seed)
        report = verify_code(code, dist, grid, seed=seed)
        bound_value = report.bound_distortion
        if worst_optimal is None or report.optimal_distortion < worst_optimal:
            worst_optimal = report.optimal_distortion
        if not report.passed:
            failures += 1
        lines.append(report_line(report))
    summary = (
        f"summary: trials={args.trials} passed={args.trials - failures} "
        f"failed={failures} min_optimal={worst_optimal:.10g} bound={bound_value:.10g}"
    )
    lines.append(summary)
    _write_output(args.out, "\n".join(lines) + "\n")
    if args.out != "-":
        print(summary)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# enum
# ---------------------------------------------------------------------------


def cmd_enum(args) -> int:
    try:
        code = read_code_file(args.path)
    except OSError as exc:
        raise UsageError(f"cannot read {args.path!r}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{args.path}: {exc}") from exc
    if code.num_generators == 0:
        print(f"code: m={code.num_checks} n=0 degrees=-")
        print(f"{'w':>3} {'A':>12} {'cumulative':>12} {'floor':>12} ok")
        print(f"{0:>3} {1:>12} {1:>12} {1:>12} yes")
        return 0
    dist = code.realized_distribution()
    enumerator = weight_enumerator(code)
    cumulative = enumerator.cumulative()
    floors = coefficient_lower_bound(dist, code.num_generators)
    last = len(floors) - 1

    print(
        f"code: m={code.num_checks} n={code.num_generators} "
        f"degrees={dist.to_literal()}"
    )
    print(f"{'w':>3} {'A':>12} {'cumulative':>12} {'floor':>12} ok")
    violations = 0
    for w, count in enumerate(enumerator.counts):
        floor = floors[min(w, last)]
        ok = cumulative[w] >= floor
        if not ok:
            violations += 1
        print(f"{w:>3} {count:>12} {cumulative[w]:>12} {floor:>12} {'yes' if ok else 'NO'}")
    return 1 if violations else 0


# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and shared by every later
    one in the process: building it costs more than a small ``verify``."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"curve": cmd_curve, "verify": cmd_verify, "enum": cmd_enum}
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_status(exc)


def _exit_status(exc: ValueError) -> int:
    """3 for a budget refusal, 4 for a mathematical one, 2 for the rest."""
    if isinstance(exc, BudgetError):
        return 3
    if isinstance(exc, (NoSolutionError, BracketError, TruncationError)):
        return 4
    return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
