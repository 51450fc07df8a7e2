"""Command-line front end.

Three subcommands:

* ``curve``: sample one bound family over a rate grid and emit CSV.
* ``verify``: sample random codes, brute-force their optimal distortion,
  and check it against each code's own counting bound and its ingredients.
* ``enum``: print the weight enumerator of a code file next to its
  coefficient floor, the rows of the enumerator check ``verify`` runs.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
or parse errors, 3 when a computation exceeds its budget (``BudgetError``,
raised for ``--m`` or ``--n`` past the exact budgets, for ``--steps``
or ``--d-grid-steps`` past the grid caps and for ``--trials`` past 10^6,
before anything is built, and for an ``enum`` code file of more than 1024
checks, before its elimination), and
4 when a bound has no solution or its numerics cannot deliver one
(``NoSolutionError``, ``BracketError``, ``TruncationError``).

``main`` hands the arguments after a command name straight to that
command's own parser, which skips the top-level parser's pass over them.
When the first argument names no command, or the command's parser leaves
arguments over, the top-level parser parses them all again, so every
usage error, help text and exit status is the one it gives.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import _FAMILIES, BoundCurve, NoSolutionError, sample_curve
from .degree import DEGREE_LIMIT, DegreeDistribution, TruncationError, parse_degree_literal
from .exact import (
    BLOCKLENGTH_LIMIT,
    GENERATOR_LIMIT,
    BudgetError,
    _enumerator_rows,
    coefficient_lower_bound,
    read_code_file,
    sample_code,
    verify_code,
    weight_enumerator,
)
from .numerics import BracketError

# Grid caps, far above any useful curve or verify grid.  A curve grid past
# its cap is refused before it is allocated; the d-grid is never
# allocated, and its cap bounds the chain check's work, one step per grid
# point per code.  The trials cap bounds the report lines verify holds
# until it writes them, about 150 bytes each.
_STEPS_LIMIT = 10**6
_D_GRID_LIMIT = 10**5
_TRIALS_LIMIT = 10**6
# Entries kept by the ``parse_degree_spec`` memo, keyed by spec text: a
# campaign of verify calls uses a few profiles.
_SPEC_CACHE_SIZE = 64


class UsageError(ValueError):
    """Bad arguments or unreadable inputs; mapped to exit code 2."""


@dataclass(frozen=True)
class DegreeSpec:
    """Parsed --degrees value: a fixed distribution, or a named family."""

    dist: DegreeDistribution | None = None
    regular: int | None = None
    poisson: int | None = None


@functools.lru_cache(maxsize=_SPEC_CACHE_SIZE)
def parse_degree_spec(text: str) -> DegreeSpec:
    """Accept "regular:<l>", "poisson:<r>", or a degree:fraction literal.

    Memoised per text, so repeated calls on one spec share one parse:
    a curve reuses its distribution and the values it caches, and verify
    samples from it."""
    head, sep, tail = text.partition(":")
    if sep and head in ("regular", "poisson"):
        try:
            value = int(tail)
        except ValueError as exc:
            raise UsageError(f"bad {head} parameter in {text!r}") from exc
        if not 1 <= value <= DEGREE_LIMIT:
            raise UsageError(f"{head} parameter must be in [1, {DEGREE_LIMIT}], got {value}")
        if head == "regular":
            return DegreeSpec(dist=DegreeDistribution.regular(value), regular=value)
        return DegreeSpec(poisson=value)
    try:
        return DegreeSpec(dist=parse_degree_literal(text))
    except ValueError as exc:
        raise UsageError(f"bad degree spec {text!r}: {exc}") from exc


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, by name."""
    parser = argparse.ArgumentParser(
        prog="ldgm-bounds",
        description="Rate-distortion lower bounds for sparse generator codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="sample a bound curve as CSV")
    flags = sorted(family.flag for family in _FAMILIES.values())
    curve.add_argument("--bound", required=True, choices=flags, help="curve family")
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

    return parser, sub.choices


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


def _rate_grid(args) -> np.ndarray:
    if args.steps < 2:
        raise UsageError(f"--steps must be >= 2, got {args.steps}")
    if args.steps > _STEPS_LIMIT:
        raise BudgetError(f"--steps {args.steps} exceeds the budget of {_STEPS_LIMIT}")
    if not (0.0 <= args.rate_min < args.rate_max <= 1.0):
        raise UsageError(
            f"need 0 <= rate-min < rate-max <= 1, got {args.rate_min}..{args.rate_max}"
        )
    span = args.rate_max - args.rate_min
    return args.rate_min + span * np.arange(args.steps) / (args.steps - 1)


def _curve_for_args(args) -> BoundCurve:
    grid = _rate_grid(args)
    texts = {
        "--degrees": args.degrees,
        "--l": None if args.l is None else f"regular:{args.l}",
        "--r": None if args.r is None else f"poisson:{args.r}",
    }
    given = [flag for flag, text in texts.items() if text is not None]
    if len(given) > 1:
        raise UsageError(
            f"give at most one of --degrees, --l and --r, got {' and '.join(given)}"
        )
    spec = parse_degree_spec(texts[given[0]]) if given else DegreeSpec()
    kind = next(kind for kind, family in _FAMILIES.items() if family.flag == args.bound)
    return sample_curve(kind, grid, dist=spec.dist, degree=spec.regular, check_degree=spec.poisson)


# Tables of the CSV rows' fast path, ``_csv_rows``.  Decade e of a value in
# [1e-4, 1) is -4 plus the number of 0.001, 0.01 and 0.1 at or below it;
# _TEN_DIGITS[e + 4] is 10^(9 - e) and _FRACTION_SHIFT[e + 4] is 10^(e + 4).
_TEN_DIGITS = np.array([1e13, 1e12, 1e11, 1e10])
_FRACTION_SHIFT = np.array([1.0, 10.0, 100.0, 1000.0])
# The first word of a value's 16 bytes: its separator, "0." and a digit to add.
_LEAD_WORDS = np.frombuffer(b"\n0.0,0.0", "<u4")


@functools.cache
def _digit_words() -> np.ndarray:
    """"0000" to "9999" as little-endian words of four ASCII digits, then
    the same 10^4 groups with their trailing zeros written as NUL bytes.

    Built on the first curve written, so ``verify`` and ``enum`` never pay
    for it; the array is read-only, since every call shares it."""
    codes, place = np.arange(10_000)[:, None], np.array([1000, 100, 10, 1])
    chars = (codes // place % 10 + ord("0")).astype(np.uint8)
    # the digit of place p is a trailing zero when the code is a multiple of 10 p
    stripped = np.where(codes % (10 * place) == 0, np.uint8(0), chars)
    words = np.concatenate([chars, stripped], axis=None).view("<u4")
    words.flags.writeable = False
    return words


def _csv_rows(distortions: np.ndarray, rates: np.ndarray) -> str:
    """``f"{d:.10g},{r:.10g}\\n"`` for every row, with the rows whose two
    values lie in [1e-4, 1) written by numpy passes over all of them at once.

    Such a value v is written as "0." and the 13 digits of
    N = rint(v 10^(9 - e)) 10^(e + 4), which render_curve_csv shows to
    be its correctly rounded ten significant digits.  Each value is 16
    bytes: its separator ("\\n" before a row's D, "," before its R), "0.",
    the first digit, and three groups of four digits from _digit_words.  A
    group after which only zero groups follow is written with its trailing
    zeros as NUL bytes, and deleting the NULs strips the zeros as ``%g``
    does.  Every other row is one f-string, spliced in at a marker byte.
    """
    if not len(rates):
        return ""
    values = np.stack((distortions, rates), axis=1)
    fast = (values >= 1e-4) & (values < 1.0)
    v = np.where(fast, values, 0.5)  # keeps nan, inf and overflow out of the arithmetic
    decade = (v >= 0.001).astype(np.intp) + (v >= 0.01) + (v >= 0.1)
    scaled = v * _TEN_DIGITS[decade]
    digits = np.rint(scaled)
    fast &= (np.abs(scaled - digits) < 0.5 - 1e-5) & (digits < 1e10)
    slow = np.flatnonzero(~(fast[:, 0] & fast[:, 1]))

    fraction = digits * _FRACTION_SHIFT[decade]  # N, the 13 fractional digits
    lead = np.floor(fraction / 1e12)
    rest = fraction - lead * 1e12
    g1 = np.floor(rest / 1e8)
    rest -= g1 * 1e8
    g2 = np.floor(rest / 1e4)
    g1, g2, g3 = g1.astype(np.intp), g2.astype(np.intp), (rest - g2 * 1e4).astype(np.intp)

    table = _digit_words()
    words = np.empty((len(rates), 2, 4), "<u4")
    words[:, :, 0] = _LEAD_WORDS + (lead.astype(np.uint32) << 24)
    words[:, :, 3] = table[g3 + 10_000]
    last = g3 == 0
    words[:, :, 2] = table[g2 + 10_000 * last]
    last &= g2 == 0
    words[:, :, 1] = table[g1 + 10_000 * last]
    words[slow] = 0
    words[slow, 0, 0] = 1  # the marker byte "\x01"
    text = words.tobytes().translate(None, b"\0").decode("ascii")
    if slow.size:
        rows = [f"\n{d:.10g},{r:.10g}" for d, r in values[slow].tolist()] + [""]
        text = "".join(part + row for part, row in zip(text.split("\x01"), rows))
    return text[1:] + "\n"


def render_curve_csv(curve: BoundCurve) -> str:
    """CSV with a comment preamble; rows carry 10 significant digits.

    A row is ``f"{d:.10g},{r:.10g}"``, written byte for byte by
    ``_csv_rows``: values in [1e-4, 1) by numpy passes over the whole
    curve, all others by the f-string.  Such a value v in decade e
    (10^e <= v < 10^(e+1), -4 <= e <= -1) prints as "0." and 9 - e
    fractional digits, the last ten of them its significant ones, with
    trailing zeros dropped.  The fast path is exact:

    * e comes from comparing v with the doubles 0.001, 0.01 and 0.1 (and
      1e-4, the fast path's floor).  Each lies above its decimal and no
      double lies between, so each comparison is the exact one with
      10^-3, 10^-2 or 10^-1; log10 can be off by one next to a decade.
    * t = v 10^(9 - e) lies in [10^9, 10^10); 10^(9 - e) is an exact
      double, so t is rounded once, by at most half an ulp, 2^-20 <
      1.2e-6.  Where t is more than 1e-5 from every half-integer, the
      exact product lies on the same side of each, and rint(t) is the
      correctly rounded significand; a tie or a near one is left to the
      f-string.  So is a significand that rounds up to 10^10, whose
      decade is e + 1.
    * N = rint(t) 10^(e + 4) < 10^13 < 2^53 is an exact double, and so
      is each digit group's quotient floor(x / 10^k) of x < 10^13: the
      exact quotient lies at least 10^-k below the next integer, where
      doubles are spaced less than 10^-k / 400 apart, so it rounds
      below that integer.
    """
    head = " ".join([f"# bound={curve.kind}", *(f"{key}={value}" for key, value in curve.params)])
    lines = filter(None, [_FAMILIES[curve.kind].notice, head, *curve.notes, "D,R"])
    return "\n".join(lines) + "\n" + _csv_rows(curve.distortions, curve.rates)


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


def report_line(seed: int, report) -> str:
    return (
        f"seed={seed} m={report.num_checks} n={report.num_generators} "
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
    if args.d_grid_steps > _D_GRID_LIMIT:
        raise BudgetError(
            f"--d-grid-steps {args.d_grid_steps} exceeds the budget of {_D_GRID_LIMIT}"
        )
    if args.trials > _TRIALS_LIMIT:
        raise BudgetError(f"--trials {args.trials} exceeds the budget of {_TRIALS_LIMIT}")
    dist = _verify_distribution(args.degrees)

    lines = []
    failures = 0
    worst_optimal = None
    bound_value = None
    for trial in range(args.trials):
        seed = args.seed + trial
        code = sample_code(args.m, args.n, dist, seed)
        report = verify_code(code, args.d_grid_steps)
        bound_value = report.bound_distortion
        if worst_optimal is None or report.optimal_distortion < worst_optimal:
            worst_optimal = report.optimal_distortion
        if not report.passed:
            failures += 1
        lines.append(report_line(seed, report))
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
    n = code.num_generators
    lengths = [len(checks) for checks in code.generators]
    rows = _enumerator_rows(weight_enumerator(code), coefficient_lower_bound(lengths))
    # n = 0 keeps its own header: an empty degree list has no L(x)
    degrees = DegreeDistribution.from_degrees(lengths).to_literal() if n else "-"
    lines = [
        f"code: m={code.num_checks} n={n} degrees={degrees}",
        f"{'w':>3} {'A':>12} {'cumulative':>12} {'floor':>12} ok",
    ]
    # without generators the one index word is the w = 0 row
    for w, (count, cumulative, floor, ok) in enumerate(rows if n else rows[:1]):
        lines.append(f"{w:>3} {count:>12} {cumulative:>12} {floor:>12} {'yes' if ok else 'NO'}")
    _write_output("-", "\n".join(lines) + "\n")
    return 0 if all(ok for *_, ok in rows) else 1


# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parsers, built on the first ``main`` call and shared by every later
    one in the process: building them costs more than a small ``verify``."""
    return build_parser()


def _parse(argv: list[str]) -> tuple[str, argparse.Namespace]:
    """The command named by ``argv`` and its parsed arguments; see the
    module docstring for which parser reads them."""
    parser, commands = _parser()
    if argv and argv[0] in commands:
        args, extra = commands[argv[0]].parse_known_args(argv[1:])
        if not extra:
            return argv[0], args
    args = parser.parse_args(argv)
    return args.command, args


def main(argv=None) -> int:
    command, args = _parse(sys.argv[1:] if argv is None else list(argv))
    handlers = {"curve": cmd_curve, "verify": cmd_verify, "enum": cmd_enum}
    try:
        return handlers[command](args)
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
