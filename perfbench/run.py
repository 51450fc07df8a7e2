#!/usr/bin/env python3
"""End-to-end benchmark of ldgm-bounds, with a traced run for per-layer figures.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 20 --trace 0

Each operation is one in-process call of ``ldgm_bounds.cli.main``, the
``ldgm-bounds`` entry point without interpreter start-up, timed from
outside.  After the timed part every output is checked against references
computed apart from the program.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  The exit status is 0 when every check passed, 1 when one
failed and 2 when the program cannot be found.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import math
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import types
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile keeps this many operations above it
TAIL_MIN_OPS = 40
PROBE_REFERENCE_S = 3.0e-4  # the speed probe on the reference host, unloaded


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> types.SimpleNamespace:
    """A fresh import of the package from ``src/`` of this checkout."""
    for name in [n for n in sys.modules if n == "ldgm_bounds" or n.startswith("ldgm_bounds.")]:
        del sys.modules[name]
    cli = importlib.import_module("ldgm_bounds.cli")
    if Path(cli.__file__).resolve().parent != SRC / "ldgm_bounds":
        raise ImportError(f"ldgm_bounds imported from {cli.__file__}, not from {SRC}")
    return types.SimpleNamespace(cli=cli, exact=importlib.import_module("ldgm_bounds.exact"))


def set_up(workload: str, seed: int, rounds: int, workdir: Path):
    """Import the program and build the inputs; returns (program, ops)."""
    program = import_program()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    rng = random.Random(f"{workload}/{seed}")
    return program, workloads.SETUPS[workload](program, rng, rounds, workdir)


def _speed_probe() -> float:
    """A fixed pure-Python loop of scalar float math, like the bound solvers."""
    total = 0.0
    for i in range(1, 1500):
        p = i / 1500.0
        total += -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)
    return total


class SpeedSampler:
    """Times the speed probe every 50 ms from a SIGALRM handler.

    The host's speed swings by up to 1.8x over stretches of a minute as
    other tenants load it.  Scaling an operation's time by the probe's
    reference time over its time during the operation reports the time
    at the reference speed.  The handler's own time is taken out of the
    operations it interrupted.
    """

    INTERVAL_S = 0.05
    NEAREST = 5  # probes used at least, for operations shorter than that

    def __init__(self):
        self.starts: list[float] = []
        self.lengths: list[float] = []

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        _speed_probe()
        self.starts.append(start)
        self.lengths.append(time.perf_counter() - start)

    def __enter__(self):
        for _ in range(20):  # let the interpreter specialise the loop first
            _speed_probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Net time of [start, end] at the reference probe speed."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_right(self.starts, end)
        net = end - start - sum(self.lengths[lo:hi])
        while hi - lo < self.NEAREST and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        probe = statistics.fmean(self.lengths[lo:hi])
        return net * PROBE_REFERENCE_S / probe


def run_ops(program, ops, tracer=None, sampler=None):
    """Call cli.main once per operation; returns (wall, times, results).

    With a sampler the times are scaled to the reference speed.
    """
    spans, results = [], []
    started = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = program.cli.main(op.argv)
        except (Exception, SystemExit) as exc:  # a crash counts as a failed operation
            rc = f"raised {exc!r}"
        spans.append((t0, time.perf_counter()))
        results.append((rc, out.getvalue(), err.getvalue()))
    wall = time.perf_counter() - started
    if sampler is None:
        return wall, [end - start for start, end in spans], results
    return wall, [sampler.scaled(start, end) for start, end in spans], results


def clear_program_caches() -> None:
    """Empty every functools cache in the package, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name.startswith("ldgm_bounds"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def check_all(ops, results, seed: int) -> tuple[list[str], list[str]]:
    """Failed operations, and the problems found in the outputs of the rest."""
    import checks  # numpy references, and mpmath on first use: after the timed part

    rng = random.Random(f"check/{seed}")
    failures, problems = [], []
    for index, (op, (rc, out, err)) in enumerate(zip(ops, results)):
        where = f"op {index} ({' '.join(op.argv)})"
        if not isinstance(rc, int) or rc == 2:
            failures.append(f"{where}: {rc} {err.strip()}")
            continue
        problems += [f"{where}: {problem}" for problem in checks.check_op(op, rc, out, rng)]
    return failures, problems


def tail_ms(times) -> float:
    """Highest percentile with TAIL_BEYOND operations above it.

    A run of fewer than TAIL_MIN_OPS operations has no tail; it reports its
    median, so that every run still carries every metric.
    """
    ordered = sorted(times)
    if len(ordered) < TAIL_MIN_OPS:
        return statistics.median(ordered) * 1e3
    return ordered[-1 - TAIL_BEYOND] * 1e3


def traced_run(program, ops, args):
    """One round traced, then the same round untraced, for the overhead."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_wall, _, results = run_ops(program, ops, tracer)
    finally:
        tracer.uninstall()
    tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
    clear_program_caches()
    wall, _, untraced = run_ops(program, ops)
    output_bytes = sum(len(out.encode()) for _, out, _ in results)
    same = [r[:2] for r in untraced] == [r[:2] for r in results]
    return tracer.metrics(output_bytes, traced_wall - wall), results, same


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ldgm_bounds" / "__init__.py").is_file():
        print(f"error: no ldgm_bounds package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    rounds = workloads.rounds_for(args.workload, args.seconds)
    workdir = OUT / f"{args.workload}-{args.seed}-inputs"

    sampler = contextlib.nullcontext() if args.trace else SpeedSampler()
    try:
        with sampler:
            setups = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                program, ops = set_up(args.workload, args.seed, rounds, workdir)
                setups.append((t0, time.perf_counter()))
            if args.trace:
                ops = ops[: len(ops) // rounds]  # the traced run covers one round
                metrics, results, same = traced_run(program, ops, args)
            else:
                raw_wall, times, results = run_ops(program, ops, sampler=sampler)
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:
            print(f"unscaled wall {raw_wall:.3f} s; speed probe median "
                  f"{statistics.median(sampler.lengths) * 1e3:.4f} ms, "
                  f"reference {PROBE_REFERENCE_S * 1e3:.4f} ms")
            metrics = {
                "setup_s": (statistics.median(sampler.scaled(*span) for span in setups), "s"),
                "wall_s": (sum(times), "s"),
                "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
                "op_tail_ms": (tail_ms(times), "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        failures, problems = check_all(ops, results, args.seed)
        if args.trace and not same:
            problems.append("traced and untraced outputs differ")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label, lines in (("FAILED", failures), ("CHECK FAILED", problems)):
        for line in lines[:20]:
            print(f"{label}: {line}")
        if len(lines) > 20:
            print(f"{label}: ... and {len(lines) - 20} more")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6f} {unit}")
    correct = not problems
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
