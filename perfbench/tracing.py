"""Span tracing of ldgm_bounds for the traced run (``--trace 1``) only.

Each traced function is replaced, in every ldgm_bounds namespace that
binds it, by a wrapper.  Functions that run a few times per operation get
one span each: name, start, end, parent span, operation id and self time.
Functions that run once per curve point or inside a solver loop (entropy,
degree transforms, per-point bounds) would give ~10^7 spans per round, so
their calls are folded into one row per function and enclosing span:
calls, total time, self time and degree terms.  Self time is a call's
duration minus the time of the traced calls made directly inside it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import defaultdict

# (home module, function); a span's name is "module.function", and the
# home module is its layer.
SPANNED = (
    ("cli", "main"),
    ("cli", "render_curve_csv"),
    ("cli", "report_line"),
    ("bounds", "sample_curve"),
    ("degree", "parse_degree_literal"),
    ("exact", "sample_code"),
    ("exact", "verify_code"),
    ("exact", "distance_transform"),
    ("exact", "weight_enumerator"),
    ("exact", "coefficient_lower_bound"),
    ("exact", "read_code_file"),
)
FOLDED = (
    ("numerics", "binary_entropy"),
    ("numerics", "inverse_binary_entropy"),
    ("numerics", "kl_bernoulli"),
    ("numerics", "bisect_monotone"),
    ("degree", "poisson_minimum_max_degree"),
    ("bounds", "shannon_distortion"),
    ("bounds", "counting_bound_distortion"),
    ("bounds", "test_channel_distortion_bound"),
    ("bounds", "poisson_ensemble_distortion_bound"),
    ("bounds", "conjectured_exit_distortion_bound"),
)
# DegreeDistribution methods, folded; the transforms also count degree terms.
TRANSFORMS = ("log2_weight_gf", "mean_occupancy")
# The function a bisection solves is the caller's code, not numerics.
CALLBACK = "callback.bisect_fn"

ENTROPY = ("numerics.binary_entropy", "numerics.inverse_binary_entropy", "numerics.kl_bernoulli")
POINT_BOUNDS = {
    "shannon": "bounds.shannon_distortion",
    "counting": "bounds.counting_bound_distortion",
    "test_channel": "bounds.test_channel_distortion_bound",
    "dwr": "bounds.poisson_ensemble_distortion_bound",
    "conjecture": "bounds.conjectured_exit_distortion_bound",
}


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name, start, end, parent, op, self]
        self.folds: dict = {}  # (name, parent span) -> [calls, total, self, terms]
        self.frames = [[0.0]]  # time of traced children, per open call
        self.owner = [-1]  # innermost open span
        self.op = -1
        self.words: dict = defaultdict(int)  # span name -> 2^m or 2^n words
        self.rss_rise: dict = defaultdict(float)
        self._undo: list = []

    def _id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    # -- wrappers ----------------------------------------------------------

    def span(self, fn, name: str, words=None, rss: bool = False):
        nid = self._id(name)
        spans, frames, owner, clock = self.spans, self.frames, self.owner, time.perf_counter

        def traced(*args, **kwargs):
            record = [nid, 0.0, 0.0, owner[-1], self.op, 0.0]
            spans.append(record)
            owner.append(len(spans) - 1)
            frame = [0.0]
            frames.append(frame)
            before = _max_rss_mb() if rss else 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                owner.pop()
                frames[-1][0] += end - start
                record[1], record[2], record[5] = start, end, end - start - frame[0]
                if rss:
                    self.rss_rise[nid] = max(self.rss_rise[nid], _max_rss_mb() - before)
                if words is not None:
                    self.words[nid] += words(*args)

        return traced

    def fold(self, fn, name: str, terms: bool = False):
        nid = self._id(name)
        folds, frames, owner, clock = self.folds, self.frames, self.owner, time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                frames.pop()
                frames[-1][0] += duration
                row = folds.get((nid, owner[-1]))
                if row is None:
                    row = folds[(nid, owner[-1])] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[0]
                if terms:
                    row[3] += len(args[0].entries)

        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "ldgm_bounds" or n.startswith("ldgm_bounds.")]
        home = {n.rpartition(".")[2]: m for n, m in sys.modules.items() if n.startswith("ldgm_bounds.")}
        code_words = {
            "exact.distance_transform": lambda code: 1 << code.num_checks,
            "exact.weight_enumerator": lambda code: 1 << code.num_generators,
        }
        for module, attr in SPANNED:
            name = f"{module}.{attr}"
            original = getattr(home[module], attr)
            wrapper = self.span(original, name, words=code_words.get(name), rss=name in code_words)
            self._rebind(modules, original, wrapper)
        for module, attr in FOLDED:
            name = f"{module}.{attr}"
            original = getattr(home[module], attr)
            if name == "numerics.bisect_monotone":
                callback = self.fold(lambda fn, *a: fn(*a), CALLBACK)

                def bisect(fn, *args, _solve=original, _callback=callback, **kwargs):
                    return _solve(lambda *a: _callback(fn, *a), *args, **kwargs)

                wrapper = self.fold(bisect, name)
            else:
                wrapper = self.fold(original, name)
            self._rebind(modules, original, wrapper)
        cls = home["degree"].DegreeDistribution
        for attr in TRANSFORMS:
            original = cls.__dict__[attr]
            setattr(cls, attr, self.fold(original, f"degree.{attr}", terms=True))
            self._undo.append((cls, attr, original))
        original = cls.__dict__["poisson_truncated"]
        setattr(cls, "poisson_truncated", classmethod(self.fold(original.__func__, "degree.poisson_truncated")))
        self._undo.append((cls, "poisson_truncated", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "names": self.names,
                    "span_fields": ["name", "start", "end", "parent", "op", "self"],
                    "spans": self.spans,
                    "fold_fields": ["name", "parent", "calls", "total", "self", "terms"],
                    "folded": [[n, p, *row] for (n, p), row in self.folds.items()],
                },
                handle,
            )

    def metrics(self, output_bytes: int, overhead_s: float) -> dict:
        """Per-layer metrics, as {name: (value, unit)}."""
        calls, terms = defaultdict(int), defaultdict(int)
        total, self_s = defaultdict(float), defaultdict(float)
        words = {self.names[nid]: count for nid, count in self.words.items()}
        rise = {self.names[nid]: mb for nid, mb in self.rss_rise.items()}
        for nid, start, end, _, _, own in self.spans:
            name = self.names[nid]
            calls[name] += 1
            total[name] += end - start
            self_s[name] += own
        for (nid, _), (count, duration, own, n_terms) in self.folds.items():
            name = self.names[nid]
            calls[name] += count
            total[name] += duration
            self_s[name] += own
            terms[name] += n_terms

        def layer_self(layer: str) -> float:
            return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

        def rate(name: str) -> float:
            return words.get(name, 0) / total[name] if total[name] else 0.0

        transforms = sum(calls[f"degree.{t}"] for t in TRANSFORMS)
        points = sum(calls[n] for n in POINT_BOUNDS.values())
        return {
            "numerics.entropy_calls": (sum(calls[n] for n in ENTROPY), "count"),
            "numerics.bisect_calls": (calls["numerics.bisect_monotone"], "count"),
            "numerics.self_s": (layer_self("numerics"), "s"),
            "degree.transform_calls": (transforms, "count"),
            "degree.transform_terms": (sum(terms[f"degree.{t}"] for t in TRANSFORMS), "count"),
            "degree.transform_s": (sum(total[f"degree.{t}"] for t in TRANSFORMS), "s"),
            "degree.poisson_builds": (calls["degree.poisson_truncated"], "count"),
            "degree.poisson_s": (total["degree.poisson_truncated"] + total["degree.poisson_minimum_max_degree"], "s"),
            "bounds.counting_calls": (calls[POINT_BOUNDS["counting"]], "count"),
            "bounds.counting_s": (total[POINT_BOUNDS["counting"]], "s"),
            "bounds.test_channel_s": (total[POINT_BOUNDS["test_channel"]], "s"),
            "bounds.shannon_s": (total[POINT_BOUNDS["shannon"]], "s"),
            "bounds.dwr_s": (total[POINT_BOUNDS["dwr"]], "s"),
            "bounds.conjecture_s": (total[POINT_BOUNDS["conjecture"]], "s"),
            "bounds.sample_curve_self_s": (self_s["bounds.sample_curve"], "s"),
            "bounds.transform_evals_per_point": (transforms / points if points else 0.0, "count/point"),
            "exact.distance_transform_s": (total["exact.distance_transform"], "s"),
            "exact.weight_enumerator_s": (total["exact.weight_enumerator"], "s"),
            "exact.source_words_per_s": (rate("exact.distance_transform"), "words/s"),
            "exact.index_words_per_s": (rate("exact.weight_enumerator"), "words/s"),
            "exact.distance_transform_rss_mb": (rise.get("exact.distance_transform", 0.0), "MB"),
            "exact.weight_enumerator_rss_mb": (rise.get("exact.weight_enumerator", 0.0), "MB"),
            "exact.sample_code_s": (total["exact.sample_code"], "s"),
            "exact.coefficient_floor_s": (total["exact.coefficient_lower_bound"], "s"),
            "exact.read_code_s": (total["exact.read_code_file"], "s"),
            "exact.verify_self_s": (self_s["exact.verify_code"], "s"),
            "cli.self_s": (self_s["cli.main"], "s"),
            "cli.render_s": (total["cli.render_curve_csv"] + total["cli.report_line"], "s"),
            "cli.output_bytes": (output_bytes, "bytes"),
            "trace.overhead_s": (overhead_s, "s"),
        }
