"""Generator-node degree distributions.

A distribution assigns to each generator degree i the fraction L_i of
generators having that degree.  Two transforms of it drive all the rate
bounds:

* ``log2_weight_gf(x)``: log2 of prod_i (1 + x^i)^{L_i}, the normalized
  generating function whose n-th power enumerates generator subsets by
  their total degree.
* ``mean_occupancy(x)``: sum_i i * L_i * x^i / (1 + x^i), equal to
  x * d/dx ln(weight gf); strictly increasing in x.

Both take a float or an array of x.  ``weight_transforms`` computes the
pair from (degrees, fractions) directly, one degree at a time for a fixed
profile, and also takes one fractions row per x, broadcast over a degree
axis: that is how a Poisson curve, whose member changes with the rate,
is evaluated, from the zero-padded pmf matrix of ``poisson_rows``.  The
same pass gives the arc solve's slope its spread sum_i i^2 L_i p_i (1 - p_i).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import check_range, math_of, pick

__all__ = [
    "DEGREE_LIMIT",
    "DegreeDistribution",
    "TruncationError",
    "parse_degree_literal",
    "poisson_minimum_max_degree",
    "poisson_rows",
    "weight_transforms",
]

_MASS_TOL = 1e-12
_POISSON_TAIL_LIMIT = 1e-10
# The largest truncation degree a Poisson member may need.
_POISSON_MAX_DEGREE = 10_000
# The largest degree taken: a float holds every integer up to it, so a
# degree's products and squares with floats stay finite.
DEGREE_LIMIT = 2**53


class TruncationError(ValueError):
    """A truncated family left out more probability mass than allowed."""


def _check_degree(name: str, degree, limit: int = DEGREE_LIMIT) -> None:
    """Raise ValueError unless 1 <= degree <= limit, before any arithmetic on it."""
    if not 1 <= degree <= limit:
        raise ValueError(f"{name} must be in [1, {limit}], got {degree!r}")


def _poisson_pmf(lam, width: int):
    """Poisson(lam) masses at degrees 0..width-1, one row per mean.

    Computed in log space, so exp(-lam) never underflows.
    """
    log_factorial = np.array([math.lgamma(i + 1) for i in range(width)])
    lam = np.asarray(lam, dtype=float)[..., None]
    return np.exp(np.arange(width) * np.log(lam) - lam - log_factorial)


def _terms(degree, fraction, power, xp):
    """Terms of ln gf (log1p keeps a small power's digits), the occupancy and its spread."""
    occupancy = degree * fraction * power / (rise := 1.0 + power)
    return fraction * xp.log1p(power), occupancy, degree * occupancy / rise


def weight_transforms(degrees, fractions, x):
    """log2 of prod_i (1 + x^i)^{L_i} and sum_i i L_i x^i / (1 + x^i), for 0 <= x <= 1."""
    return _weight_sums(degrees, fractions, x)[:2]


def _weight_sums(degrees, fractions, x):
    """``weight_transforms``'s pair and the spread sum_i i^2 L_i p_i (1 - p_i), p_i = x^i/(1 + x^i).

    ``fractions`` is one profile over ``degrees``, or an (n, k) array
    holding one profile per entry of an array ``x``, zero-padded.  One
    profile sums its few terms in a loop, a degree at a time, for a float
    x and an array alike; per-row profiles broadcast x over a trailing
    degree axis.
    """
    if getattr(fractions, "ndim", 1) == 2:  # np.ndim would copy a tuple into an array
        x, degrees = x[..., None], np.asarray(degrees)
        # numpy's pow is slow where it underflows; powers below 1e-300 add nothing, and stay 0
        kept = (x >= 1e-300 ** (1.0 / np.maximum(degrees, 1))) | (degrees == 0)
        power = np.power(x, degrees, out=np.zeros(kept.shape), where=kept)
        log_gf, occupancy, spread = (term.sum(axis=-1) for term in _terms(degrees, fractions, power, np))
        return log_gf / math.log(2.0), occupancy, spread
    xp, log_gf, occupancy, spread = math_of(x), 0.0, 0.0, 0.0
    for degree, fraction in zip(degrees, fractions):
        term_gf, term_occupancy, term_spread = _terms(degree, fraction, x**degree, xp)
        log_gf, occupancy, spread = log_gf + term_gf, occupancy + term_occupancy, spread + term_spread
    return log_gf / math.log(2.0), occupancy, spread


def poisson_rows(check_degree: int, rates) -> tuple[np.ndarray, np.ndarray]:
    """Degrees and one truncated Poisson(check_degree/R) profile per rate.

    Row i is cut at the smallest degree >= 1 where its tail mass, 1 minus
    the running sum of the pmf, falls below 1e-10, zero-padded past it,
    and renormalised by the ``math.fsum`` of its kept masses, as
    ``DegreeDistribution.poisson_truncated`` does.  The pmf is built out to
    lam + 12 sqrt(lam) + 40, past which the tail of any Poisson law is
    below 1e-11 (Bernstein: P(X >= lam + t) <= exp(-t^2 / (2 lam + 2t/3))).
    """
    _check_degree("check degree", check_degree)
    rates = np.asarray(rates, dtype=float)
    check_range("poisson rate", rates, math.ulp(0.0), 1.0)
    lam = check_degree / rates
    top = float(lam.max())
    pmf = _poisson_pmf(lam, min(int(top + 12.0 * math.sqrt(top)) + 40, _POISSON_MAX_DEGREE + 1))
    heavy = 1.0 - np.cumsum(pmf, axis=-1) >= _POISSON_TAIL_LIMIT
    if heavy[:, -1].any():
        raise TruncationError(f"tail mass never fell below limit for mean {top!r}")
    cuts = np.maximum(heavy.argmin(axis=-1), 1)
    degrees = np.arange(int(cuts.max()) + 1)
    pmf = np.where(degrees <= cuts[:, None], pmf[:, : degrees.size], 0.0)
    kept = np.array([math.fsum(row) for row in pmf.tolist()])
    return degrees, pmf / kept[:, None]


@dataclass(frozen=True)
class DegreeDistribution:
    """Fractions of generator nodes per degree, as ((degree, fraction), ...).

    Entries are sorted by degree, degrees are distinct and non-negative,
    fractions are non-negative and sum to 1 within 1e-12.  Degree-0 entries
    are legal; they arise in truncated Poisson families.
    """

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("empty degree distribution")
        prev = -1
        total = 0.0
        for degree, fraction in self.entries:
            if not isinstance(degree, int) or not 0 <= degree <= DEGREE_LIMIT:
                raise ValueError(f"bad degree: {degree!r}, not an integer in [0, {DEGREE_LIMIT}]")
            if degree <= prev:
                raise ValueError("degrees must be distinct and ascending")
            if not fraction >= 0.0:  # written so that NaN fails it too
                raise ValueError(f"fraction for degree {degree} must be >= 0, got {fraction!r}")
            prev = degree
            total += fraction
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"fractions sum to {total!r}, expected 1")

    @classmethod
    def regular(cls, degree: int) -> "DegreeDistribution":
        """All generators share one degree (at least 1)."""
        _check_degree("regular degree", degree)
        return cls(((degree, 1.0),))

    @classmethod
    def from_fractions(cls, fractions: dict[int, float]) -> "DegreeDistribution":
        return cls(tuple(sorted(fractions.items())))

    @classmethod
    def from_degrees(cls, degrees: "list[int] | tuple[int, ...]") -> "DegreeDistribution":
        """Realized distribution of an explicit degree list (fractions k/n)."""
        if not degrees:
            raise ValueError("empty degree list")
        counts: dict[int, int] = {}
        for d in degrees:
            counts[d] = counts.get(d, 0) + 1
        n = len(degrees)
        return cls(tuple((d, counts[d] / n) for d in sorted(counts)))

    @classmethod
    def poisson_truncated(
        cls, check_degree: float, rate: float, max_degree: int
    ) -> "DegreeDistribution":
        """Poisson(mean check_degree/rate) truncated at max_degree, renormalized.

        This is the generator-degree law of a large random code whose check
        nodes all have degree ``check_degree``.  The truncation must leave
        out less than 1e-10 of the mass, otherwise :class:`TruncationError`
        is raised.
        """
        _check_degree("check degree", check_degree)
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate out of range: {rate!r}")
        if max_degree < 1:
            raise ValueError(f"max degree must be >= 1, got {max_degree!r}")
        lam = check_degree / rate
        pmf = _poisson_pmf(lam, max_degree + 1).tolist()
        kept = math.fsum(pmf)
        tail = 1.0 - kept
        if tail >= _POISSON_TAIL_LIMIT:
            raise TruncationError(
                f"truncation at degree {max_degree} leaves tail mass {tail:.3e} "
                f">= {_POISSON_TAIL_LIMIT:.0e} for mean {lam:.6g}"
            )
        return cls(tuple((i, p / kept) for i, p in enumerate(pmf)))

    # -- moments ---------------------------------------------------------

    def moment(self, k: int) -> float:
        return math.fsum(fraction * degree**k for degree, fraction in self.entries)

    @functools.cached_property
    def average_degree(self) -> float:
        return self.moment(1)

    @functools.cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(degree for degree, _ in self.entries)

    @functools.cached_property
    def fractions(self) -> tuple[float, ...]:
        return tuple(fraction for _, fraction in self.entries)

    # -- transforms ------------------------------------------------------

    def log2_weight_gf(self, x):
        """log2 of prod_i (1 + x^i)^{L_i}, stable for any x >= 0.

        Equals 0 at x = 0 when there is no degree-0 mass, and exactly
        sum_i L_i = 1 at x = 1.
        """
        return self._transforms(x)[0]

    def mean_occupancy(self, x):
        """sum_i i * L_i * x^i / (1 + x^i); increasing from 0 toward the mean."""
        return self._transforms(x)[1]

    def _transforms(self, x):
        """Both transforms at any x >= 0.

        Past x = 1 they come from 1/x, where no power overflows:
        log2 gf(x) = M1 log2 x + log2 gf(1/x) and
        occupancy(x) = M1 - occupancy(1/x), M1 the average degree.
        """
        check_range("argument", x, 0.0, math.inf)
        xp = math_of(x)
        scale = xp.maximum(x, 1.0)  # x / scale / scale is x up to 1, then 1/x
        log_gf, occupancy = weight_transforms(self.degrees, self.fractions, x / scale / scale)
        mean = self.average_degree
        return log_gf + mean * xp.log2(scale), pick(x > 1.0, mean - occupancy, occupancy)

    # -- formatting ------------------------------------------------------

    def to_literal(self) -> str:
        return ",".join(f"{degree}:{fraction:.10g}" for degree, fraction in self.entries)


def parse_degree_literal(text: str) -> DegreeDistribution:
    """Parse a "degree:fraction,degree:fraction" literal."""
    fractions: dict[int, float] = {}
    for part in text.split(","):
        piece = part.strip()
        if not piece:
            raise ValueError(f"empty entry in degree literal: {text!r}")
        head, sep, tail = piece.partition(":")
        if not sep:
            raise ValueError(f"missing ':' in degree entry: {piece!r}")
        try:
            degree = int(head)
            fraction = float(tail)
        except ValueError as exc:
            raise ValueError(f"bad degree entry {piece!r}") from exc
        if degree in fractions:
            raise ValueError(f"duplicate degree {degree} in {text!r}")
        fractions[degree] = fraction
    return DegreeDistribution.from_fractions(fractions)


def poisson_minimum_max_degree(check_degree: int, rate: float) -> int:
    """Smallest truncation degree admissible for a Poisson family.

    The first degree >= 1 where the left-out tail mass drops below 1e-10.
    """
    return len(poisson_rows(check_degree, [rate])[0]) - 1
