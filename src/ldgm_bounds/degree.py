"""Generator-node degree distributions.

A distribution assigns to each generator degree i the fraction L_i of
generators having that degree.  Two transforms of it drive all the rate
bounds:

* ``log2_weight_gf(x)``: log2 of prod_i (1 + x^i)^{L_i}, the normalized
  generating function whose n-th power enumerates generator subsets by
  their total degree.
* ``mean_occupancy(x)``: sum_i i * L_i * x^i / (1 + x^i), equal to
  x * d/dx ln(weight gf); strictly increasing in x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DegreeDistribution",
    "TruncationError",
    "parse_degree_literal",
    "poisson_minimum_max_degree",
]

_MASS_TOL = 1e-12
_POISSON_TAIL_LIMIT = 1e-10


def _poisson_pmf(lam: float, i: int) -> float:
    """Poisson(lam) mass at i, in log space so exp(-lam) never underflows."""
    return math.exp(i * math.log(lam) - lam - math.lgamma(i + 1))


class TruncationError(ValueError):
    """A truncated family left out more probability mass than allowed."""


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
            if not isinstance(degree, int) or degree < 0:
                raise ValueError(f"bad degree: {degree!r}")
            if degree <= prev:
                raise ValueError("degrees must be distinct and ascending")
            if fraction < 0.0:
                raise ValueError(f"negative fraction for degree {degree}: {fraction!r}")
            prev = degree
            total += fraction
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"fractions sum to {total!r}, expected 1")

    @classmethod
    def regular(cls, degree: int) -> "DegreeDistribution":
        """All generators share one degree (at least 1)."""
        if degree < 1:
            raise ValueError(f"regular degree must be >= 1, got {degree!r}")
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
        if check_degree < 1:
            raise ValueError(f"check degree must be >= 1, got {check_degree!r}")
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate out of range: {rate!r}")
        if max_degree < 1:
            raise ValueError(f"max degree must be >= 1, got {max_degree!r}")
        lam = check_degree / rate
        pmf = [_poisson_pmf(lam, i) for i in range(max_degree + 1)]
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

    @property
    def average_degree(self) -> float:
        return self.moment(1)

    @property
    def max_degree(self) -> int:
        return self.entries[-1][0]

    # -- transforms ------------------------------------------------------

    def log2_weight_gf(self, x: float) -> float:
        """log2 of prod_i (1 + x^i)^{L_i}, stable for any x >= 0.

        Equals 0 at x = 0 when there is no degree-0 mass, and exactly
        sum_i L_i = 1 at x = 1.
        """
        if x < 0.0:
            raise ValueError(f"argument must be >= 0, got {x!r}")
        total = 0.0
        for degree, fraction in self.entries:
            if fraction == 0.0:
                continue
            if degree == 0:
                total += fraction  # log2(1 + x^0) = 1
            elif x <= 1.0:
                total += fraction * math.log2(1.0 + x**degree)
            else:
                # factor x^i out so the power never overflows
                total += fraction * (
                    degree * math.log2(x) + math.log2(1.0 + x**-degree)
                )
        return total

    def mean_occupancy(self, x: float) -> float:
        """sum_i i * L_i * x^i / (1 + x^i); increasing from 0 toward the mean."""
        if x < 0.0:
            raise ValueError(f"argument must be >= 0, got {x!r}")
        total = 0.0
        for degree, fraction in self.entries:
            if degree == 0 or fraction == 0.0:
                continue
            if x <= 1.0:
                p = x**degree
                total += degree * fraction * p / (1.0 + p)
            else:
                total += degree * fraction / (1.0 + x**-degree)
        return total

    # -- formatting ------------------------------------------------------

    def to_literal(self) -> str:
        return ",".join(f"{degree}:{fraction:.10g}" for degree, fraction in self.entries)

    def __str__(self) -> str:
        return self.to_literal()


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

    Scans upward until the left-out tail mass drops below 1e-10.
    """
    if check_degree < 1:
        raise ValueError(f"check degree must be >= 1, got {check_degree!r}")
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate out of range: {rate!r}")
    lam = check_degree / rate
    kept = _poisson_pmf(lam, 0)
    degree = 0
    while 1.0 - kept >= _POISSON_TAIL_LIMIT:
        degree += 1
        kept += _poisson_pmf(lam, degree)
        if degree > 10_000:  # unreachable for sane means; guards infinite loops
            raise TruncationError(f"tail mass never fell below limit for mean {lam!r}")
    return max(degree, 1)
