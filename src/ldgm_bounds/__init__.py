"""Lower bounds on the rate-distortion performance of sparse generator codes.

The package splits into four layers:

* :mod:`ldgm_bounds.numerics`: entropy helpers and the root finder, for a
  float or a whole array of points.
* :mod:`ldgm_bounds.degree`: generator degree distributions.
* :mod:`ldgm_bounds.bounds`: the bound families themselves, plus curve
  sampling.
* :mod:`ldgm_bounds.exact`: exact weight enumeration and brute-force
  verification on concrete small codes.
"""

from .bounds import (
    BoundCurve,
    CURVE_KINDS,
    NoSolutionError,
    conjectured_exit_distortion_bound,
    conjectured_exit_rate_bound,
    counting_bound_distortion,
    parametric_endpoints,
    poisson_ensemble_distortion_bound,
    sample_curve,
    shannon_distortion,
    solve_x_for_rate,
    test_channel_distortion_bound,
)
from .degree import DegreeDistribution, TruncationError, parse_degree_literal
from .exact import (
    BLOCKLENGTH_LIMIT,
    BudgetError,
    CoverProfile,
    GENERATOR_LIMIT,
    LdgmCode,
    VerificationReport,
    WeightEnumerator,
    code_from_text,
    code_to_text,
    coefficient_lower_bound,
    distance_transform,
    read_code_file,
    sample_code,
    verify_code,
    weight_enumerator,
    write_code_file,
)
from .numerics import (
    BracketError,
    binary_entropy,
    bisect_monotone,
    inverse_binary_entropy,
    kl_bernoulli,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCKLENGTH_LIMIT",
    "BoundCurve",
    "BracketError",
    "BudgetError",
    "CURVE_KINDS",
    "CoverProfile",
    "DegreeDistribution",
    "GENERATOR_LIMIT",
    "LdgmCode",
    "NoSolutionError",
    "TruncationError",
    "VerificationReport",
    "WeightEnumerator",
    "binary_entropy",
    "bisect_monotone",
    "code_from_text",
    "code_to_text",
    "coefficient_lower_bound",
    "conjectured_exit_distortion_bound",
    "conjectured_exit_rate_bound",
    "counting_bound_distortion",
    "distance_transform",
    "inverse_binary_entropy",
    "kl_bernoulli",
    "parametric_endpoints",
    "parse_degree_literal",
    "poisson_ensemble_distortion_bound",
    "read_code_file",
    "sample_code",
    "sample_curve",
    "shannon_distortion",
    "solve_x_for_rate",
    "test_channel_distortion_bound",
    "verify_code",
    "weight_enumerator",
    "write_code_file",
]
