"""Means of probability measures on the cone of SPD matrices.

A numpy library for generalized operator means: induced means at a
parameter t in (0, 1], their t -> 0 net limit (the generalized Karcher
mean), matrix power means, the Thompson part metric with explicit
contraction factors, operator monotone kernel families with representing
measures on [0, 1], log-determinant divergences and a damped Riemannian
Newton minimizer that independently cross-checks the fixed-point route.
"""

from .core import (
    congruence,
    geometric_mean,
    loewner_leq,
    matrix_from_json,
    matrix_to_json,
    spd_matrix,
    weighted_arith,
    weighted_harm,
)
from .divergence import (
    logdet_divergence,
    minimize_divergence,
    objective,
    riemannian_gradient,
)
from .errors import (
    DomainError,
    EmptyInput,
    Incomparable,
    MeasureError,
    MonotonicityViolation,
    NonConvergence,
    NotPositiveDefinite,
    NumericalFailure,
    ShapeError,
    SingularTransform,
    SpdMeansError,
)
from .measures import (
    PMeasure,
    congruence_measure,
    measure_leq,
    pmeasure_from_json,
    product_measure,
)
from .monotone import SMeasure, eval_mean, eval_monotone
from .solver import (
    SolverConfig,
    SolverReport,
    induced_mean,
    iteration_map,
    karcher_residual,
    lambda_mean,
    power_mean,
    sandwich_check,
)
from .thompson import (
    contraction_factor_affine,
    contraction_factor_mean,
    contraction_factor_uniform,
    distance,
    min_scaling,
)

__version__ = "0.1.0"

__all__ = [
    "congruence", "geometric_mean", "loewner_leq", "matrix_from_json", "matrix_to_json",
    "spd_matrix", "weighted_arith", "weighted_harm",
    "logdet_divergence", "minimize_divergence", "objective", "riemannian_gradient",
    "DomainError", "EmptyInput", "Incomparable", "MeasureError",
    "MonotonicityViolation", "NonConvergence", "NotPositiveDefinite",
    "NumericalFailure", "ShapeError", "SingularTransform", "SpdMeansError",
    "PMeasure", "congruence_measure", "measure_leq", "pmeasure_from_json",
    "product_measure",
    "SMeasure", "eval_mean", "eval_monotone",
    "SolverConfig", "SolverReport", "induced_mean", "iteration_map",
    "karcher_residual", "lambda_mean", "power_mean", "sandwich_check",
    "contraction_factor_affine", "contraction_factor_mean",
    "contraction_factor_uniform", "distance", "min_scaling",
]
