"""Exact Bayesian posterior of the Generalized Poisson count level k and
its gamma approximations.

The package splits into a scalar special-function kernel (:mod:`~gpgamma.special`),
the count model (:mod:`~gpgamma.model`), the exact posterior engine
(:mod:`~gpgamma.posterior`), the gamma approximations
(:mod:`~gpgamma.approximation`) and the comparison layer with its check of
the normalizer's Lerch form (:mod:`~gpgamma.validation`).  A CLI front end
lives in :mod:`~gpgamma.cli`.
"""

from .approximation import (
    KINDS,
    DiscretePmf,
    GammaApprox,
    InequalityResult,
    build_gamma,
    discretize_gamma,
    inequality_check,
    moment_matched_gamma,
    theorem1_gamma,
)
from .errors import (
    DomainError,
    NumericError,
    PrecisionError,
)
from .model import ModelParams, derive_params
from .posterior import (
    PosteriorTable,
    exact_posterior,
    posterior_moments,
)
from .validation import (
    ComparisonReport,
    SweepResult,
    compare,
    compare_kinds,
    denominator_lerch,
    full_support_tv,
    sweep,
    verify_lerch_denominator,
)

__version__ = "0.1.0"

__all__ = [
    "KINDS",
    "ComparisonReport",
    "DiscretePmf",
    "DomainError",
    "GammaApprox",
    "InequalityResult",
    "ModelParams",
    "NumericError",
    "PosteriorTable",
    "PrecisionError",
    "SweepResult",
    "build_gamma",
    "compare",
    "compare_kinds",
    "denominator_lerch",
    "derive_params",
    "discretize_gamma",
    "exact_posterior",
    "full_support_tv",
    "inequality_check",
    "moment_matched_gamma",
    "posterior_moments",
    "sweep",
    "theorem1_gamma",
    "verify_lerch_denominator",
]
