"""Generalized Poisson count model under the (a, b, c, k) parametrization.

The observed count X given a non-negative integer level k has pmf

    P(X = x | k) = lam1 (lam1 + x lam2)^(x-1) exp(-(lam1 + x lam2)) / x!

with lam1 = k b sqrt(m), lam2 = 1 - sqrt(m) and m = exp(a b + c); the
constants a, c are real and 0 < b < 1.  Mean and variance of X given k are
k b and k b / m.  At m = 1 the model is Poisson with mean k b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["ModelParams", "derive_params"]


@dataclass(frozen=True)
class ModelParams:
    """Validated model constants plus derived quantities.

    Build instances through :func:`derive_params`, which enforces
    0 < b < 1 and 0 < m < 4 (equivalently |lambda2| < 1).

    Attributes:
        m: exp(a*b + c), the dispersion scale.
        sqrt_m: square root of m.
        rate: b * sqrt(m), the exponential rate of the posterior weights.
        w: 1 + (1 - sqrt(m)) / rate; must be positive before posterior
            computations with x > 0.
    """

    a: float
    b: float
    c: float
    m: float
    sqrt_m: float
    rate: float
    w: float


def derive_params(a: float, b: float, c: float) -> ModelParams:
    """Validate (a, b, c) and populate all derived quantities."""
    for name, value in (("a", a), ("b", b), ("c", c)):
        if not math.isfinite(value):
            raise DomainError(f"parameter {name} must be finite, got {value!r}")
    if not 0.0 < b < 1.0:
        raise DomainError(f"b must lie in the open interval (0, 1), got b={b}")
    try:
        m = math.exp(a * b + c)
    except OverflowError:
        m = math.inf
    if not 0.0 < m < 4.0:
        raise DomainError(
            f"m = exp(a*b + c) = {m} violates the dispersion constraint "
            f"|lambda2| = |1 - sqrt(m)| < 1 (requires 0 < m < 4)"
        )
    sqrt_m = math.sqrt(m)
    rate = b * sqrt_m
    return ModelParams(
        a=float(a),
        b=float(b),
        c=float(c),
        m=m,
        sqrt_m=sqrt_m,
        rate=rate,
        w=1.0 + (1.0 - sqrt_m) / rate,
    )

