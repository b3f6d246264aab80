"""Gamma approximations to the exact posterior, and the validity diagnostic.

Two constructions of the approximating gamma: the closed-form pair
(shape x+1, scale 1/rate), tagged ``theorem1``, and the pair matched to the
exact posterior moments, tagged ``moment_matched``.  Either is turned into
a pmf on integers by integrating the density over half-integer windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .model import ModelParams
from .posterior import PosteriorTable, posterior_moments
from .special import log_gamma, reg_lower_inc_gamma

__all__ = [
    "KINDS",
    "DiscretePmf",
    "GammaApprox",
    "InequalityResult",
    "build_gamma",
    "discretize_gamma",
    "inequality_check",
    "moment_matched_gamma",
    "theorem1_gamma",
]

KINDS = ("theorem1", "moment_matched")


@dataclass(frozen=True)
class GammaApprox:
    """Gamma shape/scale pair tagged by how it was constructed."""

    shape: float
    scale: float
    kind: str

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale**2


@dataclass(frozen=True)
class DiscretePmf:
    """Pmf over the integer window k_min .. k_min + len(probs) - 1.

    ``raw_total`` is the window mass before any renormalization; when
    ``renormalized`` is true the stored probs sum to one over the window.
    """

    k_min: int
    probs: np.ndarray
    renormalized: bool
    raw_total: float
    kind: str | None = None


class InequalityResult(NamedTuple):
    holds: bool
    lhs: float
    rhs: float


def theorem1_gamma(params: ModelParams, x: int) -> GammaApprox:
    """Closed-form approximation: shape x + 1, scale 1/(b*sqrt(m)).

    Mean (x+1)/(b*sqrt(m)) and variance (x+1)/(b^2 m); accurate in the
    small-rate regime.
    """
    if x < 0:
        raise DomainError(f"x must be a non-negative integer, got x={x}")
    return GammaApprox(shape=float(x + 1), scale=1.0 / params.rate, kind="theorem1")


def moment_matched_gamma(mu_post: float, var_post: float) -> GammaApprox:
    """Gamma whose continuous mean and variance equal the given posterior moments.

    shape = mu^2 / var and scale = var / mu, so shape*scale = mu and
    shape*scale^2 = var exactly.
    """
    if not (math.isfinite(mu_post) and mu_post > 0.0):
        raise DomainError(f"mu_post must be finite and positive, got {mu_post!r}")
    if not (math.isfinite(var_post) and var_post > 0.0):
        raise DomainError(f"var_post must be finite and positive, got {var_post!r}")
    return GammaApprox(
        shape=mu_post * mu_post / var_post,
        scale=var_post / mu_post,
        kind="moment_matched",
    )


def build_gamma(kind: str, table: PosteriorTable) -> GammaApprox:
    """The gamma approximation of the given kind (one of ``KINDS``) to ``table``.

    ``moment_matched`` takes the table's moments and so shares their refusal
    (PrecisionError) of a table truncated more loosely than 1e-6.
    """
    if kind == "theorem1":
        return theorem1_gamma(table.params, table.x)
    if kind == "moment_matched":
        return moment_matched_gamma(*posterior_moments(table))
    raise DomainError(f"unknown gamma kind {kind!r}; expected one of {KINDS}")


def discretize_gamma(
    g: GammaApprox, k_min: int, k_max: int, renormalize: bool
) -> DiscretePmf:
    """Integrate the gamma density over half-integer windows [k-1/2, k+1/2].

    probs[k] = P(shape, (k+1/2)/scale) - P(shape, (k-1/2)/scale), with the
    k = 0 window clipped to start at 0 (the density has no mass below 0).
    With ``renormalize`` the window probabilities are rescaled to sum to one.
    """
    if k_min < 0:
        raise DomainError(f"k_min must be >= 0, got {k_min}")
    if k_max < k_min:
        raise DomainError(f"k_max must be >= k_min, got k_min={k_min}, k_max={k_max}")
    # Consecutive windows share edges: one CDF evaluation per edge.
    lo_edge = max(k_min - 0.5, 0.0)
    cdf = [reg_lower_inc_gamma(g.shape, lo_edge / g.scale)]
    cdf.extend(
        reg_lower_inc_gamma(g.shape, (k + 0.5) / g.scale)
        for k in range(k_min, k_max + 1)
    )
    probs = np.maximum(np.diff(np.asarray(cdf)), 0.0)
    raw_total = float(probs.sum())
    if renormalize:
        if raw_total <= 0.0:
            raise DomainError(
                f"window k={k_min}..{k_max} carries no gamma mass; cannot renormalize"
            )
        probs = probs / raw_total
    return DiscretePmf(
        k_min=k_min,
        probs=probs,
        renormalized=renormalize,
        raw_total=raw_total,
        kind=g.kind,
    )


def inequality_check(
    params: ModelParams, x: int, epsilon: float = 0.01
) -> InequalityResult:
    """Validity diagnostic for the closed-form gamma approximation.

    Checks whether

        int[(1 - sqrt(m) + b*sqrt(m)) * x]  <  exp{(ln x! + ln eps)/(x + 1)}

    where int[.] is the integer part (truncation towards zero).  The left
    side bounds the power-sum correction the approximation drops; the
    smaller epsilon is chosen, the stricter the diagnostic.
    """
    if x < 1:
        raise DomainError(f"the diagnostic needs x >= 1, got x={x}")
    if not epsilon > 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    lhs = float(math.trunc((1.0 - params.sqrt_m + params.rate) * x))
    rhs = math.exp((log_gamma(x + 1.0) + math.log(epsilon)) / (x + 1.0))
    return InequalityResult(holds=lhs < rhs, lhs=lhs, rhs=rhs)
