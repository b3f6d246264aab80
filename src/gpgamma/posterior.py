"""Exact posterior over the integer level k given one observed count.

Under a flat (improper uniform) prior on k the posterior mass at k >= x is
proportional to the likelihood, whose log-weight is

    log k + (x - 1) log(k + g) - rate * k,      g = (lambda2 / rate) * x.

For x = 0 the likelihood collapses to exp(-rate * k) on k >= 0, a geometric
distribution.  The infinite normalizer is truncated under a rigorous
geometric tail bound and accumulated with streaming log-sum-exp, so tables
for large x never leave log space until the final normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, PrecisionError
from .model import ModelParams
from .special import lerch_phi

__all__ = [
    "PosteriorTable",
    "denominator_lerch",
    "exact_posterior",
    "posterior_moments",
    "window_moments",
]

_MAX_TERMS = 10**7
_MOMENT_TAIL_CAP = 1e-6


@dataclass(frozen=True)
class PosteriorTable:
    """Truncated, normalized posterior pmf of k given X = x.

    ``probs[i]`` is the posterior probability of k = k_min + i; the support
    runs k_min .. k_max with k_min = x.  ``tail_bound`` is a rigorous upper
    bound on the relative mass beyond k_max that the truncation discarded.
    Completed tables are immutable and safe to share across threads.
    """

    params: ModelParams
    x: int
    k_min: int
    k_max: int
    log_weights: np.ndarray
    probs: np.ndarray
    tail_bound: float
    log_normalizer: float

    @property
    def support(self) -> np.ndarray:
        """Integer support k_min .. k_max as an array."""
        return np.arange(self.k_min, self.k_max + 1)


def _log_weight_fn(params: ModelParams, x: int):
    rate = params.rate
    if x == 0:
        return lambda k: -rate * k
    g = (params.w - 1.0) * x

    def lw(k: int) -> float:
        return math.log(k) + (x - 1) * math.log(k + g) - rate * k

    return lw


def exact_posterior(
    params: ModelParams, x: int, eps_tail: float = 1e-10
) -> PosteriorTable:
    """Posterior table of k given X = x, truncated to relative tail eps_tail.

    The truncation rule: past j0 = max(x, ceil(2(x-1)/rate), ceil(2|g|)) the
    term ratio t_{k+1}/t_k decreases monotonically, so once the observed
    ratio is below r = exp(-rate/2) the remaining mass is bounded by
    t_k * r / (1 - r).  Summation extends until that bound, relative to the
    partial sum, drops below ``eps_tail``.  Probabilities are normalized
    over the truncated support.

    Raises:
        DomainError: for invalid x or eps_tail, or when x > 0 and w <= 0
            (the weights would hit non-positive bases on the support).
        NumericError: if the term cap is exhausted before the tail bound
            clears eps_tail.
    """
    if x < 0:
        raise DomainError(f"x must be a non-negative integer, got x={x}")
    if not 0.0 < eps_tail <= 1e-3:
        raise DomainError(f"eps_tail must lie in (0, 1e-3], got {eps_tail!r}")
    if x > 0 and params.w <= 0.0:
        raise DomainError(
            f"posterior with x > 0 requires w = 1 + lambda2/rate > 0, got w={params.w}"
        )

    rate = params.rate
    lw = _log_weight_fn(params, x)
    if x == 0:
        j0 = 0
    else:
        g = (params.w - 1.0) * x
        j0 = max(x, math.ceil(2 * (x - 1) / rate), math.ceil(2 * abs(g)))

    log_ratio_cap = -0.5 * rate
    r = math.exp(log_ratio_cap)
    log_tail_factor = math.log(r / (1.0 - r))
    log_eps = math.log(eps_tail)

    log_weights: list[float] = []
    running_max = -math.inf
    scaled_sum = 0.0  # sum of exp(lw - running_max)
    prev = None
    tail_bound = math.inf
    k = x
    while True:
        v = lw(k)
        log_weights.append(v)
        if v > running_max:
            scaled_sum = scaled_sum * math.exp(running_max - v) + 1.0
            running_max = v
        else:
            scaled_sum += math.exp(v - running_max)
        if k > j0 and prev is not None and v - prev <= log_ratio_cap:
            log_bound = v + log_tail_factor
            log_partial = running_max + math.log(scaled_sum)
            if log_bound - log_partial < log_eps:
                tail_bound = math.exp(log_bound - log_partial)
                break
        prev = v
        k += 1
        if k - x >= _MAX_TERMS:
            achieved = math.exp(
                v + log_tail_factor - running_max - math.log(scaled_sum)
            )
            raise NumericError(
                f"posterior truncation cap of {_MAX_TERMS} terms reached at "
                f"x={x}, eps_tail={eps_tail}; achieved tail bound {achieved:.3e}"
            )

    lws = np.asarray(log_weights)
    log_normalizer = running_max + math.log(scaled_sum)
    probs = np.exp(lws - log_normalizer)
    return PosteriorTable(
        params=params,
        x=x,
        k_min=x,
        k_max=k,
        log_weights=lws,
        probs=probs,
        tail_bound=tail_bound,
        log_normalizer=log_normalizer,
    )


def posterior_moments(table: PosteriorTable) -> tuple[float, float]:
    """Mean and variance of the normalized truncated posterior pmf.

    Refuses tables truncated more loosely than a relative tail of 1e-6:
    moments of a heavier-truncated table silently understate the spread.
    """
    if table.tail_bound > _MOMENT_TAIL_CAP:
        raise PrecisionError(
            f"tail bound {table.tail_bound:.3e} exceeds {_MOMENT_TAIL_CAP:.0e}; "
            f"recompute the table with a smaller eps_tail before taking moments"
        )
    return window_moments(table.k_min, table.probs)


def window_moments(k_min: int, probs: np.ndarray) -> tuple[float, float]:
    """Mean and variance of a pmf over k = k_min .. k_min + len(probs) - 1."""
    # elementwise multiply-and-sum, not np.dot: threaded BLAS costs ms per call
    ks = np.arange(k_min, k_min + len(probs))
    mu = float((ks * probs).sum())
    return mu, float((probs * (ks - mu) ** 2).sum())


def denominator_lerch(params: ModelParams, x: int, eps: float = 1e-12) -> float:
    """Posterior normalizer for x >= 1 in its Lerch-transcendent form.

    Evaluates

        e^(-rate*x) * [Phi(z, -x, w*x) - (w-1)*x * Phi(z, -(x-1), w*x)]

    with z = e^(-rate), which equals the direct series
    sum_{j>=x} j (j+g)^(x-1) e^(-rate*j) up to the summation tolerance
    ``eps`` of each Lerch evaluation.
    """
    if x < 1:
        raise DomainError(f"the Lerch form needs x >= 1, got x={x}")
    if params.w <= 0.0:
        raise DomainError(
            f"the Lerch form needs w*x > 0, got w={params.w} at x={x}"
        )
    z = math.exp(-params.rate)
    a = params.w * x
    first = lerch_phi(z, -x, a, eps)
    second = (params.w - 1.0) * x * lerch_phi(z, -(x - 1), a, eps)
    return math.exp(-params.rate * x) * (first - second)
