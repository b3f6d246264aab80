"""Exact posterior over the integer level k given one observed count.

Under a flat (improper uniform) prior on k the posterior mass at k >= x is
proportional to the likelihood, whose log-weight is

    log k + (x - 1) log(k + g) - rate * k,      g = (lambda2 / rate) * x.

For x = 0 the likelihood collapses to exp(-rate * k) on k >= 0, a geometric
distribution.  The infinite normalizer is truncated under a rigorous
geometric tail bound.  The log-weights are evaluated in numpy blocks that
carry a streaming log-sum-exp (running max and scaled partial sum) from one
block to the next, so the stopping term is found without leaving log space
and tables for large x never leave it until the final normalization.  A
table is capped at 10^7 entries; one that needs more is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

# Largest table exact_posterior builds, in entries (~80 MB of log-weights).
_MAX_TERMS = 10**7
# Terms per numpy block: each float temporary stays ~128 kB.
_BLOCK = 16384
_MOMENT_TAIL_CAP = 1e-6
_LERCH_EPS = 1e-12


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

    @cached_property
    def _moments(self) -> tuple[float, float]:
        # reduced once per table, however many callers take the moments
        return window_moments(self.k_min, self.probs)


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

    The log-weights are evaluated in numpy blocks.  The first block is sized
    from the expected table length, (j0 - x) + ceil(-2 log(eps_tail)/rate)
    + 64 terms, and later blocks double; every block is capped at ``_BLOCK``
    terms (~128 kB per temporary).  Each block carries the running max and
    scaled partial sum of the blocks before it (streaming log-sum-exp), so
    every term is tested against the partial sum up to and including it,
    as a per-term loop would.  The normalizer is then summed once over the
    whole table, so the probabilities do not depend on the block size.

    The table holds at most ``_MAX_TERMS`` (10^7) entries, ~80 MB of
    log-weights; a table that needs more is refused, not truncated early.

    Raises:
        DomainError: for invalid x or eps_tail, or when x > 0 and w <= 0
            (the weights would hit non-positive bases on the support).
        NumericError: if the tail bound has not cleared eps_tail within
            ``_MAX_TERMS`` terms; the message gives the terms evaluated and
            the tail bound achieved.
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
    g = (params.w - 1.0) * x
    if x == 0:
        j0 = 0
    else:
        j0 = max(x, math.ceil(2 * (x - 1) / rate), math.ceil(2 * abs(g)))

    log_ratio_cap = -0.5 * rate
    r = math.exp(log_ratio_cap)
    log_tail_factor = math.log(r / (1.0 - r))
    log_eps = math.log(eps_tail)

    blocks: list[np.ndarray] = []
    size = min(_BLOCK, (j0 - x) + math.ceil(-2.0 * log_eps / rate) + 64)
    top = -math.inf  # running max of the log-weights so far
    carry = 0.0  # sum of exp(lw - top) over the earlier blocks
    prev = -math.inf  # last log-weight of the previous block
    start = x
    while True:
        stop = min(start + size, x + _MAX_TERMS)
        ks = np.arange(start, stop, dtype=float)
        if x == 0:
            lw = -rate * ks
        else:
            lw = np.log(ks) + (x - 1) * np.log(ks + g) - rate * ks
        m = max(top, float(lw.max()))
        # before the mode a prefix sum can underflow to 0; its log is -inf,
        # and those terms lie below j0, so they never stop the loop
        scaled = carry * math.exp(top - m) + np.cumsum(np.exp(lw - m))
        with np.errstate(divide="ignore"):
            log_partial = m + np.log(scaled)
        step = np.diff(lw, prepend=prev)
        stops = (
            (ks > j0)
            & (step <= log_ratio_cap)
            & (lw + log_tail_factor - log_partial < log_eps)
        )
        i = int(stops.argmax())
        if stops[i]:
            blocks.append(lw[: i + 1])
            tail_bound = math.exp(lw[i] + log_tail_factor - log_partial[i])
            break
        blocks.append(lw)
        if stop - x >= _MAX_TERMS:
            achieved = math.exp(lw[-1] + log_tail_factor - log_partial[-1])
            raise NumericError(
                f"posterior table size limit of {_MAX_TERMS} entries reached: "
                f"{stop - x} terms evaluated at x={x}, eps_tail={eps_tail}; "
                f"achieved tail bound {achieved:.3e}"
            )
        top, carry, prev = m, float(scaled[-1]), float(lw[-1])
        start = stop
        size = min(2 * size, _BLOCK)

    lws = np.concatenate(blocks)
    peak = float(lws.max())
    log_normalizer = peak + math.log(float(np.exp(lws - peak).sum()))
    probs = np.exp(lws - log_normalizer)
    return PosteriorTable(
        params=params,
        x=x,
        k_min=x,
        k_max=x + len(lws) - 1,
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
    return table._moments


def window_moments(k_min: int, probs: np.ndarray) -> tuple[float, float]:
    """Mean and variance of a pmf over k = k_min .. k_min + len(probs) - 1."""
    # elementwise multiply-and-sum, not np.dot: threaded BLAS costs ms per call
    ks = np.arange(k_min, k_min + len(probs))
    mu = float((ks * probs).sum())
    return mu, float((probs * (ks - mu) ** 2).sum())


def denominator_lerch(params: ModelParams, x: int) -> float:
    """Posterior normalizer for x >= 1 in its Lerch-transcendent form.

    Evaluates

        e^(-rate*x) * [Phi(z, -x, w*x) - (w-1)*x * Phi(z, -(x-1), w*x)]

    with z = e^(-rate), which equals the direct series
    sum_{j>=x} j (j+g)^(x-1) e^(-rate*j) up to the relative summation
    tolerance 1e-12 of each Lerch evaluation.  At large x (from x = 95 at
    rate 0.105) a Lerch term overflows and ``NumericError`` is raised.
    """
    if x < 1:
        raise DomainError(f"the Lerch form needs x >= 1, got x={x}")
    if params.w <= 0.0:
        raise DomainError(
            f"the Lerch form needs w*x > 0, got w={params.w} at x={x}"
        )
    z = math.exp(-params.rate)
    a = params.w * x
    first = lerch_phi(z, -x, a, _LERCH_EPS)
    second = (params.w - 1.0) * x * lerch_phi(z, -(x - 1), a, _LERCH_EPS)
    return math.exp(-params.rate * x) * (first - second)
