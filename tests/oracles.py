"""Independent oracles the tests check the library against.

Everything here recomputes results through routes the library does not use:
adaptive quadrature, brute-force direct summation of the defining series,
long partial sums, and mpmath reference evaluations.
"""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
from scipy.integrate import IntegrationWarning, quad

from gpgamma.errors import NumericError
from gpgamma.model import ModelParams
from gpgamma.posterior import PosteriorTable


def quad_reg_lower_inc_gamma(u: float, v: float) -> float:
    """P(u, v) by adaptive quadrature of the defining integral.

    Substituting t = s^2 removes the endpoint singularity for u < 1:
    integral_0^v t^(u-1) e^(-t) dt = integral_0^sqrt(v) 2 s^(2u-1) e^(-s^2) ds.
    """
    if v == 0.0:
        return 0.0

    def integrand(s: float) -> float:
        if s <= 0.0:
            return 0.0
        return 2.0 * math.exp((2.0 * u - 1.0) * math.log(s) - s * s - math.lgamma(u))

    # the tolerance request sits at the roundoff floor on purpose; quad then
    # warns even though the achieved error (~1e-14) is far below what the
    # comparisons need
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(
            integrand, 0.0, math.sqrt(v), epsabs=1e-14, epsrel=1e-14, limit=300
        )
    return value


def mpmath_window_mass(shape: float, scale: float, k: int) -> float:
    """Gamma(shape, scale) mass of the window [k - 1/2, k + 1/2], clipped at 0.

    One mpmath regularized incomplete gamma over the window at 50 digits, so
    tail windows far below 1e-16 come out with full relative accuracy.
    """
    with mpmath.workdps(50):
        s = mpmath.mpf(scale)
        lo = mpmath.mpf(max(k - 0.5, 0.0)) / s
        hi = mpmath.mpf(k + 0.5) / s
        return float(mpmath.gammainc(mpmath.mpf(shape), lo, hi, regularized=True))


def direct_gp_pmf(params: ModelParams, k: int, x: int) -> float:
    """Plain (non-log) product evaluation of the count-model pmf."""
    lam1 = k * params.rate
    base = lam1 + x * params.lambda2
    return lam1 * base ** (x - 1) * math.exp(-base) / math.factorial(x)


def brute_posterior_weights(
    params: ModelParams, x: int, k_top: int = 100_000
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized posterior weights of k = x .. k_top by direct evaluation."""
    ks = np.arange(x, k_top + 1, dtype=float)
    if x == 0:
        weights = np.exp(-params.rate * ks)
    else:
        g = (params.lambda2 / params.rate) * x
        weights = ks * (ks + g) ** (x - 1) * np.exp(-params.rate * ks)
    return ks, weights


def brute_posterior(
    params: ModelParams, x: int, k_top: int = 100_000
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized brute-force posterior pmf over k = x .. k_top."""
    ks, weights = brute_posterior_weights(params, x, k_top)
    return ks, weights / weights.sum()


def brute_moments(ks: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
    mu = float(np.dot(ks, probs))
    return mu, float(np.dot(probs, (ks - mu) ** 2))


def lerch_partial_sum(z: float, h: int, a: float, n_terms: int = 1_000_000) -> float:
    """Phi(z, -h, a) by a long direct partial sum (chunked to bound memory)."""
    total = 0.0
    chunk = 100_000
    with np.errstate(under="ignore"):
        for start in range(0, n_terms, chunk):
            ks = np.arange(start, min(start + chunk, n_terms), dtype=float)
            total += float(np.sum(z**ks * (a + ks) ** h))
    return total


def direct_denominator_sum(params: ModelParams, x: int) -> float:
    """Posterior normalizer for x >= 1 by straightforward summation."""
    g = (params.lambda2 / params.rate) * x
    total = 0.0
    j = x
    peak = (x + 1.0) / params.rate
    while True:
        term = j * (j + g) ** (x - 1) * math.exp(-params.rate * j)
        total += term
        j += 1
        if j > peak and term < total * 1e-18:
            return total


def streaming_posterior(params: ModelParams, x: int, eps_tail: float) -> PosteriorTable:
    """Posterior table by the per-term streaming log-sum-exp loop.

    The scalar route ``exact_posterior`` replaced with numpy blocks: one
    Python iteration per term, the same truncation rule (past j0, stop at
    the first k whose step is at most -rate/2 and whose geometric tail
    bound, relative to the running partial sum, is below ``eps_tail``) and
    a streaming normalizer.  Assumes the inputs are inside the domain.
    """
    rate = params.rate
    if x == 0:
        j0 = 0

        def lw(k: int) -> float:
            return -rate * k
    else:
        g = (params.w - 1.0) * x
        j0 = max(x, math.ceil(2 * (x - 1) / rate), math.ceil(2 * abs(g)))

        def lw(k: int) -> float:
            return math.log(k) + (x - 1) * math.log(k + g) - rate * k

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
        if k - x >= 10**7:
            raise NumericError(f"streaming oracle reached 10^7 terms at x={x}")

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
