"""Independent oracles the tests check the library against.

Everything here recomputes results through routes the library does not use:
adaptive quadrature, brute-force direct summation of the defining series,
long partial sums, mpmath reference evaluations, and the CLI's former
row-at-a-time renderer.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import warnings
from typing import Any, Iterable, Sequence

import mpmath
import numpy as np
from hypothesis import assume
from scipy.integrate import IntegrationWarning, quad

from gpgamma.approximation import _GL_CENTRED_SHAPE, GammaApprox, _last_far_window, _log_peak
from gpgamma.cli import SCHEMA_VERSION
from gpgamma.errors import DomainError, NumericError
from gpgamma.model import ModelParams, derive_params
from gpgamma.posterior import PosteriorTable, posterior_moments


def edge_point(b: float, gap: float) -> ModelParams:
    """Params at b whose sqrt(m) lies ``gap`` (relative) below its upper limit.

    The limit is min(2, 1/(1-b)): m < 4, and w > 0 needs sqrt(m) < 1/(1-b).
    As gap -> 0 the point reaches m -> 4 (b < 1/2) or w -> 0 (b > 1/2).  For
    hypothesis strategies: rejects the draw where rounding leaves the domain.
    """
    sqrt_m = (1.0 - gap) * min(2.0, 1.0 / (1.0 - b))
    params = derive_params(0.0, b, 2.0 * math.log(sqrt_m))
    assume(params.m < 4.0 and params.w > 0.0)
    return params


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


def mpmath_gl3_window_mass(shape: float, scale: float, k: int) -> float:
    """The 3-point Gauss-Legendre rule over the window [k - 1/2, k + 1/2].

    Exact nodes k and k -+ sqrt(3/5)/2, weights 4/9 and 5/18, and the gamma
    density, all at 50 digits: what is left is the rule's own remainder.
    """
    with mpmath.workdps(50):
        u, s = mpmath.mpf(shape), mpmath.mpf(scale)
        h = mpmath.sqrt(mpmath.mpf(3) / 5) / 2

        log_norm = mpmath.loggamma(u) + u * mpmath.log(s)

        def density(t):
            return mpmath.exp((u - 1) * mpmath.log(t) - t / s - log_norm)

        total = 8 * density(mpmath.mpf(k)) + 5 * (density(k - h) + density(k + h))
        return float(total / 18)


def mpmath_window_pmf(shape: float, scale: float, k_min: int, k_max: int) -> np.ndarray:
    """Gamma(shape, scale) window masses over k_min .. k_max, renormalized there.

    Summed and divided in mpmath at 60 digits, so a range whose masses lie
    far below the smallest float still gets its renormalized pmf.
    """
    with mpmath.workdps(60):
        u, s = mpmath.mpf(shape), mpmath.mpf(scale)
        masses = [
            mpmath.gammainc(u, mpmath.mpf(max(k - 0.5, 0.0)) / s, mpmath.mpf(k + 0.5) / s,
                            regularized=True)
            for k in range(k_min, k_max + 1)
        ]
        total = mpmath.fsum(masses)
        return np.array([float(m / total) for m in masses])


def windowing_tv_constant(x: int) -> float:
    """C_x = E|h(Y)| / 48, Y ~ Gamma(x+1, 1), h(y) = (x^2 - x)/y^2 - 2x/y + 1.

    At m = 1 the posterior is the theorem1 gamma's density f at the
    integers, and the window at k holds f(k) (1 + f''(k) / (24 f(k)) + ...)
    with f''/f = rate^2 h(rate k), so theorem1's TV / rate^2 tends to C_x as
    the rate falls.  The Gamma(x+1) density times y^-j is the Gamma(x+1-j)
    density over x (x-1) .. (x+1-j), so over an interval E[h(Y)] is
    P_(x-1) - 2 P_x + P_(x+1), P_s the interval's Gamma(s, 1) mass (a term
    whose coefficient in h is 0 left out).  h < 0 exactly between its roots
    x -+ sqrt(x); the masses are taken in mpmath at 30 digits.
    """
    terms = [(x + 1, 1), (x, -2), (x - 1, 1)][: min(x, 2) + 1]
    with mpmath.workdps(30):

        def part(u, v):
            return mpmath.fsum(c * mpmath.gammainc(s, u, v, regularized=True) for s, c in terms)

        lo, hi = x - mpmath.sqrt(x), x + mpmath.sqrt(x)
        return float((part(0, lo) - part(lo, hi) + part(hi, mpmath.inf)) / 48)


def skewness_law_tv(table: PosteriorTable) -> float:
    """moment_matched's TV predicted from the posterior's skewness alone.

    A gamma matched on mean and variance first differs from the posterior
    in the third cumulant, so Edgeworth's first term gives
    TV ~ E|He_3(Z)| / 12 * |gamma_post - 2 sigma/mu|, E|He_3(Z)| =
    sqrt(2/pi) (1 + 4 e^(-3/2)), 2 sigma/mu the gamma's skewness and
    gamma_post ~ 2/sqrt(x+1) the posterior's, with sigma and mu the table's
    posterior sd and mean (P. Hall, "The Bootstrap and Edgeworth
    Expansion", 1992, ch. 2).
    """
    mu, var = posterior_moments(table)
    c = math.sqrt(2.0 / math.pi) * (1.0 + 4.0 * math.exp(-1.5)) / 12.0
    return c * abs(2.0 / math.sqrt(table.x + 1.0) - 2.0 * math.sqrt(var) / mu)


def node_order_window_masses(
    g: GammaApprox, k_min: int, k_max: int, rule: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Gauss-Legendre masses of the windows k = max(k_min, 2) .. k_max by ``rule``.

    ``rule`` is a (nodes, weights) pair on [-1, 1].  Each window's density
    at the rule's own nodes is taken on the kernel's log-density (about the
    mode for large shapes, with log(t/c) for log1p(u) far left of it), one
    row per window, and its weighted values are added in node order, so a
    window's mass does not depend on the range it is asked in.
    """
    ks = np.arange(max(k_min, 2), k_max + 1)
    offsets, weights = 0.5 * rule[0], 0.5 * rule[1]
    rise = g.shape - 1.0
    if g.shape > _GL_CENTRED_SHAPE:
        mode = rise * g.scale
        whole = round(mode)
        u = ((ks - whole) / mode)[:, None] + (offsets + (whole - mode)) / mode
        log1p_u = np.log1p(u)
        far = ks <= _last_far_window(g)
        log1p_u[far] = np.log((ks[far].astype(float)[:, None] + offsets) / mode)
        log_f = (log1p_u - u) * rise + _log_peak(g)
    else:
        t = ks.astype(float)[:, None] + offsets
        log_norm = math.lgamma(g.shape) + g.shape * math.log(g.scale)
        log_f = rise * np.log(t) - t / g.scale - log_norm
    f = np.exp(log_f)
    masses = f[:, 0] * weights[0]
    for column, weight in zip(f.T[1:], weights[1:]):
        masses += column * weight
    return masses


def direct_gp_pmf(params: ModelParams, k: int, x: int) -> float:
    """Plain (non-log) product evaluation of the count-model pmf."""
    lam1 = k * params.rate
    base = lam1 + x * (1.0 - params.sqrt_m)
    return lam1 * base ** (x - 1) * math.exp(-base) / math.factorial(x)


def gp_log_pmf(params: ModelParams, k: int, x: int) -> float:
    """Log-probability ln P(X = x | k) of the count model, in log space.

    ln P = ln lam1 + (x - 1) ln(lam1 + x lam2) - (lam1 + x lam2) - ln x!

    with lam1 = k rate and lam2 = 1 - sqrt(m).  Under a flat prior on k it is
    the posterior log-weight up to a constant in k, which makes it the
    oracle for the engine's ``log_weights``.  The degenerate level k = 0 is
    the lam1 -> 0 limit: a point mass at x = 0 (log-probability 0.0 there,
    -inf for x >= 1).

    Raises:
        DomainError: for negative k or x, or where lam1 + x lam2 <= 0,
            which only happens past the support's end when sqrt(m) > 1.
    """
    if k < 0 or x < 0:
        raise DomainError(f"k and x must be non-negative integers, got k={k}, x={x}")
    if k == 0:
        return 0.0 if x == 0 else -math.inf
    lam1 = k * params.rate
    base = lam1 + x * (1.0 - params.sqrt_m)
    if base <= 0.0:
        raise DomainError(f"pmf base lam1 + x*lam2 = {base} is not positive at k={k}, x={x}")
    return math.log(lam1) + (x - 1) * math.log(base) - base - math.lgamma(x + 1.0)


def brute_posterior_weights(
    params: ModelParams, x: int, k_top: int = 100_000
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized posterior weights of k = x .. k_top by direct evaluation."""
    ks = np.arange(x, k_top + 1, dtype=float)
    if x == 0:
        weights = np.exp(-params.rate * ks)
    else:
        g = ((1.0 - params.sqrt_m) / params.rate) * x
        weights = ks * (ks + g) ** (x - 1) * np.exp(-params.rate * ks)
    return ks, weights


def brute_posterior(
    params: ModelParams, x: int, k_top: int = 100_000
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized brute-force posterior pmf over k = x .. k_top."""
    ks, weights = brute_posterior_weights(params, x, k_top)
    return ks, weights / weights.sum()


def mpmath_posterior(params: ModelParams, x: int, k_min: int, k_max: int) -> np.ndarray:
    """Posterior pmf normalized over k = k_min .. k_max, in mpmath at 30 digits.

    Each weight k (k+g)^(x-1) e^(-rate k) is a direct product, so large x
    neither overflows nor goes through the engine's log space.
    """
    with mpmath.workdps(30):
        rate = mpmath.mpf(params.rate)
        g = (mpmath.mpf(params.w) - 1) * x
        weights = [k * (k + g) ** (x - 1) * mpmath.exp(-rate * k) for k in range(k_min, k_max + 1)]
        total = mpmath.fsum(weights)
        return np.array([float(w / total) for w in weights])


def brute_moments(ks: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
    mu = float(np.dot(ks, probs))
    return mu, float(np.dot(probs, (ks - mu) ** 2))


def expression_window_moments(k_min: int, probs: np.ndarray) -> tuple[float, float]:
    """Mean and variance of a pmf over k_min .. by whole-array expressions.

    The form ``posterior.window_moments`` had before it reused its buffers:
    an integer support, a fresh array for every product, the same sums.
    """
    ks = np.arange(k_min, k_min + len(probs))
    mu = float((ks * probs).sum())
    return mu, float((probs * (ks - mu) ** 2).sum())


def masked_kl_terms(p: np.ndarray, q: np.ndarray, floor: float) -> np.ndarray:
    """The terms p log(p / max(q, floor)) of the entries with p > 0.

    The masked copies ``validation.compare`` summed before it took the
    divergence in one buffer; their sum is its former ``kl``.
    """
    mask = p > 0.0
    return p[mask] * np.log(p[mask] / np.maximum(q[mask], floor))


def lerch_partial_sum(z: float, h: int, a: float, n_terms: int = 1_000_000) -> float:
    """Phi(z, -h, a) by a long direct partial sum (chunked to bound memory)."""
    total = 0.0
    chunk = 100_000
    with np.errstate(under="ignore"):
        for start in range(0, n_terms, chunk):
            ks = np.arange(start, min(start + chunk, n_terms), dtype=float)
            total += float(np.sum(z**ks * (a + ks) ** h))
    return total


def mpmath_lerch_phi(z: float, h: int, a: float) -> float:
    """Phi(z, -h, a) from mpmath's Lerch transcendent at 30 digits: the full series."""
    with mpmath.workdps(30):
        return float(mpmath.lerchphi(mpmath.mpf(z), -h, mpmath.mpf(a)))


def bernoulli_lerch_expansion(z: float, h: int, a: float, terms: int) -> float:
    """Phi(z, -h, a) by its Bernoulli-polynomial expansion, cut after ``terms`` corrections.

    h! z^(-a) (log 1/z)^(-(h+1)) minus z^(-a) times the correction series
    sum_{r<terms} B_(h+r+1)(a) (log z)^r / (r! (h+r+1)), for |log z| < 2 pi:
    the expansion the paper's gamma comes from.  Taken in mpmath at 30
    digits, so what is left is the truncation error, which shrinks as
    ``terms`` grows, fastest when log(1/z) is small.
    """
    with mpmath.workdps(30):
        z, a = mpmath.mpf(z), mpmath.mpf(a)
        logz = mpmath.log(z)
        front = mpmath.factorial(h) * z**-a * (-logz) ** -(h + 1)
        correction = mpmath.fsum(
            mpmath.bernpoly(h + r + 1, a) * logz**r / (mpmath.factorial(r) * (h + r + 1))
            for r in range(terms)
        )
        return float(front - z**-a * correction)


def bernoulli_power_sum(n: int, upper: int) -> float:
    """(B_(n+1)(X) - b_(n+1)) / (n+1) at X = ``upper``, from mpmath at 30 digits.

    By the power-sum identity this is the sum of r^n over r = 0 .. X-1
    (0^0 counting as 1).  It holds as written under mpmath's convention
    b_1 = -1/2, under which B_n(0) = b_n.
    """
    with mpmath.workdps(30):
        b = mpmath.bernpoly(n + 1, upper) - mpmath.bernoulli(n + 1)
        return float(b / (n + 1))


def mpmath_dropped_term_ratio(params: ModelParams, x: int) -> float:
    """Second-to-first term ratio of the Lerch form of the normalizer.

    (w-1) x Phi(z, -(x-1), w x) / Phi(z, -x, w x) at z = exp(-rate), from
    mpmath's Lerch transcendent at 30 digits: the full series, untruncated.
    """
    with mpmath.workdps(30):
        z = mpmath.exp(-mpmath.mpf(params.rate))
        a = mpmath.mpf(params.w) * x
        first = mpmath.lerchphi(z, -x, a)
        second = (mpmath.mpf(params.w) - 1) * x * mpmath.lerchphi(z, -(x - 1), a)
        return float(second / first)


def mpmath_denominator(params: ModelParams, x: int) -> float:
    """Posterior normalizer for x >= 1 in Lerch form, from mpmath at 30 digits.

    e^(-rate x) [Phi(z, -x, w x) - (w-1) x Phi(z, -(x-1), w x)] at
    z = exp(-rate): the full series, untruncated.
    """
    with mpmath.workdps(30):
        rate = mpmath.mpf(params.rate)
        w = mpmath.mpf(params.w)
        z = mpmath.exp(-rate)
        first = mpmath.lerchphi(z, -x, w * x)
        second = (w - 1) * x * mpmath.lerchphi(z, -(x - 1), w * x)
        return float(mpmath.exp(-rate * x) * (first - second))


def direct_denominator_sum(params: ModelParams, x: int) -> float:
    """Posterior normalizer for x >= 1 by straightforward summation."""
    g = ((1.0 - params.sqrt_m) / params.rate) * x
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
    """Posterior table by a per-term loop under the two-sided truncation rule.

    One Python iteration per term and a streaming log-sum-exp, with the
    rule ``exact_posterior`` applies to its numpy blocks.  The table starts
    at the mode, found here by bisection on the slope of the log-weights
    1/k + (x-1)/(k+g) - rate and rounded, clipped to k >= x.  Each side has
    a share of eps_tail: half, or w eps_tail when x > 0 and w < 1/2.  The
    left side stops at the first k below the mode where the geometric bound
    u_k s/(1-s) on the terms u_j = t_j/j past it, s = u_k/u_(k+1), lies
    under its share relative to the sum of u over k .. mode (or at k = x,
    dropping nothing), and bounds the mass it drops by (k-1) times that;
    the right side then stops at the first k where t_k r/(1-r),
    r = t_k/t_(k-1), lies under its share relative to the sum of the table
    so far.  Assumes the inputs are inside the domain.
    """
    rate = params.rate
    g = (params.w - 1.0) * x
    log_share = math.log(eps_tail * (min(0.5, params.w) if x > 0 else 0.5))

    def lw(k: int) -> float:
        if x == 0:
            return -rate * k
        return math.log(k) + (x - 1) * math.log(k + g) - rate * k

    def slope(k: float) -> float:
        return 1.0 / k + (x - 1) / (k + g) - rate

    mode = x
    if x > 0 and slope(x) > 0.0:
        lo, hi = float(x), x + (2.0 * x + 2.0) / rate
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if slope(mid) > 0.0 else (lo, mid)
        mode = max(x, round(lo))

    def log_bound(v: float, prev: float, log_sum: float) -> float:
        # log of t rho / (1 - rho) relative to the sum, rho = e^(v - prev)
        step = v - prev
        if step >= 0.0:
            return math.inf
        return v + step - math.log(-math.expm1(step)) - log_sum

    class Sum:
        """Streaming log-sum-exp."""

        def __init__(self):
            self.top, self.scaled = -math.inf, 0.0

        def add(self, v: float) -> float:
            if v > self.top:
                self.scaled = self.scaled * math.exp(self.top - v) + 1.0
                self.top = v
            else:
                self.scaled += math.exp(v - self.top)
            return self.top + math.log(self.scaled)

    mass, weighted = Sum(), Sum()
    left: list[float] = []
    log_left = -math.inf
    k = mode
    while True:
        v = lw(k)
        left.append(v)
        mass.add(v)
        if k == x:
            break
        u = v - math.log(k)
        log_weighted = weighted.add(u)
        if k < mode:
            bound = log_bound(u, left[-2] - math.log(k + 1), log_weighted)
            if bound < log_share:
                # sum_(j<k) t_j <= (k-1) sum_(j<k) t_j / j
                log_left = math.log(k - 1) + bound + log_weighted
                break
        k -= 1
        if mode - k >= 10**7:
            raise NumericError(f"streaming oracle reached 10^7 terms at x={x}")
    k_min = k

    right: list[float] = []
    prev = left[0]
    k = mode
    while True:
        k += 1
        v = lw(k)
        right.append(v)
        log_mass = mass.add(v)
        bound = log_bound(v, prev, log_mass)
        if bound < log_share:
            break
        prev = v
        if k - k_min >= 10**7:
            raise NumericError(f"streaming oracle reached 10^7 terms at x={x}")

    lws = np.asarray(left[::-1] + right)
    log_normalizer = log_mass
    probs = np.exp(lws - log_normalizer)
    return PosteriorTable(
        params=params,
        x=x,
        k_min=k_min,
        k_max=k,
        log_weights=lws,
        probs=probs,
        tail_bound=math.exp(log_left - log_normalizer) + math.exp(bound),
        log_normalizer=log_normalizer,
    )


# The CLI renderer as it was before tables were rendered by column: one
# ``_fmt`` call per CSV value inside ``csv.writer``, and for JSON a dict per
# row under the pure-Python ``json.dumps(indent=2)`` encoder.  ``rowwise_emit``
# is the former ``cli._emit``; the CLI's output must match it byte for byte.


@dataclasses.dataclass(frozen=True)
class RowTable:
    """Rows of values in column order: CSV lines, or JSON objects keyed by column."""

    columns: Sequence[str]
    rows: list[tuple]


def _fmt(value: Any) -> str:
    """Render one CSV field: floats at 12 significant digits, None empty."""
    if isinstance(value, float):
        if value == 0.0:
            value = 0.0  # normalize -0.0
        return format(value, ".12g")
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _round12(value: Any) -> Any:
    """Round floats (recursively) to 12 significant digits for JSON output."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, RowTable):
        return [
            {col: _round12(v) for col, v in zip(value.columns, row)}
            for row in value.rows
        ]
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _kv(pairs: Iterable[tuple[str, Any]]) -> str:
    return " ".join(f"{k}={_fmt(v)}" for k, v in pairs)


def rowwise_emit(
    args: argparse.Namespace,
    doc: dict[str, Any],
    header: dict[str, Any],
    parts: Sequence[str | RowTable],
) -> None:
    """Write a command's output to stdout in the format ``args.format`` names.

    JSON is ``doc`` after the schema version and command name, with each
    table as a list of row objects.  CSV is a comment echoing the command
    and ``header``, then ``parts`` in order: a string is a comment line, a
    table its column line and rows.
    """
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command, **doc}
        sys.stdout.write(json.dumps(_round12(doc), indent=2) + "\n")
        return
    sys.stdout.write(f"# schema_version={SCHEMA_VERSION}\n")
    sys.stdout.write(f"# {_kv({'command': args.command, **header}.items())}\n")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for part in parts:
        if isinstance(part, str):
            sys.stdout.write(f"# {part}\n")
        else:
            writer.writerow(part.columns)
            writer.writerows([_fmt(v) for v in row] for row in part.rows)
