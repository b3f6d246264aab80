"""Distance metrics, identity cross-checks, and parameter-grid sweeps.

``compare`` quantifies how well a discretized gamma approximation tracks an
exact posterior table; ``denominator_lerch`` writes the posterior
normalizer in its Lerch-transcendent form and ``verify_lerch_denominator``
checks it against the engine's; ``sweep`` drives ``compare`` over a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .approximation import (
    KINDS,
    DiscretePmf,
    GammaApprox,
    _check_epsilon,
    build_gamma,
    discretize_gamma,
    inequality_check,
)
from .errors import DomainError, NumericError, PrecisionError
from .model import ModelParams, _count, derive_params
from .posterior import (
    _MOMENT_TAIL_CAP,
    PosteriorTable,
    _check_eps_tail,
    exact_posterior,
    posterior_moments,
    window_moments,
)
from .special import reg_lower_inc_gamma, reg_upper_inc_gamma

__all__ = [
    "ComparisonReport",
    "SweepResult",
    "compare",
    "compare_kinds",
    "denominator_lerch",
    "full_support_tv",
    "sweep",
    "verify_lerch_denominator",
]

_KL_FLOOR = 1e-300
_REFERENCE_EPS_TAIL = 1e-16
_LERCH_EPS = 1e-12


@dataclass(frozen=True)
class ComparisonReport:
    """Distance metrics and moment diagnostics for one table and gamma kind.

    A report carries metrics only; the caller holds the point (a, b, c, x).

    ``tv`` is half the L1 distance and ``kl`` the divergence from the exact
    posterior to the approximation, both over the common support window with
    the approximation renormalized there.  ``dropped_term_ratio`` is the
    table's ``PosteriorTable.dropped_term_ratio``.  ``raw_total`` is the
    approximation's window mass before renormalization.
    """

    kind: str
    tv: float
    kl: float
    sup_abs: float
    mean_exact: float
    var_exact: float
    mean_approx: float
    var_approx: float
    dropped_term_ratio: float
    inequality_holds: bool
    raw_total: float


@dataclass(frozen=True)
class SweepResult:
    """One sweep entry: either a completed report or a recorded error."""

    index: int
    a: float
    b: float
    c: float
    x: int
    kind: str | None
    report: ComparisonReport | None
    error: str | None


def compare(
    exact: PosteriorTable, approx: DiscretePmf, epsilon_ineq: float = 0.01
) -> ComparisonReport:
    """Compare an exact posterior with a window-renormalized approximation.

    Both pmfs must live on the table's window k = k_min .. k_max (k_min >=
    x) and the approximation must already be renormalized over it; anything
    else is a usage error.
    """
    if not approx.renormalized:
        raise ValueError("compare needs the approximation renormalized over the window")
    if approx.k_min != exact.k_min or len(approx.probs) != len(exact.probs):
        raise ValueError(
            f"misaligned supports: exact k={exact.k_min}..{exact.k_max}, "
            f"approx k={approx.k_min}..{approx.k_min + len(approx.probs) - 1}"
        )
    _check_epsilon(epsilon_ineq)
    p = exact.probs
    q = approx.probs
    work = p - q  # one table-sized buffer: |p - q|, then the KL terms
    np.abs(work, out=work)
    tv = 0.5 * float(work.sum())
    sup_abs = float(work.max())
    np.divide(p, np.maximum(q, _KL_FLOOR, out=work), out=work)
    # zero-mass entries contribute 0 to the divergence: p / q is 0 there
    np.log(work, out=work, where=p > 0.0)
    kl = float(np.multiply(work, p, out=work).sum())
    del work
    mean_exact, var_exact = posterior_moments(exact)
    mean_approx, var_approx = window_moments(approx.k_min, q)
    x = exact.x
    holds = inequality_check(exact.params, x, epsilon_ineq).holds if x >= 1 else True
    return ComparisonReport(
        kind=approx.kind,
        tv=tv,
        kl=kl,
        sup_abs=sup_abs,
        mean_exact=mean_exact,
        var_exact=var_exact,
        mean_approx=mean_approx,
        var_approx=var_approx,
        dropped_term_ratio=exact.dropped_term_ratio,
        inequality_holds=holds,
        raw_total=approx.raw_total,
    )


def compare_kinds(
    exact: PosteriorTable, epsilon_ineq: float = 0.01
) -> list[tuple[DiscretePmf, ComparisonReport]]:
    """Both gamma kinds, window-renormalized and compared, in ``KINDS`` order.

    Both gammas are built first: a table too loose for moments raises
    ``PrecisionError`` before any window, the costly layer, is evaluated.
    """
    gammas = [build_gamma(kind, exact) for kind in KINDS]
    discs = [discretize_gamma(g, exact.k_min, exact.k_max, renormalize=True) for g in gammas]
    return [(disc, compare(exact, disc, epsilon_ineq)) for disc in discs]


def full_support_tv(exact: PosteriorTable, g: GammaApprox) -> float:
    """Total variation between the posterior and the discretized gamma on all k >= 0.

    The discretized gamma is taken as a genuine pmf on the non-negative
    integers: its mass below and above the table's window counts as
    discrepancy instead of being renormalized away.
    """
    disc = discretize_gamma(g, exact.k_min, exact.k_max, renormalize=False)
    below = reg_lower_inc_gamma(g.shape, max(exact.k_min - 0.5, 0.0) / g.scale)
    above = reg_upper_inc_gamma(g.shape, (exact.k_max + 0.5) / g.scale)
    return 0.5 * (float(np.abs(exact.probs - disc.probs).sum()) + below + above)


def denominator_lerch(params: ModelParams, x: int) -> float:
    """Posterior normalizer for x >= 1 in its Lerch-transcendent form.

    Evaluates

        e^(-rate*x) * [Phi(z, -x, w*x) - (w-1)*x * Phi(z, -(x-1), w*x)]

    with z = e^(-rate), which equals the direct series
    sum_{j>=x} j (j+g)^(x-1) e^(-rate*j) up to the relative summation
    tolerance 1e-12 of each Lerch series.  At large x (from x = 95 at
    rate 0.105) a Lerch term overflows and ``NumericError`` is raised.
    """
    x = _count(x, 1)
    if params.w <= 0.0:
        raise DomainError(
            f"the Lerch form needs w*x > 0, got w={params.w} at x={x}"
        )
    z = math.exp(-params.rate)
    a = params.w * x
    first = _lerch_series(z, x, a)
    second = (params.w - 1.0) * x * _lerch_series(z, x - 1, a)
    return math.exp(-params.rate * x) * (first - second)


def _lerch_series(z: float, h: int, a: float) -> float:
    # Phi(z, -h, a) = sum_{k>=0} z^k (a+k)^h for 0 < z < 1, integer h >= 0
    # and a > 0, which x >= 1 and w > 0 give.  The term ratio
    # z ((a+k+1)/(a+k))^h falls towards z, so once it is under r = (1+z)/2
    # the tail is at most term r/(1-r); the sum stops when that is under
    # _LERCH_EPS of the partial sum, or refuses after 10^6 terms.  Below
    # rate ~1e-16, r rounds to 1 and no tail bound exists.
    r = 0.5 * (1.0 + z)
    if r == 1.0:
        raise NumericError(f"Lerch series has no tail bound at z={z}: (1 + z)/2 rounds to 1")
    tail_factor = r / (1.0 - r)
    partial = 0.0
    zk = 1.0
    for k in range(1_000_000):
        try:
            term = zk * (a + k) ** h
        except OverflowError:
            raise NumericError(
                f"Lerch series term overflowed at k={k} for z={z}, h={h}, a={a}"
            ) from None
        partial += term
        ratio = z * ((a + k + 1.0) / (a + k)) ** h
        if ratio <= r and term * tail_factor < _LERCH_EPS * partial:
            return partial
        zk *= z
    raise NumericError(f"Lerch series did not converge within 10^6 terms for z={z}, h={h}, a={a}")


def verify_lerch_denominator(params: ModelParams, x: int) -> float:
    """Relative gap between the Lerch-form normalizer and the engine's.

    The reference is exp(log_normalizer) of an ``exact_posterior`` table at
    relative tail 1e-16, far below the Lerch sums' own 1e-12 tolerance.
    Raises ``NumericError`` where ``denominator_lerch`` overflows.
    """
    via_lerch = denominator_lerch(params, x)
    engine = math.exp(exact_posterior(params, x, _REFERENCE_EPS_TAIL).log_normalizer)
    return abs(via_lerch - engine) / engine


def sweep(
    grid: Sequence[tuple[float, float, float, int]],
    eps_tail: float = 1e-10,
    epsilon_ineq: float = 0.01,
) -> list[SweepResult]:
    """Run both approximation kinds over (a, b, c, x) grid points.

    Produces two entries per point in input order, or one error entry: a
    point whose table, gammas, windows or reports cannot be computed gets
    one entry with kind and report None and the message in ``error``, and
    the sweep goes on.  A bad ``eps_tail`` or ``epsilon_ineq`` raises
    ``DomainError`` before any point is run, as does an ``eps_tail`` above
    1e-6, since every report takes the posterior moments.
    """
    _check_eps_tail(eps_tail)
    if eps_tail > _MOMENT_TAIL_CAP:
        raise DomainError(f"sweep needs eps_tail <= {_MOMENT_TAIL_CAP:.0e}, got {eps_tail!r}")
    _check_epsilon(epsilon_ineq)
    results: list[SweepResult] = []
    for index, (a, b, c, x) in enumerate(grid):
        try:
            table = exact_posterior(derive_params(a, b, c), x, eps_tail)
            rows = [(rep.kind, rep, None) for _, rep in compare_kinds(table, epsilon_ineq)]
        except (DomainError, PrecisionError, NumericError) as exc:
            rows = [(None, None, str(exc))]  # kind, report, error
        results += [SweepResult(index, a, b, c, x, *row) for row in rows]
    return results
