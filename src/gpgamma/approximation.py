"""Gamma approximations to the exact posterior, and the validity diagnostic.

Two constructions of the approximating gamma: the closed-form pair
(shape x+1, scale 1/rate), tagged ``theorem1``, and the pair matched to the
exact posterior moments, tagged ``moment_matched``.  Either is turned into
a pmf on integers by integrating the density over half-integer windows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .model import ModelParams
from .posterior import PosteriorTable, posterior_moments
from .special import log_gamma, reg_lower_inc_gamma, reg_upper_inc_gamma

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

# 10-node Gauss-Legendre rule on [-1, 1], equal to
# numpy.polynomial.legendre.leggauss(10); spelled out so that importing this
# module does not load numpy.polynomial.
_GL_NODES = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
    -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
    0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
    0.9739065285171717,
])
_GL_WEIGHTS = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982,
    0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
    0.2692667193099965, 0.219086362515982, 0.1494513491505804,
    0.06667134430868814,
])
# Windows per numpy block: each (10, block) float temporary stays ~320 kB.
_GL_BLOCK = 4096
# Steepest log-density slope |(shape-1)/t - 1/scale| the rule takes at a
# window edge.  Against mpmath, over shapes 1.5-1001 and scales 0.05-100,
# it stays within ~1e-12 up to 8; it errs 1.8e-11 at 10 and 1.6e-7 at 19.
_GL_MAX_SLOPE = 8.0


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

    Every window k >= 2 whose log-density slope |(shape-1)/t - 1/scale| at
    both edges is at most ``_GL_MAX_SLOPE`` goes to a 10-node
    Gauss-Legendre rule (``_gl_window_masses``).  No such window
    differences two CDF values, so far upper-tail windows keep their
    relative accuracy (~1e-11 against mpmath) until their mass underflows
    below ~1e-300.
    The other windows, the steep ones and the head windows k <= 1 (for
    shape < 1 the density is singular at 0, too close to [1/2, 3/2] for a
    polynomial rule), are differences of the regularized incomplete gamma:
    of P(shape, t/scale) for the k = 0 window, clipped to start at 0, and
    left of the mode, of Q right of it.  The far edge then holds a small
    fraction of the near edge's tail, so the difference does not cancel.
    A window's method depends on the window alone, not on the range asked
    for.
    With ``renormalize`` the window probabilities are rescaled to sum to one.
    When the range's raw masses underflow (a range far out in a tail), they
    are taken again relative to the density's peak over the range, so the
    renormalized pmf keeps its relative accuracy; ``raw_total`` stays the
    unscaled sum, 0 or subnormal there.
    """
    if k_min < 0:
        raise DomainError(f"k_min must be >= 0, got {k_min}")
    if k_max < k_min:
        raise DomainError(f"k_max must be >= k_min, got k_min={k_min}, k_max={k_max}")
    probs = _window_masses(g, k_min, k_max, 0.0)
    raw_total = float(probs.sum())
    if renormalize:
        total = raw_total
        if total < len(probs) * sys.float_info.min:
            # The largest windows are subnormal or zero: take every window
            # again relative to the density's peak over the range.
            mode = max((g.shape - 1.0) * g.scale, 0.0)
            t = min(max(mode, k_min - 0.5, 0.5), k_max + 0.5)
            peak = (g.shape - 1.0) * math.log(t) - t / g.scale - _log_norm(g)
            probs = _window_masses(g, k_min, k_max, peak)
            total = float(probs.sum())
        if total <= 0.0:
            raise DomainError(
                f"window k={k_min}..{k_max} carries no gamma mass; cannot renormalize"
            )
        probs = probs / total
    return DiscretePmf(
        k_min=k_min,
        probs=probs,
        renormalized=renormalize,
        raw_total=raw_total,
        kind=g.kind,
    )


def _log_norm(g: GammaApprox) -> float:
    # log of the density's normalizer Gamma(shape) scale^shape
    return math.lgamma(g.shape) + g.shape * math.log(g.scale)


def _window_masses(g: GammaApprox, k_min: int, k_max: int, shift: float) -> np.ndarray:
    """Masses of the windows k = k_min .. k_max times e^(-shift)."""
    probs = np.empty(k_max - k_min + 1)
    lo, hi = min(max(k_min, 2), k_max + 1), k_max  # the run of windows the rule takes
    rise, fall = g.shape - 1.0, 1.0 / g.scale  # the log-density slope is rise/t - fall
    ends = max(abs(rise / (lo - 0.5) - fall), abs(rise / (k_max + 0.5) - fall))
    if lo <= k_max and ends > _GL_MAX_SLOPE:
        # |slope| peaks at an end of any range: the calm windows form one run
        calm = np.abs(rise / (np.arange(lo, k_max + 2) - 0.5) - fall) <= _GL_MAX_SLOPE
        run = np.flatnonzero(calm[:-1] & calm[1:]) + lo
        lo, hi = (int(run[0]), int(run[-1])) if run.size else (k_max + 1, k_max)
    mode = (g.shape - 1.0) * g.scale
    for k in (*range(k_min, lo), *range(hi + 1, k_max + 1)):
        a, b = max(k - 0.5, 0.0) / g.scale, (k + 0.5) / g.scale
        if k == 0 or k < mode:
            mass = reg_lower_inc_gamma(g.shape, b, shift=shift) - reg_lower_inc_gamma(
                g.shape, a, shift=shift
            )
        else:
            mass = reg_upper_inc_gamma(g.shape, a, shift=shift) - reg_upper_inc_gamma(
                g.shape, b, shift=shift
            )
        probs[k - k_min] = max(mass, 0.0)
    _gl_window_masses(g, lo, probs[lo - k_min : hi - k_min + 1], shift)
    return probs


def _gl_window_masses(
    g: GammaApprox, first: int, out: np.ndarray, shift: float = 0.0
) -> None:
    """10-node Gauss-Legendre masses of the windows k = first, first + 1, ...

    Fills ``out``, one window per entry (first >= 1), with each mass times
    e^(-shift).

    The rule is applied to the density
    exp((shape-1) log t - t/scale - lgamma(shape) - shape log(scale) - shift),
    evaluated with numpy in blocks of up to ``_GL_BLOCK`` windows.  A block
    is laid out node-major, one row per node: every step is one in-place
    pass, and the rule adds whole rows in the order numpy's pairwise sum
    takes over 10 terms, so a window's mass equals, bit for bit, the row sum
    of a (windows, 10) layout and does not depend on its block.
    """
    last = first + len(out) - 1
    log_norm = _log_norm(g) + shift
    offsets = 0.5 * _GL_NODES
    weights = 0.5 * _GL_WEIGHTS
    for start in range(first, last + 1, _GL_BLOCK):
        stop = min(start + _GL_BLOCK, last + 1)
        t = np.arange(start, stop, dtype=float) + offsets[:, None]
        f = np.log(t)
        f *= g.shape - 1.0
        t /= g.scale
        f -= t
        f -= log_norm
        np.exp(f, out=f)
        f *= weights[:, None]
        # numpy's pairwise order for a row of 10:
        # ((f0+f1)+(f2+f3)) + ((f4+f5)+(f6+f7)), then f8, then f9
        f[0:8:2] += f[1:8:2]
        f[0:8:4] += f[2:8:4]
        f[0] += f[4]
        f[0] += f[8]
        f[0] += f[9]
        out[start - first : stop - first] = f[0]


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
