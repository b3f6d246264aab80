"""Gamma approximations to the exact posterior, and the validity diagnostic.

Two constructions of the approximating gamma: the closed-form pair
(shape x+1, scale 1/rate), tagged ``theorem1``, and the pair matched to the
exact posterior moments, tagged ``moment_matched``.  Either is turned into
a pmf on integers by integrating the density over half-integer windows.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .model import ModelParams
from .posterior import PosteriorTable, posterior_moments
from .special import reg_lower_inc_gamma, reg_upper_inc_gamma

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

# Gauss-Legendre rules on [-1, 1] as (nodes, weights), equal to
# numpy.polynomial.legendre.leggauss(10) and leggauss(6); spelled out so that
# importing this module does not load numpy.polynomial.
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
_GL6_NODES = np.array([
    -0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
    0.2386191860831969, 0.6612093864662645, 0.9324695142031519,
])
_GL6_WEIGHTS = np.array([
    0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
    0.46791393457269104, 0.3607615730481387, 0.17132449237917027,
])
# Each rule's node offsets from the centre of a window of width 1 and its
# weights, as (nodes, 1) columns
_GL10 = (0.5 * _GL_NODES[:, None], 0.5 * _GL_WEIGHTS[:, None])
_GL6 = (0.5 * _GL6_NODES[:, None], 0.5 * _GL6_WEIGHTS[:, None])
# Windows per numpy block.  A kernel call allocates one workspace, two
# (nodes, block) arrays: 640 kB for the 10-point rule, 384 kB for the 6-point.
_GL_BLOCK = 4096
# Steepest log-density slope |(shape-1)/t - 1/scale| the 10-point rule takes
# at a window edge.  Against mpmath, over shapes 1.5-1001 and scales
# 0.05-100, it stays within ~1e-12 up to 8; it errs 1.8e-11 at 10 and 1.6e-7
# at 19.
_GL_MAX_SLOPE = 8.0
# Largest curvature |shape-1| / t^2 of the log-density the 10-point rule
# takes at a window's left edge.  Near the mode it is 1/variance: at shape
# 38.8, scale 0.05 (variance 0.097) the rule erred 3.1e-12 on the window
# k = 2, whose edge slopes stay under 5.2.  Cauchy's estimate of the rule's
# remainder for a Gaussian puts the limit at 5.66 for 1e-13.
_GL_MAX_CURVE = 5.66
# Shapes above this take the log-density about the mode in the rules.  At
# or below it the direct form's roundoff stays near 1e-13 (1.3e-13 at worst
# over shapes 1-50, scales 0.05-1e4, within 8 sd of the mode), in fewer
# steps per call.
_GL_CENTRED_SHAPE = 50.0
# Narrowest gamma, in windows per standard deviation, whose windows may take
# the 6-point rule.  A narrower gamma's tables are short: choosing the rule
# costs 5-30 us of Python per call, and six nodes save ~20 ns per window.
_GL6_MIN_SD = 32.0
# Largest relative remainder the 6-point rule may leave in a window, and
# that over c_6 12! = (6!)^4 / (13 (12!)^2): _gl6_run bounds f^(12) / (12! f)
_GL6_TOL = 1e-15
_GL6_LIMIT = _GL6_TOL * 13 * math.factorial(12) ** 2 / math.factorial(6) ** 4
_GL6_LOG_LIMIT = math.log(_GL6_LIMIT)
# Loader's series for stirlerr(n) = log n! - (n + 1/2) log n + n - log(2 pi)/2,
# exact to ~2e-16 for n > 15
_STIRLERR = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)


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
    both edges is at most ``_GL_MAX_SLOPE``, and whose curvature
    |shape-1|/t^2 at the left edge is at most ``_GL_MAX_CURVE``, goes to a
    Gauss-Legendre rule (``_gl_window_masses``): to the 6-node rule where a
    bound on its remainder stays under ``_GL6_TOL`` of the window's mass
    (``_gl6_run``) and the gamma's standard deviation spans at least
    ``_GL6_MIN_SD`` windows, to the 10-node rule otherwise.  No rule window
    differences two CDF values, so far upper-tail windows keep their
    relative accuracy (~1e-13 against mpmath) until their mass underflows
    below ~1e-300.
    The other windows, the steep or sharply curved ones and the head
    windows k <= 1 (for shape < 1 the density is singular at 0, too close
    to [1/2, 3/2] for a polynomial rule), are differences of the
    regularized incomplete gamma: of P(shape, t/scale) for the k = 0
    window, clipped to start at 0, and left of the mode, of Q right of it.
    The far edge then holds a small fraction of the near edge's tail, so
    the difference does not cancel.
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
        probs /= total
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
    rise, fall = g.shape - 1.0, 1.0 / g.scale  # the log-density slope is rise/t - fall
    # the run of windows the rule takes; the curvature |rise| / t^2 falls with t
    lo = min(max(k_min, 2, math.ceil(math.sqrt(abs(rise) / _GL_MAX_CURVE) + 0.5)), k_max + 1)
    hi = k_max
    ends = max(abs(rise / (lo - 0.5) - fall), abs(rise / (k_max + 0.5) - fall))
    if lo <= k_max and ends > _GL_MAX_SLOPE:
        # |slope| peaks at an end of any range: the calm windows form one run
        calm = np.abs(rise / (np.arange(lo, k_max + 2) - 0.5) - fall) <= _GL_MAX_SLOPE
        run = np.flatnonzero(calm[:-1] & calm[1:]) + lo
        lo, hi = (int(run[0]), int(run[-1])) if run.size else (k_max + 1, k_max)
    mode = rise * g.scale
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
    six = _gl6_run(g, lo, hi) if math.sqrt(g.shape) * g.scale >= _GL6_MIN_SD else (hi + 1, hi)
    runs = [(lo, six[0] - 1, _GL10), (*six, _GL6), (six[1] + 1, hi, _GL10)]
    for first, last, rule in runs:
        _gl_window_masses(g, first, probs[first - k_min : last - k_min + 1], shift, rule)
    return probs


def _gl6_run(g: GammaApprox, lo: int, hi: int) -> tuple[int, int]:
    """The windows of lo .. hi the 6-point rule takes, as one run (first, last).

    A window takes it when a bound on its relative remainder stays under
    ``_GL6_TOL``; an empty run is (hi + 1, hi).  The remainder is
    c_6 f^(12)(xi) for some xi in the window (Abramowitz & Stegun 25.4.30,
    with c_6 = (6!)^4 / (13 (12!)^3) for a window of width 1), and the
    window's mass is at least f(xi) / (1 + A), A the larger |slope| of the
    log-density at the window's edges.  f^(12)(xi) / (12! f(xi)) is the h^12
    coefficient of

        f(xi + h) / f(xi) = (1 + u)^(s-1) e^(-h/scale)
                          = e^(slope h) (1 + u)^(s-1) e^(-(s-1) u),   u = h/xi,

    bounded with 1/xi <= x in one of two ways.  By Cauchy's estimate,
    max |F| / r^12 over |h| = r, the second form gives
    e^(A r + (s-1) rho^2 / 2) / r^12 with rho = r x <= 2 for s >= 1, and
    e^(A r + (1-s) rho^2) / r^12 with rho <= 1/2 for s < 1; where
    (1 + u)^(s-1) has a branch point, at u = -1, rho stays below 0.9.  This
    one keeps the cancellation of the linear term near the mode of a large
    shape.  Its r is the least point of the exponent in that range.  Where
    it fails, term by term the first form gives
    sum_m |binomial(s-1, m)| x^m scale^(m-12) / (12-m)!, whose terms past
    m = s - 1 vanish for an integer shape and stay small near one.  Both
    grow with A and x.

    Left of the mode, x = 1/(k - 1/2), and A and x fall as k grows: the
    windows that pass end the left part.  Right of it, x is held at its
    bound there, 1/mode, and A grows with k: the windows that pass begin the
    right part.  So each part is found by a search, the union of the two is
    one run, and whether a window takes the rule depends on the window alone.
    """
    rise, fall = g.shape - 1.0, 1.0 / g.scale
    # the Cauchy bound's exponent is A r + curve x^2 r^2, for rho = r x <= rho_max
    if rise >= 0.0:
        curve, rho_max = 0.5 * rise, 2.0 if rise.is_integer() else 0.9
    else:
        curve, rho_max = -rise, 0.5
    mode = rise * g.scale
    split = min(max(math.ceil(mode + 0.5), lo), hi + 1) if rise > 0.0 else hi + 1

    def fits(k: int) -> bool:
        a = max(abs(rise / (k - 0.5) - fall), abs(rise / (k + 0.5) - fall))
        x = 1.0 / (k - 0.5) if k < split else 1.0 / max(mode, 1.5)
        v = curve * x * x
        r = min(24.0 / (a + math.sqrt(a * a + 96.0 * v)), rho_max / x)
        if a * r + v * r * r - 12.0 * math.log(r) + math.log1p(a) <= _GL6_LOG_LIMIT:
            return True
        room, total, term = _GL6_LIMIT / (1.0 + a), 0.0, fall**12 / math.factorial(12)
        for m in range(13):
            total += term
            if total > room:
                return False
            term *= abs(rise - m) / (m + 1) * x / fall * (12 - m)
        return True

    first = _first(fits, lo, split - 1)
    last = _first(lambda k: not fits(k), split, hi) - 1
    return (first, last) if first <= last else (hi + 1, hi)


def _first(holds, a: int, b: int) -> int:
    """The first k of a .. b where ``holds``, false and then true, is true; b + 1 if none.

    Tries a and b, then a + 1, a + 3, a + 7, ..., and bisects the last step.
    """
    if a > b or holds(a):
        return a
    if a == b or not holds(b):
        return b + 1
    lo, step = a, 1  # holds(lo) is false, holds(b) true
    while lo + step < b and not holds(lo + step):
        lo, step = lo + step, 2 * step
    hi = min(lo + step, b)
    return lo + 1 + bisect.bisect_left(range(lo + 1, hi), True, key=holds)


def _log_peak(g: GammaApprox) -> float:
    # log of the density at its mode (shape - 1) scale, for shape > 50:
    # -log(2 pi n)/2 - stirlerr(n) - log(scale) with n = shape - 1, free of
    # the cancellation between n log n and log Gamma(shape)
    n = g.shape - 1.0
    nn = n * n
    s0, s1, s2, s3, s4 = _STIRLERR
    stirlerr = (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / n
    return -0.5 * math.log(2.0 * math.pi * n) - stirlerr - math.log(g.scale)


def _last_far_window(g: GammaApprox) -> int:
    # The last window whose log1p(u) the kernel takes as log(t/c), for
    # shape > 50: left of c/2, 1 + u = t/c magnifies the ~eps error of
    # u = (t - c)/c more than twice, past 1e-14 in (shape-1) (log1p(u) - u).
    return math.floor((g.shape - 1.0) * g.scale / 2.0 - 0.5)


def _gl_window_masses(
    g: GammaApprox,
    first: int,
    out: np.ndarray,
    shift: float,
    rule: tuple[np.ndarray, np.ndarray],
) -> None:
    """Gauss-Legendre masses of the windows k = first, first + 1, ...

    Fills ``out``, one window per entry (first >= 1), with each mass times
    e^(-shift), by ``rule``, ``_GL10`` or ``_GL6``.

    For shape > ``_GL_CENTRED_SHAPE`` the log-density is taken about its
    mode c = (shape-1) scale, as log f(c) + (shape-1) (log1p(u) - u) with
    u = (t - c)/c, and t - c built from small numbers, so no term of size
    (shape-1) log t cancels; far left of c, where 1 + u keeps too few
    digits, log(t/c) stands for log1p(u) (``_last_far_window``).  For
    smaller shapes it is (shape-1) log t - t/scale - log(Gamma(shape) scale^shape).
    The masses are evaluated with numpy in blocks of up to ``_GL_BLOCK``
    windows, laid out node-major, one row per node, in one workspace that
    every block of the call reuses: every step is one in-place pass.  The
    rows are added in numpy's pairwise order over a row of 10 (the 6-point
    rule's as if 4 more rows of weight 0 followed), so a window's mass
    equals, bit for bit, the row sum of a (windows, 10) layout and does not
    depend on its block.
    """
    if not len(out):
        return
    nodes, weights = rule
    rise = g.shape - 1.0
    centred = g.shape > _GL_CENTRED_SHAPE
    if centred:
        mode = rise * g.scale
        whole = round(mode)
        lift = _log_peak(g) - shift
        # u = (t - c)/c = (k - whole)/c + (node + whole - c)/c
        offsets = (nodes + (whole - mode)) / mode
        far_last = _last_far_window(g)
    else:
        lift = -_log_norm(g) - shift
    last = first + len(out) - 1
    work = np.empty((2, len(nodes), min(_GL_BLOCK, len(out))))  # t and f of every block
    for start in range(first, last + 1, _GL_BLOCK):
        stop = min(start + _GL_BLOCK, last + 1)
        t, f = work[:, :, : stop - start]
        if centred:
            col = np.arange(start - whole, stop - whole, dtype=float)
            col /= mode
            np.add(col, offsets, out=t)
            # log(t/c), from t itself, for log1p(u) where 1 + u lost digits
            far = min(max(far_last + 1 - start, 0), stop - start)
            np.log1p(t[:, far:], out=f[:, far:])
            if far:
                ratio = np.add(np.arange(start, start + far, dtype=float), nodes, out=f[:, :far])
                ratio /= mode
                np.log(ratio, out=ratio)
            f -= t
            f *= rise
        else:
            np.add(np.arange(start, stop, dtype=float), nodes, out=t)
            np.log(t, out=f)
            f *= rise
            t /= g.scale
            f -= t
        f += lift
        np.exp(f, out=f)
        f *= weights
        window = out[start - first : stop - first]
        if len(f) == 10:
            # ((f0+f1)+(f2+f3)) + ((f4+f5)+(f6+f7)), then f8, then f9
            f[0:8:2] += f[1:8:2]
            f[0:8:4] += f[2:8:4]
            f[0] += f[4]
            f[0] += f[8]
            np.add(f[0], f[9], out=window)
        else:
            # ((f0+f1)+(f2+f3)) + (f4+f5)
            f[0:6:2] += f[1:6:2]
            f[0] += f[2]
            np.add(f[0], f[4], out=window)


def _check_epsilon(epsilon: float) -> None:
    if not epsilon > 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")


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
    _check_epsilon(epsilon)
    lhs = float(math.trunc((1.0 - params.sqrt_m + params.rate) * x))
    rhs = math.exp((math.lgamma(x + 1.0) + math.log(epsilon)) / (x + 1.0))
    return InequalityResult(holds=lhs < rhs, lhs=lhs, rhs=rhs)
