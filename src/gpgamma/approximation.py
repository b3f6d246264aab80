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

# Gauss-Legendre rules of 10 and 3 nodes for a window of width 1: each
# node's offset from the window's centre and its weight, as (nodes, 1)
# columns.  They are half of numpy.polynomial.legendre.leggauss(n), spelled
# out so that importing this module does not load numpy.polynomial.
_GL10, _GL3 = (
    (0.5 * np.array(nodes)[:, None], 0.5 * np.array(weights)[:, None])
    for nodes, weights in (
        ([-0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
          -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
          0.4333953941292472, 0.6794095682990244, 0.8650633666889845, 0.9739065285171717],
         [0.06667134430868814, 0.1494513491505804, 0.219086362515982, 0.2692667193099965,
          0.2955242247147528, 0.2955242247147528, 0.2692667193099965, 0.219086362515982,
          0.1494513491505804, 0.06667134430868814]),
        ([-0.7745966692414834, 0.0, 0.7745966692414834],
         [0.5555555555555557, 0.8888888888888888, 0.5555555555555557]),
    )
)
# Windows per numpy block.  A kernel call allocates one workspace, two
# (nodes, block) arrays: 640 kB for the 10-point rule, 192 kB for the 3-point.
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
# The 10- and 3-point rules, each with the corner (S, V, r) of the windows
# it may take (see _rule_runs).  The 10-point rule's is its calm run, where
# curve / t^2 <= _GL_MAX_CURVE / 2 for shape >= 1 (for shape < 1 no window
# k >= 2 comes near it).  The 3-point corner lies inside it, so the runs
# nest, and keeps the estimate (1 + S) e^(S r + V r^2) / r^(2n) under
# 1e-15 (2n + 1) binomial(2n, n)^2 = 1e-15 / (c_n (2n)!), c_n the remainder
# constant of a window of width 1 (Abramowitz & Stegun 25.4.30).
_GL_RULES = (
    (_GL10, _GL_MAX_SLOPE, _GL_MAX_CURVE / 2.0, 0.0),
    (_GL3, 0.023, 1.2e-5, 200.0),
)
assert all(
    s <= s0 and v <= v0 and r >= r0
    and (1.0 + s) * math.exp(s * r + v * r * r) / r ** (2 * len(nodes))
    <= 1e-15 * (2 * len(nodes) + 1) * math.comb(2 * len(nodes), len(nodes)) ** 2
    for (_, s0, v0, r0), ((nodes, _), s, v, r) in zip(_GL_RULES, _GL_RULES[1:])
)
# Fewest windows within 7 sd of the mean the 3-point rule's run must hold,
# about the fixed cost of one kernel pass: a narrow gamma's keep one pass.
_GL_MIN_RUN = 512
# Shapes above this take the log-density about the mode in the rules.  At
# or below it the direct form's roundoff stays near 1e-13 (1.3e-13 at worst
# over shapes 1-50, scales 0.05-1e4, within 8 sd of the mode), in fewer
# steps per call.
_GL_CENTRED_SHAPE = 50.0
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
    kind: str


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
    Gauss-Legendre rule (``_gl_window_masses``) of 10 nodes, or of 3 where
    the 3-point remainder bound stays under 1e-15 of the window's mass.
    Each rule's windows form one run, found in closed form
    (``_rule_runs``).  The 3-point rule is used only where its run holds at
    least ``_GL_MIN_RUN`` windows within 7 sd of the gamma's mean, so a
    narrow gamma's windows take the 10-node rule in one pass.
    No rule window
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
    """Masses of the windows k = k_min .. k_max times e^(-shift).

    Each Gauss-Legendre rule in use takes its run from ``_rule_runs``, found
    in closed form and gated on the gamma alone, less the 3-point run inside
    it, in one kernel pass per piece; the windows outside the 10-point
    rule's calm run take incomplete-gamma differences.
    """
    probs = np.empty(k_max - k_min + 1)
    runs = _rule_runs(g)
    lo, hi = runs[0][:2]
    mode = (g.shape - 1.0) * g.scale
    for k in (*range(k_min, min(lo, k_max + 1)), *range(max(hi + 1, lo, k_min), k_max + 1)):
        a, b = max(k - 0.5, 0.0) / g.scale, (k + 0.5) / g.scale
        if k == 0 or k < mode:  # P(b) - P(a); Q(a) - Q(b) right of the mode
            inc, a, b = reg_lower_inc_gamma, b, a
        else:
            inc = reg_upper_inc_gamma
        probs[k - k_min] = max(inc(g.shape, a, shift=shift) - inc(g.shape, b, shift=shift), 0.0)
    for i, (first, last, rule) in enumerate(runs):
        inner_first, inner_last = runs[i + 1][:2] if i + 1 < len(runs) else (last + 1, last)
        for a, b in ((first, inner_first - 1), (inner_last + 1, last)):
            a, b = max(a, k_min), min(b, k_max)
            if a <= b:
                _gl_window_masses(g, a, probs[a - k_min : b - k_min + 1], shift, rule)
    return probs


def _rule_runs(g: GammaApprox) -> list[tuple[int, int, tuple[np.ndarray, np.ndarray]]]:
    """The run of windows each Gauss-Legendre rule takes, as (first, last, rule).

    The 10-point rule's calm run comes first, then the 3-point rule's if in
    use, inside it; a run without end stops near sys.maxsize.  The rule
    with the corner (S, V, r) of ``_GL_RULES`` takes the windows k >= 2
    whose log-density |slope| = |(shape-1)/t - 1/scale| is at most S at
    both edges t = k -+ 1/2, with v = curve / (k - 1/2)^2 at most V and
    k - 1/2 >= r / rho.  For n = 3 nodes that bounds the remainder
    c_n f^(2n)(xi), xi in the window: the window's mass is at least
    f(xi) / (1 + A), A the larger edge |slope|, and
    f^(2n)(xi) / ((2n)! f(xi)) is the h^2n coefficient of

        f(xi + h) / f(xi) = e^(slope h) (1 + u)^(s-1) e^(-(s-1) u),   u = h/xi,

    which Cauchy's estimate over |h| = r bounds by e^(A r + v r^2) / r^2n
    while |u| <= r / (k - 1/2) <= rho: curve = (s-1)/2 and rho = 2 for an
    integer s >= 1, rho = 0.9 for other s > 1 (a branch point at u = -1),
    and curve = 1 - s, rho = 1/2 for s < 1.  The estimate grows with A and
    v, so the corner's estimate bounds every window the rule takes.

    Each condition holds on an interval of k, so each run's ends follow in
    closed form, each settled on the conditions at its boundary window.
    The 3-point rule is not used if its run holds fewer than
    ``_GL_MIN_RUN`` windows within 7 sd of the mean.  The runs depend on
    the gamma alone, never on the range asked for.
    """
    rise, fall = g.shape - 1.0, 1.0 / g.scale
    if rise >= 0.0:
        curve, rho = 0.5 * rise, 2.0 if rise.is_integer() else 0.9
    else:
        curve, rho = -rise, 0.5
    far = 7.0 * math.sqrt(g.shape) * g.scale

    def fits(k: int, slope: float, t_min: float) -> bool:
        left, right = rise / (k - 0.5) - fall, rise / (k + 0.5) - fall
        return k >= 2 and k - 0.5 >= t_min and abs(left) <= slope and abs(right) <= slope

    runs = []
    for rule, slope, v_max, radius in _GL_RULES if 2.0 * far >= _GL_MIN_RUN else _GL_RULES[:1]:
        t_min = max(math.sqrt(curve / v_max), radius / rho)
        # the edges t with |rise / t - fall| <= slope fill [t_lo, t_hi]
        t_lo, t_hi = t_min, sys.maxsize
        if rise > 0.0:
            t_lo = max(t_lo, rise / (fall + slope))
            if fall > slope:
                t_hi = min(rise / (fall - slope), sys.maxsize)
        elif fall < slope:
            t_lo = max(t_lo, -rise / (slope - fall))
        else:
            t_lo = sys.maxsize
        first, last = max(math.ceil(min(t_lo, sys.maxsize) + 0.5), 2), math.floor(t_hi - 0.5)
        if runs and min(last, g.mean + far) - max(first, g.mean - far) < _GL_MIN_RUN:
            break
        # rounding can leave an end a window off: settle it on the conditions
        if not fits(first, slope, t_min):
            first += 1
        elif fits(first - 1, slope, t_min):
            first -= 1
        if t_hi < sys.maxsize:
            if not fits(last, slope, t_min):
                last -= 1
            elif fits(last + 1, slope, t_min):
                last += 1
        runs.append((first, last, rule))
    return runs


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
    e^(-shift), by ``rule``, ``_GL10`` or ``_GL3``.

    For shape > ``_GL_CENTRED_SHAPE`` the log-density is taken about its
    mode c = (shape-1) scale, as log f(c) + (shape-1) (log1p(u) - u) with
    u = (t - c)/c, and t - c built from small numbers, so no term of size
    (shape-1) log t cancels; far left of c, where 1 + u keeps too few
    digits, log(t/c) stands for log1p(u) (``_last_far_window``).  For
    smaller shapes it is (shape-1) log t - t/scale - log(Gamma(shape) scale^shape).
    The masses are evaluated with numpy in blocks of up to ``_GL_BLOCK``
    windows, laid out node-major, one row per node, in one workspace that
    every block of the call reuses: every step is one in-place pass.  The
    rows are added in numpy's pairwise order over a row of 10 (the 3-point
    rule as if rows of weight 0 followed), so a window's mass
    equals, bit for bit, the row sum of a (windows, 10) layout and does not
    depend on its block.
    """
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
            row = f[9]
        else:  # (f0+f1) + f2
            f[0] += f[1]
            row = f[2]
        np.add(f[0], row, out=window)


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
