"""Exact posterior over the integer level k given one observed count.

Under a flat (improper uniform) prior on k the posterior is supported on
k >= x, with mass proportional to the likelihood, whose log-weight is

    log k + (x - 1) log(k + g) - rate * k,      g = (lambda2 / rate) * x.

For x = 0 the likelihood collapses to exp(-rate * k) on k >= 0, a geometric
distribution.  A table starts at the mode and is truncated on both sides
under rigorous geometric tail bounds, so it covers k_min .. k_max with
k_min >= x: about 7 sd around the mode for large x at eps_tail = 1e-10.
The log-weights are evaluated in numpy blocks that carry a streaming
log-sum-exp (running max and scaled partial sum) from one block to the
next, so the stopping terms are found without leaving log space and tables
for large x never leave it until the final normalization.  A table is
capped at 10^7 entries; one that needs more is refused.
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

# Most terms exact_posterior evaluates, both sides of the mode together
# (~80 MB of log-weights).
_MAX_TERMS = 10**7
# Terms per numpy block, 128 kB of log-weights; its evaluation and bounds
# take a few buffers of that size.
_BLOCK = 16384
_MOMENT_TAIL_CAP = 1e-6
_LERCH_EPS = 1e-12


@dataclass(frozen=True)
class PosteriorTable:
    """Truncated, normalized posterior pmf of k given X = x.

    ``probs[i]`` is the posterior probability of k = k_min + i; the support
    runs k_min .. k_max with k_min >= x (k_min = x unless the left cut
    drops the terms next to x).  ``tail_bound`` is a rigorous upper bound
    on the relative mass the truncation discarded below k_min and beyond
    k_max together.  Completed tables are immutable and safe to share
    across threads.
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

    @cached_property
    def _mean_inverse(self) -> float:
        # E[1/k] under the table, for dropped_term_ratio; once per table too
        ks = np.arange(self.k_min, self.k_max + 1, dtype=float)
        return float(np.divide(self.probs, ks, out=ks).sum())


def _outward_cut(
    run: np.ndarray, state: tuple[float, float], log_share: float
) -> tuple[int, float, float]:
    """First cut along a run of log-weights that leads away from the mode.

    ``state`` holds the log of the running sum before ``run[0]`` and the
    log-weight before it.  The tail bound at entry i is
    log(t_i rho_i / (1 - rho_i) / S_i), where S_i is the running sum through
    ``run[i]`` and rho_i = t_i / t_(i-1) the term ratio there (+inf while
    rho_i >= 1).  Along log-concave weights the ratio only falls further
    out, so the geometric series bounds every term past ``run[i]``.  Returns
    the first j whose bound is under ``log_share``, with that bound and
    log S_j, or -1 with the two values at the run's last entry.
    """
    log_before, prev = state
    # run entries lie at most ~log(mode) above the first (t_k / k rises
    # below the mode), so exp cannot overflow
    top = max(log_before, float(run[0]))
    log_partial = run - top  # one buffer for exp, the running sum and log
    np.cumsum(np.exp(log_partial, out=log_partial), out=log_partial)
    np.log(np.add(log_partial, math.exp(log_before - top), out=log_partial), out=log_partial)
    log_partial += top
    step = np.empty_like(run)
    step[0] = run[0] - prev
    np.subtract(run[1:], run[:-1], out=step[1:])
    bound = run + step
    bound -= log_partial
    # t_i rho_i / S_i is under the bound: no entry before the first i where it
    # passes (the last if none does) can pass, so only i on take 1/(1 - rho_i)
    near = bound < log_share
    i = int(near.argmax()) if near.any() else len(run) - 1
    tail = np.minimum(step[i:], 0.0, out=step[i:])
    with np.errstate(divide="ignore"):  # a step of 0 gives log(0) = -inf
        bound[i:] -= np.log(np.negative(np.expm1(tail, out=tail), out=tail), out=tail)
    cut = np.less(bound[i:], log_share, out=near[i:])
    j = i + int(cut.argmax()) if cut.any() else -1
    return j, float(bound[j]), float(log_partial[j])


def _limit_error(evaluated: int, x: int, eps_tail: float, log_bound: float) -> NumericError:
    achieved = math.exp(log_bound) if log_bound < 709.0 else math.inf
    return NumericError(
        f"posterior table size limit of {_MAX_TERMS} entries reached: "
        f"{evaluated} terms evaluated at x={x}, eps_tail={eps_tail}; "
        f"achieved tail bound {achieved:.3e}"
    )


def _check_eps_tail(eps_tail: float) -> None:
    if not 0.0 < eps_tail <= 1e-3:
        raise DomainError(f"eps_tail must lie in (0, 1e-3], got {eps_tail!r}")


def exact_posterior(
    params: ModelParams, x: int, eps_tail: float = 1e-10
) -> PosteriorTable:
    """Posterior table of k given X = x, truncated to relative tail eps_tail.

    The table starts at the mode, the root of 1/k + (x-1)/(k+g) = rate
    rounded and clipped to k >= x (0 at x = 0), and grows outward on both
    sides.  For w > 0 the weights t_k are log-concave, so the term ratio at
    a side's edge bounds everything past it by a geometric series
    (``_outward_cut``).  Each side gets a share of ``eps_tail``: half of
    it, or w eps_tail when x > 0 and w < 1/2, so that ``dropped_term_ratio``
    stays within ``eps_tail`` of the untruncated ratio (see below):

    - the left side stops at the first k_min below the mode where that
      bound on the terms t_k / k (log-concave too), which
      ``dropped_term_ratio`` sums, is under its share relative to their sum
      over k_min .. mode; (k_min - 1) times it then bounds the mass dropped,
      under the same share of the sum of t_k over k_min .. mode.  The left
      side stops at k_min = x, dropping nothing, when no k above x passes;
    - the right side then stops at the first k_max where the bound on t_k,
      relative to the sum of the whole table up to k_max, is under its
      share.

    ``tail_bound`` is the sum of the two bounds relative to the table's
    sum.  Probabilities are normalized over the truncated support.

    The log-weights are evaluated in numpy blocks of at most ``_BLOCK``
    terms (128 kB of log-weights).  The first block is centred on the mode
    and sized from the spread sd = sqrt(x+1)/rate: with D = -log(eps_tail/2)
    it reaches sqrt(2D) sd + 64 terms to the left and 0.75 D/rate more to
    the right, where the posterior's tail is heavier (a gamma's upper
    quantile lies ~2/3 D/rate beyond the normal one), so one block holds
    both cuts of nearly every table that fits in it.  A side that has not
    stopped grows by blocks of the first block's reach.  Each side carries
    its running log-sum-exp from block to block, so every term is tested as
    a per-term loop would test it, and the normalizer is summed once over
    the finished table: the table does not depend on the block size.

    The two sides together evaluate at most ``_MAX_TERMS`` (10^7) entries,
    ~80 MB of log-weights; a table that needs more is refused, not
    truncated early.

    Raises:
        DomainError: for invalid x or eps_tail, or when x > 0 and w <= 0
            (the weights would hit non-positive bases on the support).
        NumericError: if a side has not stopped within ``_MAX_TERMS``
            terms; the message gives the terms evaluated and the tail bound
            achieved at that side's edge.
    """
    if x < 0:
        raise DomainError(f"x must be a non-negative integer, got x={x}")
    _check_eps_tail(eps_tail)
    if x > 0 and params.w <= 0.0:
        raise DomainError(
            f"posterior with x > 0 requires w = 1 + lambda2/rate > 0, got w={params.w}"
        )

    rate = params.rate
    g = (params.w - 1.0) * x

    def evaluate(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray | None]:
        # log t_k for k = lo .. hi-1, and log k when x > 0
        ks = np.arange(lo, hi, dtype=float)
        if x == 0:
            return np.multiply(ks, -rate, out=ks), None
        log_k = np.log(ks)
        lw = ks + g
        np.log(lw, out=lw)
        lw *= x - 1
        lw += log_k
        lw -= np.multiply(ks, rate, out=ks)
        return lw, log_k

    # the mode solves rate k^2 - (x - rate g) k - g = 0
    lin = x - rate * g
    root = (lin + math.sqrt(max(lin * lin + 4.0 * rate * g, 0.0))) / (2.0 * rate)
    mode = max(x, round(root))
    # Dropping the tails moves E[1/k] by at most the larger share
    # (relative; the left cut raises it, the right cut lowers it), and
    # dropped_term_ratio by that times 1/(1 + g E[1/k]) <= 1/w when g < 0.
    log_share = math.log(eps_tail * (min(0.5, params.w) if x > 0 else 0.5))
    sd = math.sqrt(x + 1.0) / rate
    spread = math.ceil(math.sqrt(-2.0 * log_share) * sd) + 64
    reach = spread + math.ceil(-0.75 * log_share / rate)
    budget = min(_BLOCK, _MAX_TERMS)
    lo = max(x, mode - min(spread, budget // 2))
    hi = min(mode + reach + 1, lo + budget)
    grow = min(_BLOCK, reach)  # later blocks on either side
    lw, log_k = evaluate(lo, hi)
    blocks = [lw]
    i = mode - lo
    right_of_mode = lw[i + 1 :]
    lw_mode = float(lw[i])

    # Left side, k = mode, mode - 1, ...: the bound on the terms t_j / j
    # decides, as sum_(j<k) t_j <= (k-1) sum_(j<k) t_j / j.
    k_min, log_left, log_sum = x, -math.inf, lw_mode
    scan = mode > x
    if scan and lo == x:
        # With the whole left side in this block, test k = x + 1 first: its
        # relative bound is the smallest on the left (t_k / k is
        # log-concave).  The bound exceeds u s, u = t_(x+1)/(x+1) and
        # s = u / (t_(x+2)/(x+2)), and sum_(x+1..mode) t_j / j is under
        # sum_(x..mode) t_j / (x+1): unless u s passes against that,
        # nothing is cut.
        log_sum = lw_mode + math.log(float(np.exp(lw[: i + 1] - lw_mode).sum()))
        lu = lw[1:3] - log_k[1:3]  # log(t_k / k) at k = x + 1, x + 2
        scan = mode > x + 1 and 2 * lu[0] - lu[1] < log_share + log_sum - math.log(x + 1)
    if scan:
        mass, first = lw[i::-1], mode
        run = mass - log_k[i::-1]  # log(t_k / k)
        state, log_sum = (-math.inf, -math.inf), -math.inf
        while True:
            j, log_bound, log_partial = _outward_cut(run, state, log_share)
            kept = mass[: j + 1] if j >= 0 else mass
            top = max(log_sum, float(kept[0]))  # t falls away from the mode
            log_sum = top + math.log(math.exp(log_sum - top) + float(np.exp(kept - top).sum()))
            if j >= 0 or lo == x:
                break
            if hi - lo >= _MAX_TERMS:
                raise _limit_error(hi - lo, x, eps_tail, log_bound)
            state = (log_partial, float(run[-1]))
            first, stop = lo - 1, lo
            lo = max(x, lo - grow, hi - _MAX_TERMS)
            lw, log_k = evaluate(lo, stop)
            blocks.insert(0, lw)
            mass = lw[::-1]
            run = mass - log_k[::-1]
        if j >= 0 and first - j > x:
            k_min = first - j
            log_left = math.log(k_min - 1) + (log_bound + log_partial)
        del mass, kept  # views into the blocks

    # Right side, k = mode + 1, ..., relative to the whole table so far.
    run, first, state = right_of_mode, mode + 1, (log_sum, lw_mode)
    log_bound = math.inf  # the first block may end at the mode (a block of one)
    while True:
        if run.size:
            j, log_bound, log_partial = _outward_cut(run, state, log_share)
            if j >= 0:
                break
            state = (log_partial, float(run[-1]))
        if hi - lo >= _MAX_TERMS:
            raise _limit_error(hi - lo, x, eps_tail, log_bound)
        first, start = hi, hi
        hi = min(hi + grow, lo + _MAX_TERMS)
        run = evaluate(start, hi)[0]
        blocks.append(run)
    k_max = first + j
    log_right = log_bound + log_partial

    # k_min lies in the first block and k_max in the last: copy just k_min ..
    # k_max, with no other array alive, and drop the blocks before probs
    del lw, log_k, right_of_mode, run
    blocks[0] = blocks[0][k_min - lo :]
    blocks[-1] = blocks[-1][: len(blocks[-1]) - (hi - 1 - k_max)]
    lws = np.concatenate(blocks)
    del blocks
    peak = float(lws.max())
    probs = np.subtract(lws, peak)  # one buffer for exp(lws - peak), then probs
    log_normalizer = peak + math.log(float(np.exp(probs, out=probs).sum()))
    np.exp(np.subtract(lws, log_normalizer, out=probs), out=probs)
    return PosteriorTable(
        params=params,
        x=x,
        k_min=k_min,
        k_max=k_max,
        log_weights=lws,
        probs=probs,
        tail_bound=math.exp(log_left - log_normalizer)
        + math.exp(log_right - log_normalizer),
        log_normalizer=log_normalizer,
    )


def posterior_moments(table: PosteriorTable) -> tuple[float, float]:
    """Mean and variance of the normalized truncated posterior pmf.

    The dropped tails lie ~7 sd out, so their mass weighs in the moments by
    about its distance from the mean: at eps_tail = 1e-10 the mean is
    within ~1e-9 and the variance within ~3e-8 relative of the full
    posterior's (3e-9 at x >= 100; measured against tables at 1e-16).
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
    span = k_min, k_min + len(probs)
    terms = np.arange(*span, dtype=float)
    mu = float(np.multiply(terms, probs, out=terms).sum())
    del terms  # one table-sized buffer at a time
    dev = np.arange(*span, dtype=float)
    dev -= mu
    return mu, float(np.multiply(np.square(dev, out=dev), probs, out=dev).sum())


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
