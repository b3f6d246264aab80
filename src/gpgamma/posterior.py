"""Exact posterior over the integer level k given one observed count.

Under a flat (improper uniform) prior on k the posterior is supported on
k >= x, with mass proportional to the likelihood, whose log-weight is

    log k + (x - 1) log(k + g) - rate * k,      g = (lambda2 / rate) * x.

For x = 0 the likelihood collapses to exp(-rate * k) on k >= 0, a geometric
distribution.  A table starts at the mode and is truncated on both sides
under rigorous geometric tail bounds, so it covers k_min .. k_max with
k_min >= x: about 7 sd around the mode for large x at eps_tail = 1e-10.
The log-weights are evaluated in numpy blocks; each side's scan takes the
weights scaled by the mode's, exp(lw - lw_mode), with a plain running sum
carried between blocks, and the probabilities are the scaled weights over
their own sum.  A table is capped at 10^7 entries; one that needs more is
refused, as is an eps_tail so small that the scaled weights at a cut would
leave the normal floats, and an x so large that the log-weights round too
coarsely for the bound at a cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericError, PrecisionError
from .model import ModelParams, _count

__all__ = [
    "PosteriorTable",
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
_TINY = 2.2250738585072014e-308  # the smallest normal float, sys.float_info.min


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
    def dropped_term_ratio(self) -> float:
        """Ratio of the two Lerch terms in the normalizer, under the table.

        Splitting (j+g)^x = j (j+g)^(x-1) + g (j+g)^(x-1) with g = (w-1) x
        gives g E[1/k] / (1 + g E[1/k]), the sqrt(m) ~ 1 diagnostic.  It
        vanishes identically at x = 0 and m = 1, and 1 + g E[1/k] > 0
        because k >= x and g > -x when w > 0.  The left cut of
        ``exact_posterior`` bounds the 1/k-weighted mass it drops, so the
        ratio is within about eps_tail, relative, of the untruncated one.
        """
        g = (self.params.w - 1.0) * self.x
        if g == 0.0:
            return 0.0
        ks = np.arange(self.k_min, self.k_max + 1, dtype=float)
        ge = g * float(np.divide(self.probs, ks, out=ks).sum())
        return ge / (1.0 + ge)


def _limit_error(evaluated: int, x: int, eps_tail: float, achieved: float) -> NumericError:
    return NumericError(
        f"posterior table size limit of {_MAX_TERMS} entries reached: "
        f"{evaluated} terms evaluated at x={x}, eps_tail={eps_tail}; "
        f"achieved tail bound {achieved:.3e}"
    )


def _floor_error(x: int, eps_tail: float, share: float) -> PrecisionError:
    return PrecisionError(
        f"eps_tail={eps_tail} is below the float floor at x={x}: a side share of "
        f"{share:.3e} leaves the weights at a cut, scaled by the mode's, subnormal"
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
    a side's edge bounds everything past it by a geometric series.  Each
    side gets a share of ``eps_tail``: half of
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
    sum.  Probabilities are the weights scaled by the mode's,
    exp(log_weights - lw_mode), over their own sum S, so they sum to 1
    within a few ulp; ``log_normalizer`` is lw_mode + log S.

    The log-weights are evaluated in numpy blocks of at most ``_BLOCK``
    terms (128 kB of log-weights).  The first block is centred on the mode
    and sized from the spread sd = sqrt(x+1)/rate: with D = -log(eps_tail/2)
    it reaches sqrt(2D) sd + 64 terms to the left and 0.75 D/rate more to
    the right, where the posterior's tail is heavier (a gamma's upper
    quantile lies ~2/3 D/rate beyond the normal one), so one block holds
    both cuts of nearly every table that fits in it.  A side that has not
    stopped grows by blocks of the first block's reach.  Each side tests
    its weights scaled by the mode's, with their running sum added in order
    from block to block, so every term is tested as a per-term loop would
    test it: the table does not depend on the block size.

    The two sides together evaluate at most ``_MAX_TERMS`` (10^7) entries,
    ~80 MB of log-weights; a table that needs more is refused, not
    truncated early.

    Raises:
        DomainError: for invalid x or eps_tail, or when x > 0 and w <= 0
            (the weights would hit non-positive bases on the support).
        NumericError: if a side has not stopped within ``_MAX_TERMS``
            terms; the message gives the terms evaluated and the tail bound
            achieved at that side's edge.
        PrecisionError: if the mode is not finite, at rates so small that
            x/rate or w overflows; if the scaled weights at a cut would be
            subnormal: at a side share under 2.2e-308, or a little above it;
            or if the log-weights' rounding, about 2^-52 times their terms'
            size at the mode, exceeds 1% of their step at a cut: from
            x = 1.9e7 at rate 0.01, 9.0e7 at rate 0.105 and 3.3e8 at rate
            0.71 (eps_tail 1e-3; about 1.4 times as far at 1e-10).
    """
    x = _count(x)
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
    if not math.isfinite(root):
        raise PrecisionError(f"x={x} at rate={rate:.3g} has no finite mode: it solves to {root}")
    mode = max(x, round(root))
    # Dropping the tails moves E[1/k] by at most the larger share
    # (relative; the left cut raises it, the right cut lowers it), and
    # dropped_term_ratio by that times 1/(1 + g E[1/k]) <= 1/w when g < 0.
    share = eps_tail * (min(0.5, params.w) if x > 0 else 0.5)
    if share < _TINY:
        raise _floor_error(x, eps_tail, share)
    log_share = math.log(share)
    sd = math.sqrt(x + 1.0) / rate
    # Each log-weight rounds to about 2^-52 times the size of its terms at the
    # mode; the bound at a cut needs that well under the step there.
    c = max(mode, 1)
    noise = 2.0**-52 * (math.log(c) + (x - 1) * abs(math.log(c + g)) + rate * c)
    step = math.sqrt(-2.0 * log_share) / sd
    if noise > 0.01 * step:
        raise PrecisionError(
            f"x={x} is too large for eps_tail={eps_tail} at rate={rate:.3g}: the "
            f"log-weights round by {noise:.2e}, over 1% of their step {step:.2e} at a cut"
        )
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

    def cut(run: np.ndarray, prev: float, total: float) -> tuple[int, float, float]:
        # First cut along a run of log-weights leading away from the mode,
        # after ``prev``, with ``total`` the sum of the scaled weights
        # e = exp(lw - lw_mode) before run[0].  Log-concave weights fall ever
        # faster, so with S_j the running sum and rho_j = e_j / e_(j-1),
        # e_j rho_j / (1 - rho_j) bounds the terms past e_j.  Returns the first
        # j with (e_j / S_j) rho_j < share (1 - rho_j), the log of that bound
        # (1 - rho_j = -expm1(step)) and S_j, or -1 with both at the run's end.
        e = np.exp(np.concatenate(([prev], run)) - lw_mode)
        sums = np.cumsum(np.concatenate(([total], e[1:])))  # in order, whatever the block
        # the test ends at the first subnormal weight
        n = int((e < _TINY).argmax()) if e[-1] < _TINY else len(e)
        rho = e[1:n] / e[: n - 1]
        lhs = np.multiply(rho, e[1:n], out=e[1:n])
        lhs /= sums[1:n]
        passed = lhs < np.multiply(np.subtract(1.0, rho, out=rho), share, out=rho)
        hit = passed.any()
        if not hit and n < len(e):
            raise _floor_error(x, eps_tail, share)
        j = int(passed.argmax()) if hit else len(run) - 1
        step = float(run[j]) - (float(run[j - 1]) if j else prev)
        log_bound = math.inf if step >= 0.0 else float(run[j]) + step - math.log(-math.expm1(step))
        return (j if hit else -1), log_bound, float(sums[j + 1])

    # Left side, k = mode, mode - 1, ...: the bound on the terms t_j / j
    # decides, as sum_(j<k) t_j <= (k-1) sum_(j<k) t_j / j.
    k_min, log_left, total = x, -math.inf, 1.0
    scan = mode > x
    if scan and lo == x:
        # With the whole left side in this block, test k = x + 1 first: its
        # relative bound is the smallest on the left (t_k / k is
        # log-concave).  The bound exceeds u s, u = t_(x+1)/(x+1) and
        # s = u / (t_(x+2)/(x+2)), and sum_(x+1..mode) t_j / j is under
        # sum_(x..mode) t_j / (x+1): unless u s passes against that,
        # nothing is cut.
        total = float(np.exp(lw[: i + 1] - lw_mode).sum())
        lu = lw[1:3] - log_k[1:3]  # log(t_k / k) at k = x + 1, x + 2
        log_sum = lw_mode + math.log(total)  # of t over x .. mode
        scan = mode > x + 1 and 2 * lu[0] - lu[1] < log_share + log_sum - math.log(x + 1)
    if scan:
        mass, first = lw[i::-1], mode
        run = mass - log_k[i::-1]  # log(t_k / k)
        # the mode's own value as the one before it: a ratio of 1, no cut
        prev, partial, total = float(run[0]), 0.0, 0.0
        while True:
            j, log_bound, partial = cut(run, prev, partial)
            kept = mass[: j + 1] if j >= 0 else mass
            total += float(np.exp(kept - lw_mode).sum())
            if j >= 0 or lo == x:
                break
            if hi - lo >= _MAX_TERMS:
                raise _limit_error(hi - lo, x, eps_tail, math.exp(log_bound - lw_mode) / partial)
            prev, first, stop = float(run[-1]), lo - 1, lo
            lo = max(x, lo - grow, hi - _MAX_TERMS)
            lw, log_k = evaluate(lo, stop)
            blocks.insert(0, lw)
            mass = lw[::-1]
            run = mass - log_k[::-1]
        if j >= 0 and first - j > x:
            k_min = first - j
            log_left = math.log(k_min - 1) + log_bound
        del mass, kept  # views into the blocks

    # Right side, k = mode + 1, ..., relative to the whole table so far.
    run, first, prev = right_of_mode, mode + 1, lw_mode
    log_bound = math.inf  # the first block may end at the mode (a block of one)
    while True:
        if run.size:
            j, log_bound, total = cut(run, prev, total)
            if j >= 0:
                break
            prev = float(run[-1])
        if hi - lo >= _MAX_TERMS:
            raise _limit_error(hi - lo, x, eps_tail, math.exp(log_bound - lw_mode) / total)
        first, start = hi, hi
        hi = min(hi + grow, lo + _MAX_TERMS)
        run = evaluate(start, hi)[0]
        blocks.append(run)
    k_max = first + j

    # k_min lies in the first block and k_max in the last: copy just k_min ..
    # k_max, with no other array alive, and drop the blocks before probs
    del lw, log_k, right_of_mode, run
    blocks[0] = blocks[0][k_min - lo :]
    blocks[-1] = blocks[-1][: len(blocks[-1]) - (hi - 1 - k_max)]
    lws = np.concatenate(blocks)
    del blocks
    probs = np.subtract(lws, lw_mode)
    np.exp(probs, out=probs)
    total = float(probs.sum())
    probs /= total
    log_normalizer = lw_mode + math.log(total)
    return PosteriorTable(
        params=params,
        x=x,
        k_min=k_min,
        k_max=k_max,
        log_weights=lws,
        probs=probs,
        tail_bound=math.exp(log_left - log_normalizer) + math.exp(log_bound - log_normalizer),
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

