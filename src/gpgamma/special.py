"""Scalar special-function kernel.

The regularized lower and upper incomplete gamma functions.  Both are pure
and may be called concurrently from any number of threads.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, NumericError

__all__ = [
    "reg_lower_inc_gamma",
    "reg_upper_inc_gamma",
]

_EPS = sys.float_info.epsilon
_INC_GAMMA_MAX_ITER = 500
_TINY = 1e-300
_MIN_SHIFT = -math.log(sys.float_info.max)
# Loader's series for stirlerr(n) = log n! - (n + 1/2) log n + n - log(2 pi)/2,
# exact to ~2e-16 for n > 15
_STIRLERR = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def reg_lower_inc_gamma(u: float, v: float, *, shift: float = 0.0) -> float:
    """Regularized lower incomplete gamma function P(u, v).

    P(u, v) = (1/Gamma(u)) * integral_0^v t^(u-1) e^(-t) dt, computed by the
    classic two-branch scheme: a power series in v when v < u + 1 and a
    modified-Lentz continued fraction for the complement Q(u, v) otherwise.
    Both branches converge in a few iterations on their side of the split,
    except near v = u, where they take up to about 8.5 sqrt(u); the
    iteration cap grows with sqrt(u) to allow them.

    Returns a value in [0, 1], non-decreasing in ``v`` for fixed ``u``.
    With ``shift`` it returns P(u, v) e^(-shift) instead: the shift enters
    the exponent of the prefactor, so a far-tail value that would underflow
    keeps its digits.

    Raises:
        DomainError: if ``u <= 0``, ``v < 0`` or either argument is not finite.
        NumericError: if the iteration cap is hit before convergence.
    """
    return _reg_inc_gamma(u, v, False, shift)


def reg_upper_inc_gamma(u: float, v: float, *, shift: float = 0.0) -> float:
    """Regularized upper incomplete gamma function Q(u, v) = 1 - P(u, v).

    Same two branches as ``reg_lower_inc_gamma``.  When v >= u + 1, Q comes
    straight from the continued fraction, so far upper tails keep their
    relative accuracy where 1 - P would cancel to 0.  On the series side
    (v < u + 1) it returns 1 - P, which loses digits only for tiny ``u``.

    Returns a value in [0, 1], non-increasing in ``v`` for fixed ``u``;
    ``shift`` scales it by e^(-shift) as in ``reg_lower_inc_gamma``.

    Raises:
        DomainError: if ``u <= 0``, ``v < 0`` or either argument is not finite.
        NumericError: if the iteration cap is hit before convergence.
    """
    return _reg_inc_gamma(u, v, True, shift)


def _reg_inc_gamma(u: float, v: float, upper: bool, shift: float) -> float:
    # P(u, v), or Q(u, v) when ``upper``, times e^(-shift): the series gives
    # P, the continued fraction gives Q, and the other one is the complement
    # of the one found, taken from e^(-shift) in place of 1.
    name = "reg_upper_inc_gamma" if upper else "reg_lower_inc_gamma"
    if not math.isfinite(u) or u <= 0.0:
        raise DomainError(f"{name} requires finite u > 0, got u={u!r}")
    if not math.isfinite(v) or v < 0.0:
        raise DomainError(f"{name} requires finite v >= 0, got v={v!r}")
    # e^(-shift) in place of 1; inf where it overflows, a shift that is
    # only taken for values far below 1
    one = math.exp(-shift) if shift > _MIN_SHIFT else math.inf
    if v == 0.0:
        return one if upper else 0.0

    # Shared prefactor v^u e^{-v} / Gamma(u) e^(-shift), in Loader's form
    # u dpois(u; v): free of the cancellation between u log(v) and
    # lgamma(u) at large u, and underflowing harmlessly to 0 far out in
    # either tail.
    log_front = (
        math.log(u) - 0.5 * math.log(2.0 * math.pi * u) - _stirlerr(u) - _bd0(u, v) - shift
    )
    # Near v = u the series terms fall like e^(-n^2 / 2u): about sqrt(72 u)
    # of them come before one drops below eps, so the cap grows with sqrt(u).
    max_iter = _INC_GAMMA_MAX_ITER + int(9.0 * math.sqrt(u))

    if v < u + 1.0:
        # Lower series: P = front * sum_{n>=0} v^n / (u (u+1) ... (u+n)).
        term = 1.0 / u
        total = term
        den = u
        for _ in range(max_iter):
            den += 1.0
            term *= v / den
            total += term
            if abs(term) < abs(total) * _EPS:
                p = min(one, total * math.exp(log_front))
                return one - p if upper else p
        raise NumericError(
            f"incomplete gamma series did not converge for u={u}, v={v}"
        )

    # Continued fraction for Q(u, v), modified Lentz recurrence.
    b = v + 1.0 - u
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, max_iter + 1):
        an = -i * (i - u)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            q = math.exp(log_front) * h
            return min(one, q) if upper else max(0.0, one - q)
    raise NumericError(
        f"incomplete gamma continued fraction did not converge for u={u}, v={v}"
    )


def _stirlerr(n: float) -> float:
    # log n! - (n + 1/2) log n + n - log(2 pi)/2, directly where the terms
    # cancel little
    if n <= 15.0:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _HALF_LOG_2PI
    nn = n * n
    s0, s1, s2, s3, s4 = _STIRLERR
    return (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    # Loader's deviance x log(x/m) + m - x >= 0, by its series in
    # v = (x - m)/(x + m) where the two parts cancel; directly elsewhere,
    # through the exact x - m when m/2 <= x <= 2m, where x/m would round
    if abs(x - m) >= 0.1 * (x + m):
        if 0.5 * m <= x <= 2.0 * m:
            return x * math.log1p((x - m) / m) + m - x
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    total = (x - m) * v
    term = 2.0 * x * v
    v *= v
    j = 1
    while True:
        term *= v
        grown = total + term / (2 * j + 1)
        if grown == total:
            return total
        total = grown
        j += 1

