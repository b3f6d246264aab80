"""Scalar special-function kernel.

The regularized lower and upper incomplete gamma functions, Bernoulli
numbers and polynomials, integer power sums, and the Lerch transcendent
for non-positive integer order.  All functions are pure and may be called
concurrently from any number of threads; the one shared state, the exact
Bernoulli table, is immutable once built on first use.
"""

from __future__ import annotations

import functools
import math
import sys

from .errors import DomainError, NumericError, UnsupportedOrderError

__all__ = [
    "MAX_BERNOULLI_ORDER",
    "bernoulli_numbers",
    "bernoulli_polynomial",
    "lerch_phi",
    "lerch_phi_bernoulli",
    "power_sum",
    "reg_lower_inc_gamma",
    "reg_upper_inc_gamma",
]

MAX_BERNOULLI_ORDER = 60

_EPS = sys.float_info.epsilon
_INC_GAMMA_MAX_ITER = 500
_LERCH_MAX_TERMS = 1_000_000
_TINY = 1e-300
_MIN_SHIFT = -math.log(sys.float_info.max)


def reg_lower_inc_gamma(u: float, v: float, *, shift: float = 0.0) -> float:
    """Regularized lower incomplete gamma function P(u, v).

    P(u, v) = (1/Gamma(u)) * integral_0^v t^(u-1) e^(-t) dt, computed by the
    classic two-branch scheme: a power series in v when v < u + 1 and a
    modified-Lentz continued fraction for the complement Q(u, v) otherwise.
    Both branches converge in a handful of iterations on their side of the
    split; a hard cap guards against pathological arguments.

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

    # Shared prefactor v^u e^{-v} / Gamma(u) e^(-shift); underflows
    # harmlessly to 0 far out in either tail.
    log_front = u * math.log(v) - v - math.lgamma(u) - shift

    if v < u + 1.0:
        # Lower series: P = front * sum_{n>=0} v^n / (u (u+1) ... (u+n)).
        term = 1.0 / u
        total = term
        den = u
        for _ in range(_INC_GAMMA_MAX_ITER):
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
    for i in range(1, _INC_GAMMA_MAX_ITER + 1):
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


@functools.cache
def _bernoulli_fractions() -> tuple:
    from fractions import Fraction  # imported here: it loads decimal, which nothing else needs

    # Defining recurrence b_n = -(1/(n+1)) sum_{j<n} C(n+1, j) b_j, run in
    # exact rational arithmetic: the alternating sum cancels catastrophically
    # in floating point (the odd-order zeros come out ~1e19 near order 60).
    # Built once, on first use, up to the cap; each b_n depends on lower
    # orders only, so every shorter table is a prefix of this one.
    out = [Fraction(1)]
    for n in range(1, MAX_BERNOULLI_ORDER + 1):
        acc = Fraction(0)
        for j in range(n):
            acc += math.comb(n + 1, j) * out[j]
        out.append(-acc / (n + 1))
    return tuple(out)


def bernoulli_numbers(max_order: int) -> tuple[float, ...]:
    """Bernoulli numbers b_0 .. b_max_order as a tuple of floats.

    Uses the convention b_1 = -1/2, under which B_n(0) = b_n and the
    power-sum identity holds as written.  Orders above
    ``MAX_BERNOULLI_ORDER`` are refused: beyond that the magnitudes
    (|b_60| ~ 2e34) leave no headroom for downstream float arithmetic.
    """
    if max_order < 0:
        raise DomainError(f"Bernoulli order must be >= 0, got {max_order}")
    if max_order > MAX_BERNOULLI_ORDER:
        raise UnsupportedOrderError(
            f"Bernoulli order {max_order} exceeds the supported cap "
            f"{MAX_BERNOULLI_ORDER}"
        )
    return tuple(map(float, _bernoulli_fractions()[: max_order + 1]))


def bernoulli_polynomial(n: int, x: float) -> float:
    """Bernoulli polynomial B_n(x) = sum_j C(n, j) b_{n-j} x^j, for 0 <= n <= 60."""
    b = bernoulli_numbers(n)
    return math.fsum(math.comb(n, j) * b[n - j] * x**j for j in range(n + 1))


def power_sum(n: int, upper: int) -> float:
    """Sum of r**n over r = 0 .. upper-1, exact in integers (0**0 counts as 1)."""
    if n < 0:
        raise DomainError(f"exponent must be >= 0, got {n}")
    if upper < 0:
        raise DomainError(f"upper must be >= 0, got {upper}")
    return float(sum(r**n for r in range(upper)))


def lerch_phi(z: float, s: int, a: float, eps: float = 1e-12) -> float:
    """Lerch transcendent Phi(z, s, a) = sum_{k>=0} z^k (a+k)^(-s).

    Supported domain: 0 < z < 1, integer s <= 0, a > 0.  With s = -h the
    terms are z^k (a+k)^h, a polynomial-times-geometric sequence whose term
    ratio z*((a+k+1)/(a+k))^h decreases monotonically towards z.  Once the
    ratio falls below r = (1+z)/2 < 1 the remaining tail is bounded by
    term * r/(1-r); summation stops when that bound drops below ``eps``
    times the partial sum.

    Raises:
        DomainError: for arguments outside the supported domain.
        NumericError: on overflow or if the term cap is exhausted (z too
            close to 1 for the requested ``eps``).
    """
    if not math.isfinite(z) or abs(z) >= 1.0:
        raise DomainError(f"lerch_phi requires |z| < 1, got z={z!r}")
    if z <= 0.0:
        raise DomainError(f"lerch_phi supports 0 < z < 1 only, got z={z!r}")
    if s != int(s) or s > 0:
        raise DomainError(f"lerch_phi supports integer s <= 0 only, got s={s!r}")
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError(f"lerch_phi requires a > 0, got a={a!r}")
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got eps={eps!r}")

    h = -int(s)
    r = 0.5 * (1.0 + z)
    tail_factor = r / (1.0 - r)
    partial = 0.0
    zk = 1.0
    for k in range(_LERCH_MAX_TERMS):
        try:
            term = zk * (a + k) ** h
        except OverflowError:
            term = math.inf
        if not math.isfinite(term):
            raise NumericError(
                f"lerch_phi term overflowed at k={k} for z={z}, s={s}, a={a}"
            )
        partial += term
        ratio = z * ((a + k + 1.0) / (a + k)) ** h
        if ratio <= r and term * tail_factor < eps * partial:
            return partial
        zk *= z
    raise NumericError(
        f"lerch_phi did not converge within {_LERCH_MAX_TERMS} terms "
        f"for z={z}, s={s}, a={a}, eps={eps}"
    )


def lerch_phi_bernoulli(z: float, h: int, a: float, terms: int) -> float:
    """Lerch transcendent at order -h via its Bernoulli-polynomial expansion.

    Evaluates h! z^(-a) (log 1/z)^(-(h+1)) minus the correction series
    sum_{r<terms} B_{h+r+1}(a) (log z)^r / (r! (h+r+1)), all times z^(-a)
    on the correction.  Requires 0 < z < 1 with |log z| < 2*pi; the
    truncation error shrinks as ``terms`` grows, fastest when log(1/z)
    is small.
    """
    if not (0.0 < z < 1.0):
        raise DomainError(f"lerch_phi_bernoulli requires 0 < z < 1, got z={z!r}")
    logz = math.log(z)
    if abs(logz) >= 2.0 * math.pi:
        raise DomainError(f"expansion requires |log z| < 2*pi, got log z={logz}")
    if h < 0:
        raise DomainError(f"order h must be >= 0, got {h}")
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    if h + terms > MAX_BERNOULLI_ORDER:
        raise UnsupportedOrderError(
            f"expansion needs Bernoulli order {h + terms} > cap {MAX_BERNOULLI_ORDER}"
        )
    front = math.factorial(h) * z**-a * (-logz) ** -(h + 1)
    correction = math.fsum(
        bernoulli_polynomial(h + r + 1, a) * logz**r / (math.factorial(r) * (h + r + 1))
        for r in range(terms)
    )
    return front - z**-a * correction
