import math

import mpmath
import pytest

from gpgamma.errors import DomainError
from gpgamma.model import derive_params

from oracles import direct_gp_pmf, gp_log_pmf

SMALL_RATE = (1.5, 0.1, -0.05)
LARGE_RATE = (1.5, 0.5, -0.05)


class TestDeriveParams:
    def test_reference_sets(self):
        p = derive_params(*SMALL_RATE)
        assert p.m == pytest.approx(math.exp(0.1), rel=1e-15)
        assert float(f"{p.m:.2g}") == 1.1
        q = derive_params(*LARGE_RATE)
        assert q.m == pytest.approx(math.exp(0.7), rel=1e-15)
        assert float(f"{q.m:.2g}") == 2.0

    def test_poisson_point(self):
        p = derive_params(0.0, 0.3, 0.0)
        assert p.m == 1.0
        assert p.lambda2 == 0.0
        assert p.sqrt_m == 1.0
        assert p.w == 1.0
        assert p.rate == 0.3

    def test_derived_quantities(self):
        p = derive_params(*SMALL_RATE)
        assert p.sqrt_m**2 == pytest.approx(p.m, rel=1e-15)
        assert p.rate == p.b * p.sqrt_m
        assert p.w == pytest.approx(1.0 + p.lambda2 / p.rate, rel=1e-15)

    @pytest.mark.parametrize("b", [0.0, 1.0, 1.5, -0.1])
    def test_b_range(self, b):
        with pytest.raises(DomainError):
            derive_params(1.0, b, 0.0)

    def test_dispersion_range_names_constraint(self):
        with pytest.raises(DomainError, match="lambda2"):
            derive_params(0.0, 0.5, math.log(4.0) + 0.1)
        with pytest.raises(DomainError):
            derive_params(0.0, 0.5, 5000.0)  # exp overflow -> out of range

    def test_non_finite(self):
        with pytest.raises(DomainError):
            derive_params(math.nan, 0.5, 0.0)


class TestGpLogPmf:
    def test_poisson_reduction(self):
        # at m = 1 the pmf is Poisson with mean k*b
        p = derive_params(0.0, 0.3, 0.0)
        mean = 4 * 0.3
        expected = math.log(math.exp(-mean) * mean**2 / 2.0)
        assert gp_log_pmf(p, 4, 2) == pytest.approx(expected, rel=1e-14)

    def test_x_zero_collapses(self):
        p = derive_params(*SMALL_RATE)
        assert gp_log_pmf(p, 3, 0) == pytest.approx(-3 * p.rate, rel=1e-14)

    def test_direct_formula_oracle(self):
        p = derive_params(*SMALL_RATE)
        expected = direct_gp_pmf(p, 12, 7)
        assert math.exp(gp_log_pmf(p, 12, 7)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("abc", [SMALL_RATE, LARGE_RATE, (0.0, 0.3, 0.0)])
    @pytest.mark.parametrize("k,x", [(1, 0), (5, 3), (12, 7), (40, 12), (200, 30)])
    def test_direct_grid(self, abc, k, x):
        p = derive_params(*abc)
        expected = direct_gp_pmf(p, k, x)
        assert math.exp(gp_log_pmf(p, k, x)) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_level(self):
        p = derive_params(*SMALL_RATE)
        assert gp_log_pmf(p, 0, 0) == 0.0
        assert gp_log_pmf(p, 0, 1) == -math.inf

    def test_support_guard(self):
        # m = 3 makes lambda2 strongly negative; small k with large x goes
        # below the supported region
        p = derive_params(0.0, 0.05, math.log(3.0))
        with pytest.raises(DomainError, match="not positive"):
            gp_log_pmf(p, 1, 5)

    def test_poisson_normalization(self):
        p = derive_params(0.0, 0.3, 0.0)
        for k in (1, 10, 100):
            mean = k * 0.3
            x_max = int(mean + 50.0 * math.sqrt(mean + 1.0))
            total = sum(math.exp(gp_log_pmf(p, k, x)) for x in range(x_max + 1))
            assert total > 1.0 - 1e-9

    def test_large_x_against_mpmath(self):
        p = derive_params(*SMALL_RATE)
        k, x = 2100, 200
        lam1 = mpmath.mpf(k) * mpmath.mpf(p.rate)
        lam2 = mpmath.mpf(p.lambda2)
        base = lam1 + x * lam2
        expected = float(
            mpmath.log(lam1) + (x - 1) * mpmath.log(base) - base - mpmath.loggamma(x + 1)
        )
        assert gp_log_pmf(p, k, x) == pytest.approx(expected, rel=1e-11)

    def test_negative_args(self):
        p = derive_params(*SMALL_RATE)
        with pytest.raises(DomainError):
            gp_log_pmf(p, -1, 0)
        with pytest.raises(DomainError):
            gp_log_pmf(p, 1, -2)


class TestModelMoments:
    # The model states E[X | k] = k b and Var[X | k] = k b / m.  k = 1 at
    # m > 1 is left out: there lambda2 < 0 ends the pmf's support after a
    # few counts, and that truncation moves the mean by 0.1% (m = e^0.1)
    # and 6% (m = e^0.7).
    @pytest.mark.parametrize(
        "abc,k",
        [
            pytest.param(abc, k, id=f"m={tag}-k={k}")
            for abc, tag, ks in (
                ((0.0, 0.3, 0.0), "1", (1, 10, 100)),
                ((0.0, 0.3, math.log(0.5)), "0.5", (1, 10, 100)),
                (SMALL_RATE, "e^0.1", (10, 100)),
                (LARGE_RATE, "e^0.7", (10, 100)),
            )
            for k in ks
        ],
    )
    def test_stated_moments(self, abc, k):
        p = derive_params(*abc)
        probs = []
        for x in range(int(k * p.b + 60.0 * math.sqrt(k * p.b / p.m + 1.0)) + 60):
            if k * p.rate + x * p.lambda2 <= 0.0:
                break  # past the end of the support
            probs.append(math.exp(gp_log_pmf(p, k, x)))
        assert math.fsum(probs) == pytest.approx(1.0, rel=1e-12)
        mean = math.fsum(x * q for x, q in enumerate(probs))
        var = math.fsum((x - mean) ** 2 * q for x, q in enumerate(probs))
        assert mean == pytest.approx(k * p.b, rel=1e-9)
        assert var == pytest.approx(k * p.b / p.m, rel=1e-9)
