import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgamma.errors import DomainError, NumericError
from gpgamma.special import lerch_phi, reg_lower_inc_gamma, reg_upper_inc_gamma

from oracles import (
    bernoulli_lerch_expansion,
    bernoulli_power_sum,
    lerch_partial_sum,
    quad_reg_lower_inc_gamma,
)


class TestRegLowerIncGamma:
    def test_exponential_case(self):
        # P(1, v) = 1 - e^{-v}
        assert reg_lower_inc_gamma(1.0, 2.0) == pytest.approx(
            1.0 - math.exp(-2.0), abs=1e-14
        )

    def test_zero_limit(self):
        assert reg_lower_inc_gamma(3.0, 0.0) == 0.0

    def test_quadrature_spot(self):
        expected = quad_reg_lower_inc_gamma(2.5, 3.7)
        assert reg_lower_inc_gamma(2.5, 3.7) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("u", [0.5, 1.0, 2.5, 11.0, 31.0])
    @pytest.mark.parametrize("v_spec", ["0.1", "1", "u", "3u"])
    def test_quadrature_grid(self, u, v_spec):
        v = {"0.1": 0.1, "1": 1.0, "u": u, "3u": 3.0 * u}[v_spec]
        assert reg_lower_inc_gamma(u, v) == pytest.approx(
            quad_reg_lower_inc_gamma(u, v), abs=1e-10
        )

    @pytest.mark.parametrize("u", [0.5, 1.0, 2.5, 11.0, 31.0, 100.0])
    def test_upper_limit(self, u):
        assert reg_lower_inc_gamma(u, u + 50.0 * math.sqrt(u)) > 1.0 - 1e-8

    @given(
        u=st.floats(min_value=0.05, max_value=200.0),
        v1=st.floats(min_value=0.0, max_value=400.0),
        delta=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_monotone(self, u, v1, delta):
        p1 = reg_lower_inc_gamma(u, v1)
        p2 = reg_lower_inc_gamma(u, v1 + delta)
        assert 0.0 <= p1 <= 1.0
        assert p2 >= p1 - 1e-13

    @pytest.mark.parametrize("u", [1e4, 1e5, 1e6])
    @pytest.mark.parametrize("d", [-10.0, -3.0, 0.0])
    def test_large_shape_near_the_mean(self, u, d):
        # v = u + d sqrt(u): the series takes up to about 8.5 sqrt(u) terms
        # here, whose roundoff sets the bound (3.1e-14 at worst); a prefactor
        # taken as u log(v) - v - lgamma(u) would cancel to 1.2e-9.
        v = u + d * math.sqrt(u)
        with mpmath.workdps(30):
            true = float(mpmath.gammainc(mpmath.mpf(u), 0, mpmath.mpf(v), regularized=True))
        assert reg_lower_inc_gamma(u, v) == pytest.approx(true, rel=5e-14, abs=0.0)

    @pytest.mark.parametrize("u,v", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.5), (math.nan, 1.0)])
    def test_domain(self, u, v):
        with pytest.raises(DomainError):
            reg_lower_inc_gamma(u, v)


class TestRegUpperIncGamma:
    @pytest.mark.parametrize(
        "u,v",
        # upper tails, where 1 - P cancels to a few digits or to 0 (it is
        # exactly 0 at (11, 80)), and one point just past the branch split
        [
            (0.5, 40.0),
            (1.0, 50.0),
            (11.0, 60.0),
            (11.0, 80.0),
            (11.0, 300.0),
            (1001.0, 1500.0),
            (4.0, 5.5),
        ],
    )
    def test_tail_against_mpmath(self, u, v):
        with mpmath.workdps(50):
            true = float(mpmath.gammainc(mpmath.mpf(u), mpmath.mpf(v), regularized=True))
        assert reg_upper_inc_gamma(u, v) == pytest.approx(true, rel=1e-13, abs=0.0)

    @given(
        u=st.floats(min_value=0.05, max_value=200.0),
        v=st.floats(min_value=0.0, max_value=400.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_complements_the_lower_function(self, u, v):
        q = reg_upper_inc_gamma(u, v)
        assert 0.0 <= q <= 1.0
        assert q + reg_lower_inc_gamma(u, v) == pytest.approx(1.0, abs=1e-14)

    def test_zero_limit(self):
        assert reg_upper_inc_gamma(3.0, 0.0) == 1.0

    @pytest.mark.parametrize("u", [1e4, 1e5, 1e6])
    def test_large_shape_just_past_the_split(self, u):
        # v = u + 2: the continued fraction's side of the split, near v = u,
        # where it takes the most steps (1.9e-15 off at worst)
        with mpmath.workdps(30):
            true = float(mpmath.gammainc(mpmath.mpf(u), mpmath.mpf(u + 2.0), regularized=True))
        assert reg_upper_inc_gamma(u, u + 2.0) == pytest.approx(true, rel=5e-15, abs=0.0)

    @pytest.mark.parametrize(
        "u,v,shift",
        # far tails of both branches that underflow unshifted, and the
        # complement side of each, scaled up and down
        [(11.0, 8000.0, -7900.0), (2000.0, 20.0, -7200.0), (4.0, 5.5, 3.0), (4.0, 2.0, -2.0)],
    )
    def test_shift_scales_both_functions(self, u, v, shift):
        with mpmath.workdps(50):
            scale = mpmath.exp(-mpmath.mpf(shift))
            q = mpmath.gammainc(mpmath.mpf(u), mpmath.mpf(v), regularized=True)
            p = mpmath.gammainc(mpmath.mpf(u), 0, mpmath.mpf(v), regularized=True)
            q_true, p_true = float(q * scale), float(p * scale)
        assert reg_upper_inc_gamma(u, v, shift=shift) == pytest.approx(q_true, rel=1e-12, abs=0.0)
        assert reg_lower_inc_gamma(u, v, shift=shift) == pytest.approx(p_true, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("u,v", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.5), (math.nan, 1.0)])
    def test_domain(self, u, v):
        with pytest.raises(DomainError, match="reg_upper_inc_gamma"):
            reg_upper_inc_gamma(u, v)


# The Bernoulli numbers and polynomials the oracles take from mpmath: the
# convention (b_1 = -1/2, so B_n(0) = b_n) and the values that the power-sum
# identity and the Lerch expansion are written in.


class TestBernoulliNumbers:
    def test_base(self):
        assert (mpmath.bernoulli(0), mpmath.bernoulli(1)) == (1, -0.5)

    def test_low_orders(self):
        # recurrence by hand: b_2 = 1/6, b_3 = 0, b_4 = -1/30
        assert mpmath.bernfrac(2) == (1, 6)
        assert mpmath.bernoulli(3) == 0
        assert mpmath.bernfrac(4) == (-1, 30)

    def test_table_invariants(self):
        for n in range(3, 61, 2):
            assert mpmath.bernoulli(n) == 0

    def test_against_mpmath(self):
        # b_2n = (-1)^(n+1) 2 (2n)! zeta(2n) / (2 pi)^(2n), through mpmath's zeta
        for n in range(1, 31):
            via_zeta = (-1) ** (n + 1) * 2 * mpmath.factorial(2 * n) * mpmath.zeta(2 * n)
            via_zeta /= (2 * mpmath.pi) ** (2 * n)
            assert float(mpmath.bernoulli(2 * n)) == pytest.approx(float(via_zeta), rel=1e-12)


class TestBernoulliPolynomial:
    def test_constant(self):
        assert mpmath.bernpoly(0, 7.3) == 1

    def test_value_at_zero_is_bernoulli_number(self):
        for n in range(21):
            assert mpmath.bernpoly(n, 0) == mpmath.bernoulli(n)

    def test_quadratic(self):
        # B_2(x) = x^2 - x + 1/6
        assert float(mpmath.bernpoly(2, 3)) == pytest.approx(9.0 - 3.0 + 1.0 / 6.0, rel=1e-14)


class TestPowerSum:
    """The identity (B_(n+1)(X) - b_(n+1))/(n+1) = sum_{r<X} r^n."""

    @pytest.mark.parametrize(
        "n,upper,expected",
        [(1, 3, 3.0), (0, 5, 5.0), (3, 4, 36.0), (7, 0, 0.0), (2, 1, 0.0)],
    )
    def test_values(self, n, upper, expected):
        assert bernoulli_power_sum(n, upper) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_square_of_triangular(self):
        # sum r^3 = (sum r)^2
        for upper in (2, 5, 17, 30):
            cubes, ints = bernoulli_power_sum(3, upper), bernoulli_power_sum(1, upper)
            assert cubes == pytest.approx(ints**2, rel=1e-12)

    def test_identity_with_bernoulli(self):
        for n in (0, 1, 5, 12, 20):
            for upper in (1, 7, 30):
                expected = sum(r**n for r in range(upper))
                got = bernoulli_power_sum(n, upper)
                if expected == 0:
                    assert abs(got) < 1e-9
                else:
                    assert got == pytest.approx(expected, rel=1e-9)


class TestLerchPhi:
    def test_geometric(self):
        assert lerch_phi(0.5, 0, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_geometric_ignores_a(self):
        assert lerch_phi(0.9, 0, 3.7) == pytest.approx(10.0, rel=1e-12)

    def test_long_partial_sum_oracle(self):
        expected = lerch_partial_sum(0.8, 2, 1.5)
        assert lerch_phi(0.8, -2, 1.5) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("h,a,z", [(5, 0.3, 0.6), (12, 4.0, 0.9), (1, 10.0, 0.2)])
    def test_more_oracle_points(self, h, a, z):
        expected = lerch_partial_sum(z, h, a)
        assert lerch_phi(z, -h, a) == pytest.approx(expected, rel=1e-10)

    @given(
        z=st.floats(min_value=0.01, max_value=0.95),
        a=st.floats(min_value=0.05, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_s_zero_property(self, z, a):
        assert lerch_phi(z, 0, a, eps=1e-12) == pytest.approx(1.0 / (1.0 - z), rel=1e-11)

    @pytest.mark.parametrize(
        "z,s,a,eps",
        [
            (1.0, 0, 1.0, 1e-10),
            (1.5, 0, 1.0, 1e-10),
            (-0.5, 0, 1.0, 1e-10),
            (0.5, 1, 1.0, 1e-10),
            (0.5, -0.5, 1.0, 1e-10),
            (0.5, 0, 0.0, 1e-10),
            (0.5, 0, 1.0, 0.0),
        ],
    )
    def test_domain(self, z, s, a, eps):
        with pytest.raises(DomainError):
            lerch_phi(z, s, a, eps)

    def test_overflow_is_numeric_error(self):
        with pytest.raises(NumericError):
            lerch_phi(0.999, -400, 1.0)


class TestLerchPhiBernoulli:
    """The Bernoulli expansion of the transcendent, in mpmath, against ``lerch_phi``."""

    def test_geometric_cross_check(self):
        # at order 0 the transcendent collapses to the geometric series
        for z in (0.3, 0.5, 0.7):
            got = bernoulli_lerch_expansion(z, 0, 0.7, terms=40)
            assert got == pytest.approx(1.0 / (1.0 - z), rel=1e-9)
            assert got == pytest.approx(lerch_phi(z, 0, 0.7, eps=1e-14), rel=1e-9)

    def test_matches_direct_series(self):
        z = math.exp(-0.105)
        direct = lerch_phi(z, -3, 1.6, eps=1e-14)
        assert bernoulli_lerch_expansion(z, 3, 1.6, terms=10) == pytest.approx(direct, rel=1e-10)
