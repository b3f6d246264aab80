import math
import subprocess
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgamma.errors import DomainError, NumericError, UnsupportedOrderError
from gpgamma.special import (
    MAX_BERNOULLI_ORDER,
    bernoulli_numbers,
    bernoulli_polynomial,
    lerch_phi,
    lerch_phi_bernoulli,
    power_sum,
    reg_lower_inc_gamma,
    reg_upper_inc_gamma,
)

from oracles import lerch_partial_sum, quad_reg_lower_inc_gamma


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


class TestBernoulliNumbers:
    def test_base(self):
        table = bernoulli_numbers(1)
        assert table == (1.0, -0.5)

    def test_low_orders(self):
        # recurrence by hand: b_2 = 1/6, b_3 = 0, b_4 = -1/30
        table = bernoulli_numbers(4)
        assert table[2] == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert table[3] == 0.0
        assert table[4] == pytest.approx(-1.0 / 30.0, rel=1e-15)

    def test_table_invariants(self):
        table = bernoulli_numbers(MAX_BERNOULLI_ORDER)
        assert len(table) == MAX_BERNOULLI_ORDER + 1
        assert table[0] == 1.0
        assert table[1] == -0.5
        for n in range(3, MAX_BERNOULLI_ORDER + 1, 2):
            assert abs(table[n]) < 1e-12

    def test_against_mpmath(self):
        table = bernoulli_numbers(MAX_BERNOULLI_ORDER)
        for n in range(0, MAX_BERNOULLI_ORDER + 1, 2):
            assert table[n] == pytest.approx(float(mpmath.bernoulli(n)), rel=1e-12)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            bernoulli_numbers(61)
        with pytest.raises(DomainError):
            bernoulli_numbers(-1)

    def test_exact_table_is_built_once_on_first_use(self):
        # nothing at import (CLI start-up), then one build for a whole
        # `verify all`, which reads the table 165 times
        code = (
            "import contextlib, io, gpgamma.cli as cli\n"
            "from gpgamma.special import _bernoulli_fractions as build\n"
            "print(build.cache_info().misses)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', 'all']) == 0\n"
            "print(build.cache_info().misses)\n"
        )
        cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.split() == ["0", "1"]


class TestBernoulliPolynomial:
    def test_constant(self):
        assert bernoulli_polynomial(0, 7.3) == 1.0

    def test_value_at_zero_is_bernoulli_number(self):
        assert bernoulli_polynomial(2, 0.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
        table = bernoulli_numbers(20)
        for n in range(21):
            assert bernoulli_polynomial(n, 0.0) == pytest.approx(table[n], abs=1e-15)

    def test_quadratic(self):
        # B_2(x) = x^2 - x + 1/6
        assert bernoulli_polynomial(2, 3.0) == pytest.approx(9.0 - 3.0 + 1.0 / 6.0, rel=1e-14)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            bernoulli_polynomial(61, 0.5)
        with pytest.raises(DomainError, match="Bernoulli order"):
            bernoulli_polynomial(-1, 0.5)


class TestPowerSum:
    @pytest.mark.parametrize(
        "n,upper,expected",
        [(1, 3, 3.0), (0, 5, 5.0), (3, 4, 36.0), (7, 0, 0.0), (2, 1, 0.0)],
    )
    def test_values(self, n, upper, expected):
        assert power_sum(n, upper) == expected

    @pytest.mark.parametrize(
        "n,upper,message", [(-1, 5, "exponent must be >= 0"), (2, -1, "upper must be >= 0")]
    )
    def test_refuses_negative_arguments(self, n, upper, message):
        with pytest.raises(DomainError, match=message):
            power_sum(n, upper)

    def test_square_of_triangular(self):
        # sum r^3 = (sum r)^2
        for upper in (2, 5, 17, 30):
            assert power_sum(3, upper) == power_sum(1, upper) ** 2

    def test_identity_with_bernoulli(self):
        # (B_{n+1}(X) - b_{n+1})/(n+1) equals the power sum
        for n in (0, 1, 5, 12, 20):
            table = bernoulli_numbers(n + 1)
            for upper in (1, 7, 30):
                expected = power_sum(n, upper)
                got = (bernoulli_polynomial(n + 1, float(upper)) - table[n + 1]) / (n + 1)
                if expected == 0.0:
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
    def test_geometric_cross_check(self):
        # at order 0 the transcendent collapses to the geometric series
        for z in (0.3, 0.5, 0.7):
            got = lerch_phi_bernoulli(z, 0, 0.7, terms=40)
            assert got == pytest.approx(1.0 / (1.0 - z), rel=1e-9)

    def test_matches_direct_series(self):
        z = math.exp(-0.105)
        direct = lerch_phi(z, -3, 1.6)
        assert lerch_phi_bernoulli(z, 3, 1.6, terms=10) == pytest.approx(direct, rel=1e-10)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            lerch_phi_bernoulli(0.5, 20, 1.0, terms=45)

    def test_domain(self):
        with pytest.raises(DomainError):
            lerch_phi_bernoulli(0.5, 3, 1.0, terms=0)
        with pytest.raises(DomainError):
            lerch_phi_bernoulli(1.2, 3, 1.0, terms=2)
        with pytest.raises(DomainError):
            lerch_phi_bernoulli(1e-4, 3, 1.0, terms=2)  # |log z| >= 2*pi
        with pytest.raises(DomainError, match="order h must be >= 0"):
            lerch_phi_bernoulli(0.5, -1, 1.0, terms=2)
