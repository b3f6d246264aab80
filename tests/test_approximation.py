import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgamma.approximation import (
    KINDS,
    build_gamma,
    discretize_gamma,
    inequality_check,
    moment_matched_gamma,
    theorem1_gamma,
)
from gpgamma.errors import DomainError, PrecisionError
from gpgamma.model import derive_params
from gpgamma.posterior import exact_posterior, posterior_moments
from gpgamma.special import log_gamma

SMALL_RATE = (1.5, 0.1, -0.05)
LARGE_RATE = (1.5, 0.5, -0.05)


class TestTheorem1Gamma:
    def test_small_rate_set(self):
        params = derive_params(*SMALL_RATE)
        g = theorem1_gamma(params, 10)
        assert g.shape == 11.0
        assert g.scale == pytest.approx(1.0 / params.rate, rel=1e-15)
        assert g.mean == pytest.approx(11.0 / params.rate, rel=1e-14)
        assert g.kind == "theorem1"

    def test_x_zero_is_exponential(self):
        params = derive_params(*SMALL_RATE)
        g = theorem1_gamma(params, 0)
        assert g.shape == 1.0
        assert g.scale == pytest.approx(1.0 / params.rate, rel=1e-15)

    def test_large_rate_set(self):
        params = derive_params(*LARGE_RATE)
        g = theorem1_gamma(params, 10)
        assert g.shape == 11.0
        assert g.scale == pytest.approx(1.0 / (0.5 * math.exp(0.35)), rel=1e-14)

    def test_mean_variance_tie(self):
        # variance * rate = mean for this construction
        params = derive_params(*LARGE_RATE)
        g = theorem1_gamma(params, 7)
        assert g.variance * params.rate == pytest.approx(g.mean, rel=1e-13)


class TestMomentMatchedGamma:
    def test_algebraic_examples(self):
        g = moment_matched_gamma(10.0, 5.0)
        assert (g.shape, g.scale) == (20.0, 0.5)
        g = moment_matched_gamma(7.3, 7.3)
        assert g.shape == pytest.approx(7.3, rel=1e-15)
        assert g.scale == 1.0
        assert g.kind == "moment_matched"

    @given(
        mu=st.floats(min_value=1e-3, max_value=1e6),
        var=st.floats(min_value=1e-3, max_value=1e6),
    )
    @settings(max_examples=200)
    def test_round_trip_identity(self, mu, var):
        g = moment_matched_gamma(mu, var)
        assert g.mean == pytest.approx(mu, rel=1e-14)
        assert g.variance == pytest.approx(var, rel=1e-14)

    def test_round_trip_through_posterior(self):
        params = derive_params(*SMALL_RATE)
        table = exact_posterior(params, 10)
        mu, var = posterior_moments(table)
        g = moment_matched_gamma(mu, var)
        assert g.mean == pytest.approx(mu, rel=1e-12)
        assert g.variance == pytest.approx(var, rel=1e-12)

    @pytest.mark.parametrize("mu,var", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain(self, mu, var):
        with pytest.raises(DomainError):
            moment_matched_gamma(mu, var)


class TestBuildGamma:
    def test_each_kind_equals_its_constructor(self):
        params = derive_params(*SMALL_RATE)
        table = exact_posterior(params, 10)
        direct = {
            "theorem1": theorem1_gamma(params, 10),
            "moment_matched": moment_matched_gamma(*posterior_moments(table)),
        }
        assert set(direct) == set(KINDS)
        for kind in KINDS:
            assert build_gamma(kind, table) == direct[kind]

    def test_unknown_kind(self):
        table = exact_posterior(derive_params(*SMALL_RATE), 3)
        # the CLI's spelling of a kind is not a kind
        with pytest.raises(DomainError, match="moment_matched"):
            build_gamma("moment-matched", table)

    def test_loose_table_refuses_only_moment_matched(self):
        params = derive_params(*SMALL_RATE)
        table = exact_posterior(params, 2, eps_tail=1e-4)
        assert table.tail_bound > 1e-6
        with pytest.raises(PrecisionError):
            build_gamma("moment_matched", table)
        assert build_gamma("theorem1", table) == theorem1_gamma(params, 2)


class TestDiscretizeGamma:
    def test_exponential_closed_form(self):
        # shape 1, scale 1/ln 2: window masses are differences of 1 - 2^{-t}
        g = moment_matched_gamma(1.0 / math.log(2.0), 1.0 / math.log(2.0) ** 2)
        assert g.shape == pytest.approx(1.0, rel=1e-13)
        disc = discretize_gamma(g, 0, 40, renormalize=False)
        assert disc.probs[0] == pytest.approx(1.0 - 2.0**-0.5, rel=1e-12)
        for k in (1, 2, 7):
            expected = 2.0 ** -(k - 0.5) - 2.0 ** -(k + 0.5)
            assert disc.probs[k] == pytest.approx(expected, rel=1e-12)

    def test_single_window_renormalizes_to_one(self):
        params = derive_params(*SMALL_RATE)
        g = theorem1_gamma(params, 3)
        disc = discretize_gamma(g, 5, 5, renormalize=True)
        assert disc.probs.tolist() == [1.0]
        assert disc.renormalized

    def test_total_mass_approaches_one(self):
        params = derive_params(*LARGE_RATE)
        g = theorem1_gamma(params, 10)
        k_hi = int(g.mean + 50.0 * math.sqrt(g.variance))
        disc = discretize_gamma(g, 0, k_hi, renormalize=False)
        assert disc.probs.sum() > 1.0 - 1e-8
        assert np.all(disc.probs >= 0.0)

    def test_tracks_exact_posterior_at_poisson_point(self):
        # at m = 1 the posterior is itself a discretized gamma kernel
        params = derive_params(0.0, 0.1, 0.0)
        x = 10
        table = exact_posterior(params, x)
        g = theorem1_gamma(params, x)
        disc = discretize_gamma(g, table.k_min, table.k_max, renormalize=True)
        tv = 0.5 * np.abs(table.probs - disc.probs).sum()
        assert tv < 0.01

    def test_window_validation(self):
        params = derive_params(*SMALL_RATE)
        g = theorem1_gamma(params, 1)
        with pytest.raises(DomainError):
            discretize_gamma(g, -1, 5, renormalize=False)
        with pytest.raises(DomainError):
            discretize_gamma(g, 5, 4, renormalize=False)

    def test_keeps_construction_tag(self):
        params = derive_params(*SMALL_RATE)
        disc = discretize_gamma(theorem1_gamma(params, 2), 2, 30, renormalize=True)
        assert disc.kind == "theorem1"


class TestInequalityCheck:
    def test_small_rate_set(self):
        params = derive_params(*SMALL_RATE)
        res = inequality_check(params, 10, epsilon=0.01)
        # bracket (1 - sqrt(m) + rate) = 0.0538..., times 10 truncates to 0
        assert res.lhs == 0.0
        expected_rhs = math.exp((log_gamma(11.0) + math.log(0.01)) / 11.0)
        assert res.rhs == pytest.approx(expected_rhs, rel=1e-14)
        assert res.holds

    def test_poisson_point_failure_case(self):
        params = derive_params(0.0, 0.5, 0.0)
        res = inequality_check(params, 4, epsilon=1.0)
        assert res.lhs == 2.0
        assert res.rhs == pytest.approx(math.exp(math.log(24.0) / 5.0), rel=1e-14)
        assert not res.holds

    def test_x_one_epsilon_one(self):
        params = derive_params(*LARGE_RATE)
        res = inequality_check(params, 1, epsilon=1.0)
        assert res.rhs == 1.0

    def test_domain(self):
        params = derive_params(*SMALL_RATE)
        with pytest.raises(DomainError):
            inequality_check(params, 0)
        with pytest.raises(DomainError):
            inequality_check(params, 5, epsilon=0.0)
