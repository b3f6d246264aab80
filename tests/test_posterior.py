import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gpgamma.posterior as posterior_mod
from gpgamma.errors import DomainError, NumericError, PrecisionError
from gpgamma.model import derive_params
from gpgamma.posterior import (
    PosteriorTable,
    denominator_lerch,
    exact_posterior,
    posterior_moments,
)

from oracles import (
    brute_moments,
    brute_posterior,
    direct_denominator_sum,
    streaming_posterior,
)

SMALL_RATE = (1.5, 0.1, -0.05)
LARGE_RATE = (1.5, 0.5, -0.05)


class TestExactPosterior:
    def test_geometric_closed_form_at_x_zero(self):
        params = derive_params(*SMALL_RATE)
        table = exact_posterior(params, 0, eps_tail=1e-13)
        q = math.exp(-params.rate)
        ks = table.support
        expected = (1.0 - q) * q**ks
        assert table.k_min == 0
        assert np.max(np.abs(table.probs - expected)) < 1e-12
        assert table.probs[0] == pytest.approx(1.0 - q, abs=1e-12)

    def test_poisson_point_power_law(self):
        # at m = 1 the weights are k^x e^{-b k} on k >= x
        params = derive_params(0.0, 0.4, 0.0)
        x = 5
        table = exact_posterior(params, x, eps_tail=1e-12)
        ks = table.support.astype(float)
        raw = np.exp(x * np.log(ks) - 0.4 * ks)
        expected = raw / raw.sum()
        assert np.allclose(table.probs, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("abc", [SMALL_RATE, LARGE_RATE])
    @pytest.mark.parametrize("x", [1, 10])
    def test_brute_force_equivalence(self, abc, x):
        params = derive_params(*abc)
        table = exact_posterior(params, x, eps_tail=1e-10)
        ks, brute = brute_posterior(params, x)
        n = len(table.probs)
        rel = np.abs(table.probs - brute[:n]) / brute[:n]
        assert rel.max() < 1e-10

    def test_mass_and_tail_invariants(self):
        for abc in (SMALL_RATE, LARGE_RATE):
            params = derive_params(*abc)
            for x in (0, 1, 7):
                table = exact_posterior(params, x, eps_tail=1e-10)
                total = table.probs.sum()
                assert 1.0 - table.tail_bound <= total <= 1.0 + 1e-12
                assert table.tail_bound <= 1e-10
                assert np.all(table.probs >= 0.0)

    def test_log_weight_formula(self):
        params = derive_params(*LARGE_RATE)
        x = 4
        table = exact_posterior(params, x)
        g = (params.w - 1.0) * x
        for i, k in enumerate(table.support[:8]):
            expected = math.log(k) + (x - 1) * math.log(k + g) - params.rate * k
            assert table.log_weights[i] == pytest.approx(expected, rel=1e-15)

    def test_support_starts_at_x(self):
        params = derive_params(*SMALL_RATE)
        table = exact_posterior(params, 12)
        assert table.k_min == 12
        assert table.support[0] == 12

    @pytest.mark.parametrize("eps", [0.0, -1e-10, 2e-3, 1.0])
    def test_eps_tail_range(self, eps):
        params = derive_params(*SMALL_RATE)
        with pytest.raises(DomainError):
            exact_posterior(params, 1, eps_tail=eps)

    def test_w_guard(self):
        # m = 3 with small b drives w negative; x > 0 must fail loudly
        params = derive_params(0.0, 0.05, math.log(3.0))
        assert params.w < 0.0
        with pytest.raises(DomainError):
            exact_posterior(params, 3)
        # the x = 0 geometric reduction stays valid regardless of w
        table = exact_posterior(params, 0)
        q = math.exp(-params.rate)
        assert table.probs[0] == pytest.approx(1.0 - q, rel=1e-10)

    def test_term_cap_is_numeric_error(self, monkeypatch):
        monkeypatch.setattr(posterior_mod, "_MAX_TERMS", 10)
        params = derive_params(*SMALL_RATE)
        with pytest.raises(NumericError, match="tail bound"):
            exact_posterior(params, 5)

    def test_table_size_limit_clips_the_last_block(self, monkeypatch):
        # the table below needs ~471k terms; a 20,000-entry limit falls
        # inside its second block, which must be cut at the limit
        monkeypatch.setattr(posterior_mod, "_MAX_TERMS", 20_000)
        evaluated = []
        arange = np.arange

        def counting_arange(*args, **kwargs):
            ks = arange(*args, **kwargs)
            evaluated.append(len(ks))
            return ks

        monkeypatch.setattr(np, "arange", counting_arange)
        params = derive_params(0.0, 1e-4, 0.0)
        with pytest.raises(NumericError) as info:
            exact_posterior(params, 10, eps_tail=1e-10)
        assert sum(evaluated) == 20_000
        assert len(evaluated) == 2
        message = str(info.value)
        assert "limit of 20000 entries" in message
        assert "20000 terms evaluated" in message
        assert "x=10" in message and "eps_tail=1e-10" in message
        assert "achieved tail bound" in message

    def test_many_block_table(self):
        # rate 1e-4 at x=10: ~471k terms, 29 blocks of the default size
        params = derive_params(0.0, 1e-4, 0.0)
        table = exact_posterior(params, 10, eps_tail=1e-10)
        assert len(table.probs) > 28 * posterior_mod._BLOCK
        assert table.k_max == streaming_posterior(params, 10, 1e-10).k_max
        assert table.probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert table.tail_bound <= 1e-10
        mu, _ = posterior_moments(table)
        assert mu == pytest.approx(11 / params.rate, rel=1e-4)


def _domain_point(b, m, x, max_terms):
    """Params at (b, m) and x clipped so the table stays near max_terms."""
    params = derive_params(0.0, b, math.log(m))
    assume(params.rate >= 0.005)
    x = min(x, int(params.rate * max_terms / 2))
    assume(x == 0 or params.w > 0.0)
    return params, x


class TestBlockedEngine:
    """The numpy-blocked engine against the per-term loop it replaced."""

    @given(
        b=st.floats(0.01, 0.999),
        m=st.floats(0.01, 3.99),
        x=st.integers(0, 2000),
        log10_eps=st.floats(-13.0, -3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_streaming_loop(self, b, m, x, log10_eps):
        params, x = _domain_point(b, m, x, 20_000)
        eps = 10.0**log10_eps
        table = exact_posterior(params, x, eps)
        oracle = streaming_posterior(params, x, eps)
        assert table.k_max == oracle.k_max
        assert table.tail_bound == pytest.approx(oracle.tail_bound, rel=1e-12, abs=0.0)
        # atol only admits entries that underflow to subnormals on one side
        np.testing.assert_allclose(table.probs, oracle.probs, rtol=1e-10, atol=1e-300)

    @given(
        b=st.floats(0.05, 0.999),
        m=st.floats(0.25, 3.99),
        x=st.integers(0, 200),
        log10_eps=st.floats(-13.0, -3.0),
        block=st.sampled_from([1, 7, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_size_does_not_change_the_table(self, b, m, x, log10_eps, block):
        params, x = _domain_point(b, m, x, 1_000)
        eps = 10.0**log10_eps
        table = exact_posterior(params, x, eps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(posterior_mod, "_BLOCK", block)
            blocked = exact_posterior(params, x, eps)
        assert blocked.k_max == table.k_max
        assert np.array_equal(blocked.probs, table.probs)
        assert blocked.log_normalizer == table.log_normalizer


class TestPosteriorMoments:
    def test_geometric_moments(self):
        params = derive_params(*SMALL_RATE)
        table = exact_posterior(params, 0, eps_tail=1e-13)
        mu, var = posterior_moments(table)
        q = math.exp(-params.rate)
        assert mu == pytest.approx(q / (1.0 - q), rel=1e-9)
        assert var == pytest.approx(q / (1.0 - q) ** 2, rel=1e-9)

    def test_poisson_point_against_brute_force(self):
        params = derive_params(0.0, 0.4, 0.0)
        table = exact_posterior(params, 5, eps_tail=1e-12)
        mu, var = posterior_moments(table)
        mu_b, var_b = brute_moments(*brute_posterior(params, 5))
        assert mu == pytest.approx(mu_b, rel=1e-10)
        assert var == pytest.approx(var_b, rel=1e-9)

    def test_point_mass(self):
        params = derive_params(*SMALL_RATE)
        table = PosteriorTable(
            params=params,
            x=3,
            k_min=3,
            k_max=3,
            log_weights=np.array([0.0]),
            probs=np.array([1.0]),
            tail_bound=0.0,
            log_normalizer=0.0,
        )
        assert posterior_moments(table) == (3.0, 0.0)

    def test_loose_tail_is_refused(self):
        params = derive_params(*SMALL_RATE)
        table = exact_posterior(params, 2, eps_tail=1e-4)
        assert table.tail_bound > 1e-6
        with pytest.raises(PrecisionError, match="eps_tail"):
            posterior_moments(table)


class TestDenominatorLerch:
    def test_x_one_geometric_series(self):
        # sum_{j>=1} j q^j = q/(1-q)^2
        params = derive_params(*SMALL_RATE)
        q = math.exp(-params.rate)
        expected = q / (1.0 - q) ** 2
        assert denominator_lerch(params, 1) == pytest.approx(expected, rel=1e-8)

    def test_poisson_point_drops_second_term(self):
        params = derive_params(0.0, 0.3, 0.0)
        assert params.w == 1.0
        expected = direct_denominator_sum(params, 3)
        assert denominator_lerch(params, 3) == pytest.approx(expected, rel=1e-8)

    def test_large_rate_set(self):
        params = derive_params(*LARGE_RATE)
        expected = direct_denominator_sum(params, 8)
        assert denominator_lerch(params, 8) == pytest.approx(expected, rel=1e-8)

    def test_domain(self):
        params = derive_params(*SMALL_RATE)
        with pytest.raises(DomainError):
            denominator_lerch(params, 0)
        negative_w = derive_params(0.0, 0.05, math.log(3.0))
        with pytest.raises(DomainError):
            denominator_lerch(negative_w, 2)
