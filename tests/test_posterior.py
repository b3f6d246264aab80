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
    window_moments,
)

from oracles import (
    brute_moments,
    brute_posterior,
    brute_posterior_weights,
    direct_denominator_sum,
    edge_point,
    expression_window_moments,
    gp_log_pmf,
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
        window = brute[table.k_min - x : table.k_max - x + 1]  # brute starts at k = x
        rel = np.abs(table.probs - window) / window
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

    @pytest.mark.parametrize("x", [0, 1, 10, 100, 1000])
    @pytest.mark.parametrize(
        "abc",
        [SMALL_RATE, LARGE_RATE, (0.0, 0.3, 0.0), (0.0, 0.01, 0.0), (0.0, 0.2, math.log(0.5))],
    )
    def test_log_weights_follow_model_pmf(self, abc, x):
        # under a flat prior the log-weight is ln P(X = x | k) plus a constant in k
        params = derive_params(*abc)
        table = exact_posterior(params, x)
        oracle = np.array([gp_log_pmf(params, int(k), x) for k in table.support])
        gap = table.log_weights - oracle
        assert gap.max() - gap.min() <= 1e-14 * np.abs(table.log_weights).max()

    def test_support_starts_at_x(self):
        # k_min = x while the terms near x still matter; at x = 12 the mode
        # sits near 124 and the left cut drops k = 12 alone
        params = derive_params(*SMALL_RATE)
        table = exact_posterior(params, 10)
        assert table.k_min == 10
        assert table.support[0] == 10
        cut = exact_posterior(params, 12)
        assert cut.k_min == 13
        assert cut.support[0] == 13

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
        # x = 5: the left side (mode ~57) has not stopped; x = 0: the mode
        # is x, so the right side hits the limit
        for x in (5, 0):
            with pytest.raises(NumericError, match="tail bound"):
                exact_posterior(params, x)

    def test_table_size_limit_clips_the_last_block(self, monkeypatch):
        # the table below needs ~470k terms; the first block holds 16,384
        # around the mode (~110k), and a 20,000-entry limit falls inside the
        # second, the first block to its left, which must be cut at the limit
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
        # rate 1e-4 at x=10: ~470k terms, 29 blocks of the default size,
        # cut on both sides of the mode
        params = derive_params(0.0, 1e-4, 0.0)
        table = exact_posterior(params, 10, eps_tail=1e-10)
        oracle = streaming_posterior(params, 10, 1e-10)
        assert len(table.probs) > 28 * posterior_mod._BLOCK
        assert table.k_min > 10
        assert (table.k_min, table.k_max) == (oracle.k_min, oracle.k_max)
        # the log-weights own exactly the table, not a view on every block
        assert table.log_weights.base is None
        assert len(table.log_weights) == table.k_max - table.k_min + 1
        assert table.probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert table.tail_bound <= 1e-10
        mu, _ = posterior_moments(table)
        assert mu == pytest.approx(11 / params.rate, rel=1e-4)

    def test_cap_regime_is_answered(self):
        # rate 1e-4 at x=1000, refused when every table started at k = x
        # and had to run past ~2x/rate: two-sided it needs ~4.1M terms
        params = derive_params(0.0, 1e-4, 0.0)
        table = exact_posterior(params, 1000, eps_tail=1e-10)
        assert len(table.probs) <= 10**7
        assert table.k_min > 1000
        assert table.tail_bound <= 1e-10
        assert table.probs.sum() == pytest.approx(1.0, abs=1e-9)


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
        self._check_against_the_streaming_loop(params, x, 10.0**log10_eps)

    # the cuts agree (815 .. 3011), but the tail bounds are 1.613e-12 apart
    # relative, as both take them from uncentred log-weights near 4,000
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 10: uncentred log-weights")
    def test_streaming_loop_at_the_known_draw(self):
        b = m = 0.27780012306874324
        params = derive_params(0.0, b, math.log(m))
        self._check_against_the_streaming_loop(params, 500, 10.0**-11.875)

    @staticmethod
    def _check_against_the_streaming_loop(params, x, eps):
        table = exact_posterior(params, x, eps)
        oracle = streaming_posterior(params, x, eps)
        assert (table.k_min, table.k_max) == (oracle.k_min, oracle.k_max)
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
        assert (blocked.k_min, blocked.k_max) == (table.k_min, table.k_max)
        assert np.array_equal(blocked.probs, table.probs)
        assert blocked.log_normalizer == table.log_normalizer


class TestTwoSidedCut:
    """Each cut against the brute-force weights summed to the end."""

    @given(
        b=st.one_of(st.floats(0.01, 0.999), st.floats(0.999, 1.0, exclude_max=True)),
        gap=st.one_of(st.floats(1e-12, 1e-3), st.floats(1e-3, 0.97)),
        x=st.integers(0, 60),
        log10_eps=st.floats(-13.0, -3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_each_side_drops_at_most_its_share(self, b, gap, x, log10_eps):
        params = edge_point(b, gap)
        assume(params.rate >= 0.005)
        eps = 10.0**log10_eps
        table = exact_posterior(params, x, eps)
        # k = x .. 100,000 directly (finite for x <= 60); past it lies a
        # relative mass below e^-300
        ks, weights = brute_posterior_weights(params, x)
        below = slice(0, table.k_min - x)
        above = slice(table.k_max - x + 1, None)
        share = eps * (min(0.5, params.w) if x > 0 else 0.5)
        assert weights[below].sum() <= share * weights.sum()
        assert weights[above].sum() <= share * weights.sum()
        if x > 0:  # the 1/k-weighted sum behind dropped_term_ratio
            inverse = weights / ks
            assert inverse[below].sum() <= share * inverse.sum()


class TestFloatFloor:
    """Shares at the bottom of the float range: a table is answered while
    the weights at each cut, scaled by the mode's, stay normal floats."""

    # x = 3 of the b=0.5 reference set: the side share eps_tail * w, w = 0.409,
    # falls under the smallest normal float, 2.2e-308, at eps_tail 5.44e-308
    REF = (1.5, 0.5, -0.05)

    def test_just_above_the_floor_each_side_drops_at_most_its_share(self):
        params, eps = derive_params(*self.REF), 6e-308
        table = exact_posterior(params, 3, eps)
        assert table.tail_bound <= eps
        ks, weights = brute_posterior_weights(params, 3)
        share = eps * min(0.5, params.w)
        assert weights[: table.k_min - 3].sum() <= share * weights.sum()
        assert weights[table.k_max - 3 + 1 :].sum() <= share * weights.sum()
        inverse = weights / ks
        assert inverse[: table.k_min - 3].sum() <= share * inverse.sum()

    def test_just_below_the_floor_is_refused(self):
        with pytest.raises(PrecisionError, match="eps_tail=5e-308"):
            exact_posterior(derive_params(*self.REF), 3, 5e-308)

    def test_a_cut_whose_scaled_weights_underflow_is_refused(self):
        # rate 0.1, x = 1000: the left side's t_k / k, scaled by the mode's,
        # leave the normal floats first, at eps_tail 3.8e-306 (share 1.9e-306)
        params = derive_params(0.0, 0.1, 0.0)
        table = exact_posterior(params, 1000, 4e-306)
        assert table.k_min > 1000
        assert table.tail_bound <= 4e-306
        with pytest.raises(PrecisionError, match="eps_tail=3.7e-306"):
            exact_posterior(params, 1000, 3.7e-306)


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

    @given(
        k_min=st.integers(0, 10**7),
        probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300),
    )
    @settings(max_examples=200, deadline=None)
    def test_buffer_reuse_keeps_the_bits(self, k_min, probs):
        probs = np.array(probs)
        assert window_moments(k_min, probs) == expression_window_moments(k_min, probs)

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
