import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpgamma.approximation as approximation_mod

from gpgamma.approximation import (
    _GL3,
    _GL10,
    _GL_BLOCK,
    KINDS,
    GammaApprox,
    _gl_window_masses,
    _rule_runs,
    _window_masses,
    build_gamma,
    discretize_gamma,
    inequality_check,
    moment_matched_gamma,
    theorem1_gamma,
)
from gpgamma.errors import DomainError, PrecisionError
from gpgamma.model import derive_params
from gpgamma.posterior import exact_posterior, posterior_moments

from oracles import (
    mpmath_gl3_window_mass,
    mpmath_window_mass,
    mpmath_window_pmf,
    node_order_window_masses,
)

SMALL_RATE = (1.5, 0.1, -0.05)
LARGE_RATE = (1.5, 0.5, -0.05)  # rate 0.71
TINY_RATE = (0.0, 0.01 / 0.998, 2.0 * math.log(0.998))  # rate 0.01, w = 1.2


def _nodes_per_window(g, k_min, k_max):
    """Each window's Gauss-Legendre node count, 0 for an incomplete-gamma difference."""
    nodes = [0] * (k_max - k_min + 1)

    def record(g, first, out, shift, rule):
        nodes[first - k_min : first - k_min + len(out)] = [len(rule[0])] * len(out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(approximation_mod, "_gl_window_masses", record)
        for name in ("reg_lower_inc_gamma", "reg_upper_inc_gamma"):
            mp.setattr(approximation_mod, name, lambda *args, **kwargs: 0.0)
        _window_masses(g, k_min, k_max, 0.0)
    return nodes


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

    @pytest.mark.parametrize(
        "shape,scale,k_min,k_max",
        [
            (1369.0, 7.223985890652557, 1368, 1500),  # left flank, rule windows
            (2000.0, 0.5, 2, 50),  # steep left flank, differences of P
            (2.0, 0.01, 500, 600),  # steep right flank, differences of Q
            (3000.0, 1.0, 0, 30),  # head windows k <= 1 included
        ],
    )
    def test_renormalizes_a_window_whose_mass_underflows(self, shape, scale, k_min, k_max):
        g = GammaApprox(shape, scale, "theorem1")
        assert discretize_gamma(g, k_min, k_max, renormalize=False).raw_total == 0.0
        disc = discretize_gamma(g, k_min, k_max, renormalize=True)
        assert disc.raw_total == 0.0
        expected = mpmath_window_pmf(shape, scale, k_min, k_max)
        big = expected > 1e-300
        assert np.all(np.abs(disc.probs[big] - expected[big]) <= 1e-11 * expected[big])
        assert np.all(disc.probs[~big] <= 1e-290)

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


class TestWindowMassAccuracy:
    """Window masses against mpmath, relative error on every sampled window."""

    @staticmethod
    def _sample(disc, n_head=4, n_body=25, n_tail=4):
        # head, evenly spaced body and tail of the window, plus the edges of
        # the representable region on either side of the mode
        n = len(disc.probs)
        idx = set(range(min(n_head, n))) | set(range(max(n - n_tail, 0), n))
        idx |= {int(i) for i in np.linspace(0, n - 1, n_body)}
        live = np.flatnonzero(disc.probs > 1e-290)
        if live.size:
            for edge in (live[0], live[-1]):
                idx |= {i for i in range(edge - 2, edge + 3) if 0 <= i < n}
        return sorted(idx)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("point,x", [(LARGE_RATE, 10), (TINY_RATE, 1000)])
    def test_head_body_and_tail_windows(self, point, x, kind):
        table = exact_posterior(derive_params(*point), x)
        g = build_gamma(kind, table)
        disc = discretize_gamma(g, table.k_min, table.k_max, renormalize=False)
        checked = 0
        for i in self._sample(disc):
            k = table.k_min + i
            true = mpmath_window_mass(g.shape, g.scale, k)
            if true < 1e-300:
                continue
            assert disc.probs[i] == pytest.approx(true, rel=1e-10, abs=0.0), k
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize(
        "g",
        [
            moment_matched_gamma(1.0, 2.0),  # shape 0.5, scale 2
            GammaApprox(shape=0.1, scale=0.7, kind="test"),
            # the moment-matched gamma of the b=0.5 reference set at x=0
            build_gamma("moment_matched", exact_posterior(derive_params(*LARGE_RATE), 0)),
            # k = 1 lies far right of the mode, where a difference of P cancels to 0
            GammaApprox(shape=0.3, scale=0.01, kind="test"),
        ],
    )
    def test_head_windows_at_shape_below_one(self, g):
        assert g.shape < 1.0
        disc = discretize_gamma(g, 0, 3, renormalize=False)
        for k in range(4):
            true = mpmath_window_mass(g.shape, g.scale, k)
            assert disc.probs[k] == pytest.approx(true, rel=1e-13, abs=0.0), k

    @given(
        log_shape=st.floats(min_value=math.log(0.02), max_value=math.log(2000.0)),
        log_scale=st.floats(min_value=math.log(1e-3), max_value=math.log(1e4)),
    )
    @settings(max_examples=100, deadline=None)
    def test_head_windows_keep_relative_accuracy(self, log_shape, log_scale):
        # head windows right of the mode, small ones included, where a
        # difference of P would cancel
        g = GammaApprox(shape=math.exp(log_shape), scale=math.exp(log_scale), kind="test")
        disc = discretize_gamma(g, 0, 5, renormalize=False)
        for k in range(6):
            true = mpmath_window_mass(g.shape, g.scale, k)
            if true > 1e-300:
                assert disc.probs[k] == pytest.approx(true, rel=1e-10, abs=0.0), k

    @pytest.mark.parametrize(
        "g,k_max",
        [
            # theorem1 at rate 0.105, x=100: windows k <= 12 rise more
            # steeply than 8 per unit; the rule was 2.6e-4 off at k=2
            (GammaApprox(shape=101.0, scale=1 / 0.105, kind="theorem1"), 60),
            # a steep right flank: slope below -8 on every window
            (GammaApprox(shape=2.0, scale=0.05, kind="test"), 80),
            (GammaApprox(shape=400.0, scale=0.5, kind="test"), 260),
        ],
    )
    def test_steep_windows(self, g, k_max):
        disc = discretize_gamma(g, 0, k_max, renormalize=False)
        checked = 0
        for k in range(2, k_max + 1):
            true = mpmath_window_mass(g.shape, g.scale, k)
            if true < 1e-300:
                continue
            assert disc.probs[k] == pytest.approx(true, rel=1e-10, abs=0.0), k
            checked += 1
        assert checked >= 20

    @given(
        k_min=st.integers(min_value=0, max_value=40),
        length=st.integers(min_value=2, max_value=2 * _GL_BLOCK + 50),
        cut=st.floats(min_value=0.0, max_value=1.0),
        shape=st.floats(min_value=0.2, max_value=500.0),
        scale=st.floats(min_value=0.5, max_value=200.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_window_is_the_concatenation_of_its_halves(
        self, k_min, length, cut, shape, scale
    ):
        g = GammaApprox(shape=shape, scale=scale, kind="test")
        k_max = k_min + length - 1
        split = k_min + 1 + int(cut * (length - 2))  # first k of the right half
        whole = discretize_gamma(g, k_min, k_max, renormalize=False)
        left = discretize_gamma(g, k_min, split - 1, renormalize=False)
        right = discretize_gamma(g, split, k_max, renormalize=False)
        np.testing.assert_array_equal(whole.probs, np.concatenate([left.probs, right.probs]))

    @given(
        shape=st.floats(min_value=0.05, max_value=3000.0),
        scale=st.floats(min_value=0.05, max_value=1e4),
        where=st.floats(min_value=-8.0, max_value=40.0),
        length=st.integers(min_value=1, max_value=5000),
        start=st.integers(min_value=0, max_value=5000),
        sub=st.integers(min_value=0, max_value=5000),
    )
    @settings(max_examples=200, deadline=None)
    # 1494 sd right of the mode, where a 6-point run once ended at k = 87861
    @example(shape=2845.329, scale=1.064435465622866, where=1494.0, length=207, start=0, sub=6)
    # the theorem1 gamma of rate 0.01, x = 10: the subrange 97 .. 697 crosses
    # the first window of its 3-point run, 646
    @example(shape=11.0, scale=100.0, where=-2.75, length=700, start=10, sub=600)
    def test_rule_choice_depends_on_the_window_alone(
        self, shape, scale, where, length, start, sub
    ):
        # the runs chosen for a subrange are the runs of the whole range, cut to it
        g = GammaApprox(shape=shape, scale=scale, kind="test")
        mode = max((g.shape - 1.0) * g.scale, 0.0)
        lo = max(int(mode + where * math.sqrt(g.shape) * g.scale), 0)
        hi = lo + length - 1
        a = lo + min(start, length - 1)
        b = min(a + sub, hi)
        whole = _nodes_per_window(g, lo, hi)
        assert _nodes_per_window(g, a, b) == whole[a - lo : b - lo + 1]

    @pytest.mark.parametrize("block", [_GL_BLOCK, 1, 7, 64])
    @given(
        k_min=st.integers(min_value=0, max_value=3000),
        length=st.integers(min_value=1, max_value=2 * _GL_BLOCK + 50),
        shape=st.floats(min_value=0.05, max_value=3000.0),
        scale=st.floats(min_value=0.5, max_value=500.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_node_major_kernel_equals_the_node_order_sum(
        self, block, k_min, length, shape, scale
    ):
        from numpy.polynomial.legendre import leggauss

        # every window, steep ones included (discretize_gamma sends those to
        # incomplete-gamma differences; see test_steep_windows), by every rule
        g = GammaApprox(shape=shape, scale=scale, kind="test")
        k_max = k_min + min(length, 3 * block + 50) - 1  # crosses block edges
        first = max(k_min, 2)
        for rule in (_GL10, _GL3):
            table = leggauss(len(rule[0]))
            masses = np.empty(max(k_max - first + 1, 0))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(approximation_mod, "_GL_BLOCK", block)
                _gl_window_masses(g, first, masses, 0.0, rule)
            np.testing.assert_array_equal(masses, node_order_window_masses(g, k_min, k_max, table))

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_narrow_gamma_takes_one_kernel_pass(self, kind):
        # rate 0.105, x = 10: the 3-point run is empty, its curvature bound
        # starting it near k = 646 (676 for moment_matched), past both the
        # window where its slope bound ends it, near 122 (126), and the
        # table's end, 456; so every calm window takes the 10-point rule in
        # one pass, none twice
        table = exact_posterior(derive_params(*SMALL_RATE), 10)
        posterior_moments(table)
        g = build_gamma(kind, table)
        passes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(approximation_mod, "_gl_window_masses", lambda *args: passes.append(args))
            _window_masses(g, table.k_min, table.k_max, 0.0)
        assert len(passes) == 1
        assert len(passes[0][4][0]) == 10

    def test_a_wide_flat_gamma_takes_the_3_point_rule_to_the_table_end(self):
        # rate 0.01, x = 0, moment_matched (shape 0.990, scale 100.5): every
        # window of its 3-point run, 401 onwards, takes 3 nodes however few
        # sd of the gamma the table spans
        table = exact_posterior(derive_params(*TINY_RATE), 0)
        g = build_gamma("moment_matched", table)
        assert (g.shape, g.scale) == (0.9900498592156961, 100.50083062714273)
        assert (table.k_min, table.k_max) == (0, 2371)
        nodes = _nodes_per_window(g, table.k_min, table.k_max)
        assert nodes[401 - table.k_min :] == [3] * (2371 - 400)
        assert nodes[400 - table.k_min] == 10

    @pytest.mark.parametrize("rule", [_GL10, _GL3], ids=["10", "3"])
    def test_nodes_and_weights_are_the_leggauss_rule(self, rule):
        from numpy.polynomial.legendre import leggauss

        # offsets from the centre of a window of width 1: half of [-1, 1]'s
        nodes, weights = leggauss(len(rule[0]))
        np.testing.assert_array_equal(2.0 * rule[0].ravel(), nodes)
        np.testing.assert_array_equal(2.0 * rule[1].ravel(), weights)

    @given(
        shape=st.one_of(
            st.floats(min_value=math.log(0.05), max_value=math.log(3000.0)).map(math.exp),
            st.integers(min_value=1, max_value=3000).map(float),
        ),
        log_scale=st.floats(min_value=math.log(0.05), max_value=math.log(1e4)),
    )
    @settings(max_examples=200, deadline=None)
    # the theorem1 gamma of rate 0.105, x = 10: its 3-point run is empty
    @example(shape=11.0, log_scale=math.log(9.512294245007139))
    # the moment_matched gamma of rate 0.01, x = 0: a 3-point run from 401
    @example(shape=0.9900498592156961, log_scale=math.log(100.50083062714273))
    def test_rule_runs_are_ordered_disjoint_pieces(self, shape, log_scale):
        # _window_masses takes each piece once, by its rule: the calm run
        # alone, or split around a non-empty 3-point run
        g = GammaApprox(shape=shape, scale=math.exp(log_scale), kind="test")
        runs = _rule_runs(g)
        assert len(runs) in (1, 3)
        assert all(rule is want for (*_, rule), want in zip(runs, (_GL10, _GL3, _GL10)))
        for (_, last, _), (first, _, _) in zip(runs, runs[1:]):
            assert first == last + 1
        assert all(first <= last for first, last, rule in runs if rule is _GL3)

    @given(
        shape=st.one_of(
            st.floats(min_value=math.log(0.05), max_value=math.log(3000.0)).map(math.exp),
            st.integers(min_value=1, max_value=3000).map(float),
        ),
        log_scale=st.floats(min_value=math.log(0.05), max_value=math.log(1e4)),
    )
    @settings(max_examples=60, deadline=None)
    # the theorem1 gamma of rate 0.01, x = 10: a 3-point run without end
    @example(shape=11.0, log_scale=math.log(100.0))
    # a 3-point run with both ends, 2032 .. 9580
    @example(shape=100.0, log_scale=math.log(30.0))
    # the moment_matched gamma of rate 0.01, x = 0: a 3-point run from 401
    # at shape < 1
    @example(shape=0.9900498592156961, log_scale=math.log(100.50083062714273))
    def test_3_point_run_ends_keep_the_remainder_bound(self, shape, log_scale):
        # the windows at either end of a 3-point run come nearest its corner,
        # where the remainder estimate is largest: the rule, without
        # roundoff, stays within 1e-15 of the window's mass
        g = GammaApprox(shape=shape, scale=math.exp(log_scale), kind="test")
        for first, last, _ in (run for run in _rule_runs(g) if run[2] is _GL3):
            ends = [first, first + 1] + ([last - 1, last] if last < sys.maxsize else [])
            for k in ends:
                true = mpmath_window_mass(g.shape, g.scale, k)
                if true > 1e-300:
                    rule_mass = mpmath_gl3_window_mass(g.shape, g.scale, k)
                    assert rule_mass == pytest.approx(true, rel=1e-15, abs=0.0), k

    @given(
        log_shape=st.floats(min_value=math.log(0.05), max_value=math.log(3000.0)),
        log_scale=st.floats(min_value=math.log(0.05), max_value=math.log(1e4)),
        where=st.floats(min_value=-8.0, max_value=8.0),
        length=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=150, deadline=None)
    # variance 0.097: the 10-point rule erred 3.1e-12 at k = 2
    @example(log_shape=math.log(38.8), log_scale=math.log(0.05), where=-6.0, length=12)
    # far left of the mode, where log1p(u) - u loses digits
    @example(log_shape=math.log(60.0), log_scale=math.log(1e4), where=-7.6, length=12)
    def test_windows_near_the_mode_keep_relative_accuracy(
        self, log_shape, log_scale, where, length
    ):
        # a range of windows starting within 8 sd of the mode, whatever rule
        # or incomplete-gamma difference each window takes
        g = GammaApprox(shape=math.exp(log_shape), scale=math.exp(log_scale), kind="test")
        mode = max((g.shape - 1.0) * g.scale, 0.0)
        k_min = max(int(mode + where * math.sqrt(g.shape) * g.scale), 0)
        disc = discretize_gamma(g, k_min, k_min + length - 1, renormalize=False)
        for i, k in enumerate(range(k_min, k_min + length)):
            true = mpmath_window_mass(g.shape, g.scale, k)
            if true > 1e-300:
                assert disc.probs[i] == pytest.approx(true, rel=1e-12, abs=0.0), k

    def test_incomplete_gamma_window_at_a_large_shape(self):
        # ~8 sd left of the mode, a difference of P, whose prefactor taken as
        # u log(v) - v - lgamma(u) would cancel to 2.5e-13
        g = GammaApprox(shape=409.0, scale=0.0579, kind="test")
        mass = discretize_gamma(g, 15, 15, renormalize=False).probs[0]
        assert mass == pytest.approx(mpmath_window_mass(409.0, 0.0579, 15), rel=1e-13, abs=0.0)

    # the worst windows within 9 sd over shapes {120, 300, 1000, 3000} x
    # scales {0.05, 0.08, 0.12}; the first, at x/m = 1.4 in the prefactor's
    # deviance, was 1.9e-13 off while x log(x/m) took the rounding of x/m
    @pytest.mark.parametrize(
        "shape,scale,k",
        [(1000.0, 0.05, 36), (300.0, 0.05, 9), (3000.0, 0.08, 201), (3000.0, 0.05, 126),
         (3000.0, 0.08, 278)],
    )
    def test_worst_large_shape_windows(self, shape, scale, k):
        g = GammaApprox(shape=shape, scale=scale, kind="test")
        mass = discretize_gamma(g, k, k, renormalize=False).probs[0]
        assert mass == pytest.approx(mpmath_window_mass(shape, scale, k), rel=1e-13, abs=0.0)


class TestInequalityCheck:
    def test_small_rate_set(self):
        params = derive_params(*SMALL_RATE)
        res = inequality_check(params, 10, epsilon=0.01)
        # bracket (1 - sqrt(m) + rate) = 0.0538..., times 10 truncates to 0
        assert res.lhs == 0.0
        expected_rhs = math.exp((math.log(math.factorial(10)) + math.log(0.01)) / 11.0)
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
