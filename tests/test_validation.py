import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpgamma.approximation import (
    KINDS,
    DiscretePmf,
    build_gamma,
    discretize_gamma,
    moment_matched_gamma,
    theorem1_gamma,
)
from gpgamma.errors import DomainError, NumericError, UnsupportedOrderError
from gpgamma.model import derive_params
from gpgamma.posterior import PosteriorTable, exact_posterior, posterior_moments
from gpgamma.validation import (
    _KL_FLOOR,
    _dropped_term_ratio,
    compare,
    full_support_tv,
    sweep,
    verify_bernoulli_expansion,
    verify_lerch_denominator,
)

from golden import golden_key, golden_lines, load_golden
from oracles import (
    edge_point,
    masked_kl_terms,
    mpmath_dropped_term_ratio,
    windowing_tv_constant,
)

SMALL_RATE = (1.5, 0.1, -0.05)
LARGE_RATE = (1.5, 0.5, -0.05)
FIXTURES = Path(__file__).parent / "fixtures" / "golden_metrics.txt"


def _table_with(params, x, probs):
    probs = np.asarray(probs, dtype=float)
    return PosteriorTable(
        params=params,
        x=x,
        k_min=x,
        k_max=x + len(probs) - 1,
        log_weights=np.log(np.maximum(probs, 1e-300)),
        probs=probs,
        tail_bound=0.0,
        log_normalizer=0.0,
    )


def _pmf(k_min, probs, kind="theorem1"):
    probs = np.asarray(probs, dtype=float)
    return DiscretePmf(
        k_min=k_min, probs=probs, renormalized=True, raw_total=float(probs.sum()), kind=kind
    )


class TestCompare:
    def test_self_comparison_is_zero(self):
        params = derive_params(*SMALL_RATE)
        table = exact_posterior(params, 4)
        rep = compare(table, _pmf(table.k_min, table.probs.copy()))
        assert rep.tv == 0.0
        assert rep.kl == 0.0
        assert rep.sup_abs == 0.0

    def test_disjoint_mass(self):
        params = derive_params(0.0, 0.3, 0.0)
        table = _table_with(params, 2, [1.0, 0.0])
        rep = compare(table, _pmf(2, [0.0, 1.0]))
        assert rep.tv == 1.0
        assert rep.kl > 0.0

    def test_report_fields(self):
        params = derive_params(*SMALL_RATE)
        table = exact_posterior(params, 10)
        mu, var = posterior_moments(table)
        disc = discretize_gamma(
            moment_matched_gamma(mu, var), table.k_min, table.k_max, renormalize=True
        )
        rep = compare(table, disc)
        assert rep.kind == "moment_matched"
        assert rep.mean_exact == pytest.approx(mu, rel=1e-14)
        assert 0.0 < rep.raw_total <= 1.0
        assert rep.inequality_holds
        # second-to-first normalizer term ratio carries the sign of lambda2
        assert rep.dropped_term_ratio == pytest.approx(-0.05127, abs=1e-4)

    def test_misaligned_supports_rejected(self):
        params = derive_params(*SMALL_RATE)
        table = exact_posterior(params, 4)
        with pytest.raises(ValueError, match="misaligned"):
            compare(table, _pmf(5, table.probs[1:].copy()))
        with pytest.raises(ValueError, match="misaligned"):
            compare(table, _pmf(4, table.probs[:-3].copy()))

    @pytest.mark.parametrize("x", [0, 4])
    def test_nonpositive_epsilon_rejected_at_any_x(self, x):
        table = exact_posterior(derive_params(*SMALL_RATE), x)
        with pytest.raises(DomainError, match="epsilon must be positive"):
            compare(table, _pmf(table.k_min, table.probs.copy()), epsilon_ineq=0.0)

    def test_unnormalized_rejected(self):
        params = derive_params(*SMALL_RATE)
        table = exact_posterior(params, 4)
        raw = DiscretePmf(
            k_min=4, probs=table.probs * 0.5, renormalized=False, raw_total=0.5, kind="theorem1"
        )
        with pytest.raises(ValueError, match="renormalized"):
            compare(table, raw)

    def test_zero_mass_entries_add_nothing_to_kl(self):
        params = derive_params(*SMALL_RATE)
        rep = compare(_table_with(params, 3, [0.5, 0.0, 0.5]), _pmf(3, [0.25, 0.5, 0.25]))
        assert rep.kl == math.log(2.0)
        assert (rep.tv, rep.sup_abs) == (0.5, 0.5)
        # q below the floor is taken at the floor
        rep = compare(_table_with(params, 3, [1.0, 0.0]), _pmf(3, [0.0, 1.0]))
        assert rep.kl == math.log(1.0 / _KL_FLOOR)

    @given(
        pairs=st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 1.0)),
            ),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_distances_match_the_masked_formulas(self, pairs):
        p, q = (np.array(column) for column in zip(*pairs))
        params = derive_params(*SMALL_RATE)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = compare(_table_with(params, 3, p), _pmf(3, q))
        assert rep.tv == 0.5 * float(np.abs(p - q).sum())
        assert rep.sup_abs == float(np.max(np.abs(p - q)))
        terms = masked_kl_terms(p, q, _KL_FLOOR)
        if (p > 0.0).all():
            assert rep.kl == float(terms.sum())
        else:
            # the zero entries stay in the sum and move numpy's pairwise
            # grouping; the terms may cancel, so the gap is bounded relative
            # to their magnitude
            assert abs(rep.kl - float(terms.sum())) <= 1e-15 * float(np.abs(terms).sum())


def _reports(table):
    """compare on both gamma kinds over the table's window."""
    reports = []
    for kind in KINDS:
        g = build_gamma(kind, table)
        reports.append(compare(table, discretize_gamma(g, table.k_min, table.k_max, True)))
    return reports


def _assert_finite(rep):
    for field in dataclasses.fields(rep):
        value = getattr(rep, field.name)
        if isinstance(value, float):
            assert math.isfinite(value), (field.name, value)


class TestCompareNeverRefuses:
    # the five regime-grid points (a = 1.5, sqrt(m) at its band centre)
    # where the Lerch series of the ratio overflowed and compare refused
    @pytest.mark.parametrize(
        "rate,sqrt_m,x",
        [(0.01, 0.998, 100), (0.01, 0.998, 1000), (0.105, 1.0513, 100),
         (0.105, 1.0513, 1000), (0.71, 1.419, 1000)],
    )
    def test_large_x_grid_points(self, rate, sqrt_m, x):
        b = rate / sqrt_m
        table = exact_posterior(derive_params(1.5, b, 2.0 * math.log(sqrt_m) - 1.5 * b), x)
        for rep in _reports(table):
            _assert_finite(rep)
            assert rep.dropped_term_ratio != 0.0

    @given(
        b=st.one_of(st.floats(0.01, 0.999), st.floats(0.999, 1.0, exclude_max=True)),
        gap=st.one_of(st.floats(1e-12, 1e-3), st.floats(1e-3, 0.97)),
        x=st.integers(0, 2000),
        log10_eps=st.floats(-13.0, -6.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_domain_edges(self, b, gap, x, log10_eps):
        params = edge_point(b, gap)
        assume(params.rate >= 0.005)
        x = min(x, int(params.rate * 20_000 / 2))  # the table stays near 2e4 terms
        for rep in _reports(exact_posterior(params, x, 10.0**log10_eps)):
            _assert_finite(rep)


class TestDroppedTermRatio:
    def test_vanishes_at_x_zero_and_at_m_one(self):
        assert _dropped_term_ratio(exact_posterior(derive_params(*SMALL_RATE), 0)) == 0.0
        poisson = derive_params(0.0, 0.3, 0.0)
        assert poisson.w == 1.0
        assert _dropped_term_ratio(exact_posterior(poisson, 7)) == 0.0

    @given(
        b=st.floats(0.02, 0.99),
        gap=st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, 0.97)),
        x=st.integers(1, 100),
        log10_eps=st.floats(-12.0, -6.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_the_lerch_series(self, b, gap, x, log10_eps):
        # the table omits a relative tail below eps_tail, so the ratio taken
        # under it may differ from the full series by about that much
        params = edge_point(b, gap)
        assume(params.rate >= 0.02)
        eps = 10.0**log10_eps
        got = _dropped_term_ratio(exact_posterior(params, x, eps))
        assert got == pytest.approx(mpmath_dropped_term_ratio(params, x), rel=eps, abs=0.0)


class TestVerifyLerchDenominator:
    @pytest.mark.parametrize("abc,x", [(SMALL_RATE, 5), (LARGE_RATE, 12)])
    def test_reference_points(self, abc, x):
        params = derive_params(*abc)
        assert verify_lerch_denominator(params, x) < 1e-8

    def test_poisson_point_second_term_vanishes(self):
        params = derive_params(0.0, 0.3, 0.0)
        assert params.w == 1.0
        assert verify_lerch_denominator(params, 5) < 1e-8

    def test_needs_positive_x(self):
        params = derive_params(*SMALL_RATE)
        with pytest.raises(DomainError):
            verify_lerch_denominator(params, 0)

    @pytest.mark.parametrize("abc,x", [(SMALL_RATE, 95), (LARGE_RATE, 124)])
    def test_lerch_overflow_is_a_typed_refusal(self, abc, x):
        # the first x at which the Lerch terms overflow, at rates 0.105 and 0.71
        params = derive_params(*abc)
        with pytest.raises(NumericError, match="lerch_phi term overflowed"):
            verify_lerch_denominator(params, x)


class TestVerifyBernoulliExpansion:
    def test_error_shrinks_with_terms(self):
        params = derive_params(*SMALL_RATE)
        errs = [verify_bernoulli_expansion(params, 3, t) for t in (2, 4, 8)]
        assert errs[2] <= errs[1] <= errs[0]
        assert errs[2] < 1e-12

    def test_rate_ordering(self):
        small = derive_params(*SMALL_RATE)
        large = derive_params(*LARGE_RATE)
        assert verify_bernoulli_expansion(large, 3, 8) > verify_bernoulli_expansion(
            small, 3, 8
        )

    def test_bounds(self):
        params = derive_params(*SMALL_RATE)
        with pytest.raises(DomainError):
            verify_bernoulli_expansion(params, 21, 4)
        with pytest.raises(DomainError):
            verify_bernoulli_expansion(params, 3, 0)
        with pytest.raises(UnsupportedOrderError):
            verify_bernoulli_expansion(params, 20, 45)


class TestSweep:
    def test_reference_grid_shape_and_order(self):
        grid = [(a, b, c, x) for (a, b, c) in (SMALL_RATE, LARGE_RATE) for x in (5, 10)]
        results = sweep(grid)
        assert len(results) == 8
        assert [r.index for r in results] == [0, 0, 1, 1, 2, 2, 3, 3]
        assert [r.kind for r in results[:2]] == ["theorem1", "moment_matched"]
        assert all(r.error is None and r.report is not None for r in results)

    def test_empty_grid(self):
        assert sweep([]) == []

    @pytest.mark.parametrize(
        "eps_tail,epsilon_ineq",
        [(0.0, 0.01), (0.5, 0.01), (1e-10, 0.0), (1e-10, math.nan), (1e-10, -1.0), (1e-4, 0.01)],
    )
    @pytest.mark.parametrize("points", [0, 2])
    def test_bad_tolerance_refused_before_any_point(
        self, monkeypatch, eps_tail, epsilon_ineq, points
    ):
        def no_table(*args):
            raise AssertionError("a point ran before the tolerances were checked")

        monkeypatch.setattr("gpgamma.validation.exact_posterior", no_table)
        grid = [(*SMALL_RATE, 5), (*LARGE_RATE, 5)][:points]
        with pytest.raises(DomainError, match="eps"):
            sweep(grid, eps_tail, epsilon_ineq)

    def test_bad_point_is_recorded_not_fatal(self):
        grid = [
            (*SMALL_RATE, 5),
            (1.5, 1.5, 0.0, 1),
            (*LARGE_RATE, 5),
        ]
        results = sweep(grid)
        assert len(results) == 5
        failed = results[2]
        assert failed.index == 1
        assert failed.report is None
        assert "b must lie" in failed.error
        assert results[3].index == 2 and results[3].report is not None


@pytest.fixture(scope="module")
def grid_reports():
    grid = [(a, b, c, x) for (a, b, c) in (SMALL_RATE, LARGE_RATE) for x in (5, 10, 20)]
    return [r for r in sweep(grid) if r.report is not None]


class TestReportInvariants:
    def test_metric_ranges(self, grid_reports):
        for res in grid_reports:
            rep = res.report
            assert 0.0 <= rep.tv <= 1.0
            assert rep.kl >= 0.0
            assert (rep.kl < 1e-12) == (rep.tv < 1e-12)

    def test_moment_matched_tracks_exact_moments(self, grid_reports):
        for res in grid_reports:
            rep = res.report
            if rep.kind == "moment_matched":
                assert abs(rep.mean_approx - rep.mean_exact) <= 0.5

    def test_moment_matched_beats_theorem1(self, grid_reports):
        by_point = {}
        for res in grid_reports:
            by_point.setdefault((res.index,), {})[res.kind] = res.report
        for kinds in by_point.values():
            assert kinds["moment_matched"].tv <= kinds["theorem1"].tv

    def test_rate_regime_ordering_both_kinds(self, grid_reports):
        # at equal x, every metric under the large-rate set exceeds the
        # small-rate one, for both constructions
        small = {(r.x, r.kind): r.report for r in grid_reports if r.b == 0.1}
        large = {(r.x, r.kind): r.report for r in grid_reports if r.b == 0.5}
        for key, rep_small in small.items():
            rep_large = large[key]
            for metric in ("tv", "kl", "sup_abs"):
                assert getattr(rep_large, metric) > getattr(rep_small, metric)


class TestGoldenFixtures:
    def test_pinned_metrics(self):
        golden = load_golden(FIXTURES)
        assert len(golden) == 36
        for a, b, c in (SMALL_RATE, LARGE_RATE):
            params = derive_params(a, b, c)
            for x in (5, 10, 20):
                table = exact_posterior(params, x)
                mu, var = posterior_moments(table)
                for kind in ("theorem1", "moment_matched"):
                    g = (
                        theorem1_gamma(params, x)
                        if kind == "theorem1"
                        else moment_matched_gamma(mu, var)
                    )
                    disc = discretize_gamma(g, table.k_min, table.k_max, renormalize=True)
                    rep = compare(table, disc)
                    for metric in ("tv", "kl", "sup_abs"):
                        pinned = golden[golden_key(a, b, c, x, kind, metric)]
                        assert getattr(rep, metric) == pytest.approx(pinned, abs=1e-6)

    def test_line_format_round_trip(self, tmp_path):
        params = derive_params(*SMALL_RATE)
        table = exact_posterior(params, 5)
        mu, var = posterior_moments(table)
        disc = discretize_gamma(
            moment_matched_gamma(mu, var), table.k_min, table.k_max, renormalize=True
        )
        rep = compare(table, disc)
        lines = golden_lines(*SMALL_RATE, 5, [rep])
        assert len(lines) == 3
        assert all(len(line.split(",")) == 7 for line in lines)
        path = tmp_path / "golden.txt"
        path.write_text("# comment\n" + "\n".join(lines) + "\n")
        loaded = load_golden(path)
        assert loaded[golden_key(1.5, 0.1, -0.05, 5, "moment_matched", "tv")] == pytest.approx(
            rep.tv, abs=1e-11
        )


class TestFullSupportTv:
    def test_counts_off_window_mass(self):
        params = derive_params(*SMALL_RATE)
        x = 10
        table = exact_posterior(params, x)
        g = theorem1_gamma(params, x)
        disc = discretize_gamma(g, table.k_min, table.k_max, renormalize=False)
        manual = 0.5 * (
            np.abs(table.probs - disc.probs).sum() + (1.0 - disc.raw_total)
        )
        assert full_support_tv(table, g) == pytest.approx(manual, abs=1e-12)

    def test_small_rate_limit_value(self):
        # pinned during development; the full-support TV converges to the
        # intrinsic shape mismatch as the rate shrinks
        params = derive_params(*SMALL_RATE)
        table = exact_posterior(params, 10)
        tv = full_support_tv(table, theorem1_gamma(params, 10))
        assert tv == pytest.approx(0.0579958, abs=1e-6)


class TestWindowingRateAtPoissonPoint:
    # At m = 1 the posterior is the theorem1 gamma's density at the
    # integers, so all of theorem1's TV comes from the half-integer windows
    # and TV / b^2 tends to C_x as b falls.  moment_matched shares the
    # limit but sits 0.3% low at x = 1000, for a reason not yet known, so
    # only theorem1 is held to it.
    @pytest.mark.parametrize("x", [10, 100, 1000])
    def test_theorem1_tv_over_b_squared_is_the_windowing_constant(self, x):
        a, b = 1.5, 0.0125
        params = derive_params(a, b, -a * b)
        assert params.m == 1.0
        table = exact_posterior(params, x, 1e-12)
        disc = discretize_gamma(
            theorem1_gamma(params, x), table.k_min, table.k_max, renormalize=True
        )
        ratio = compare(table, disc).tv / b**2
        assert ratio == pytest.approx(windowing_tv_constant(x), rel=1e-4)
