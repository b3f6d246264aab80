import dataclasses
import math
import re
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpgamma.approximation import (
    KINDS,
    DiscretePmf,
    build_gamma,
    discretize_gamma,
    inequality_check,
    moment_matched_gamma,
    theorem1_gamma,
)
from gpgamma.errors import DomainError, NumericError, PrecisionError
from gpgamma.model import derive_params
from gpgamma.posterior import PosteriorTable, exact_posterior, posterior_moments
from gpgamma.validation import (
    _KL_FLOOR,
    compare,
    compare_kinds,
    denominator_lerch,
    full_support_tv,
    sweep,
    verify_lerch_denominator,
)

from golden import golden_key, golden_lines, load_golden
from oracles import (
    bernoulli_lerch_expansion,
    edge_point,
    masked_kl_terms,
    mpmath_dropped_term_ratio,
    mpmath_lerch_phi,
    skewness_law_tv,
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
    return [rep for _, rep in compare_kinds(table)]


class TestCompareKinds:
    # the golden points, and one x = 0 point
    @pytest.mark.parametrize(
        "abc,x",
        [(abc, x) for abc in (SMALL_RATE, LARGE_RATE) for x in (5, 10, 20)] + [(LARGE_RATE, 0)],
    )
    def test_equals_the_per_kind_loop(self, abc, x):
        table = exact_posterior(derive_params(*abc), x)
        pairs = compare_kinds(table, 0.05)
        assert [rep.kind for _, rep in pairs] == list(KINDS)
        for kind, (disc, rep) in zip(KINDS, pairs):
            g = build_gamma(kind, table)
            expected = discretize_gamma(g, table.k_min, table.k_max, renormalize=True)
            for field in dataclasses.fields(disc):  # probs is an array, so field by field
                assert np.array_equal(getattr(disc, field.name), getattr(expected, field.name))
            assert rep == compare(table, expected, 0.05)

    def test_loose_table_refused_before_any_window(self, monkeypatch):
        def no_window(*args, **kwargs):
            raise AssertionError("a window was evaluated before both gammas were built")

        monkeypatch.setattr("gpgamma.validation.discretize_gamma", no_window)
        table = exact_posterior(derive_params(*SMALL_RATE), 2, eps_tail=1e-4)
        with pytest.raises(PrecisionError):
            compare_kinds(table)


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
        assert exact_posterior(derive_params(*SMALL_RATE), 0).dropped_term_ratio == 0.0
        poisson = derive_params(0.0, 0.3, 0.0)
        assert poisson.w == 1.0
        assert exact_posterior(poisson, 7).dropped_term_ratio == 0.0

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
        got = exact_posterior(params, x, eps).dropped_term_ratio
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
        with pytest.raises(NumericError, match="Lerch series term overflowed"):
            verify_lerch_denominator(params, x)

    @pytest.mark.parametrize("b", [1e-17, 1e-16])
    def test_rate_too_small_for_a_tail_bound_is_a_typed_refusal(self, b):
        # z = e^(-rate) is 1 or (1 + z)/2 rounds to 1: no geometric tail bound
        with pytest.raises(NumericError, match="no tail bound"):
            verify_lerch_denominator(derive_params(0.0, b, 0.0), 2)


def _expansion_error(abc, x, terms):
    """Relative gap of the Bernoulli expansion of Phi(z, -x, w x), z = e^(-rate), from mpmath's."""
    params = derive_params(*abc)
    z, a = math.exp(-params.rate), params.w * x
    # the full series at 30 digits, so the gap is the expansion's
    reference = mpmath_lerch_phi(z, x, a)
    return abs(bernoulli_lerch_expansion(z, x, a, terms) - reference) / reference


class TestVerifyBernoulliExpansion:
    """The expansion the paper's gamma comes from, at the reference sets' normalizers."""

    def test_error_shrinks_with_terms(self):
        errs = [_expansion_error(SMALL_RATE, 3, t) for t in (2, 4, 8)]
        assert errs[2] <= errs[1] <= errs[0]
        assert errs[2] < 1e-12
        for abc in (SMALL_RATE, LARGE_RATE):
            for x in (1, 2, 3):
                # 1e-14 slack: at the small rate 8 terms sit at the reference's noise
                assert _expansion_error(abc, x, 8) <= _expansion_error(abc, x, 2) + 1e-14

    def test_rate_ordering(self):
        assert _expansion_error(LARGE_RATE, 3, 8) > _expansion_error(SMALL_RATE, 3, 8)
        for x in (1, 2):
            assert _expansion_error(LARGE_RATE, x, 8) >= _expansion_error(SMALL_RATE, x, 8)


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
        [
            (0.0, 0.01),
            (0.5, 0.01),
            (1e-10, 0.0),
            (1e-10, math.nan),
            (1e-10, -1.0),
            (1e-10, math.inf),
            (1e-4, 0.01),
        ],
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

    def test_non_whole_count_gives_one_error_row(self):
        results = sweep([(*SMALL_RATE, 2.5), (*SMALL_RATE, 10**400), (*SMALL_RATE, 3)])
        assert [(r.index, r.kind) for r in results] == [
            (0, None),
            (1, None),
            (2, "theorem1"),
            (2, "moment_matched"),
        ]
        assert results[0].report is None and "x=2.5" in results[0].error
        assert results[1].report is None and f"x={10**400}" in results[1].error
        assert all(r.report is not None and r.error is None for r in results[2:])

    def test_window_failure_gives_one_error_row(self, monkeypatch):
        failed = []

        def fail_first_moment_matched(g, *args, **kwargs):
            if g.kind == "moment_matched" and not failed:
                failed.append(g)
                raise NumericError("window mass lost")
            return discretize_gamma(g, *args, **kwargs)

        monkeypatch.setattr("gpgamma.validation.discretize_gamma", fail_first_moment_matched)
        results = sweep([(*SMALL_RATE, 5), (*LARGE_RATE, 5)])
        assert len(failed) == 1
        assert [(r.index, r.kind) for r in results] == [
            (0, None),
            (1, "theorem1"),
            (1, "moment_matched"),
        ]
        assert results[0].report is None and results[0].error == "window mass lost"
        assert all(r.report is not None and r.error is None for r in results[1:])


COUNT_ENTRIES = [exact_posterior, theorem1_gamma, inequality_check, denominator_lerch]
# the entries whose count starts at 1
LEAST_ONE = [inequality_check, denominator_lerch]


class TestCountRefusal:
    """Every entry that takes the count x takes it as a whole number in its
    range, below 2**53, where x + 1, and k and k + 1, are still distinct floats."""

    @pytest.mark.parametrize(
        "x",
        [2.5, math.nan, math.inf, np.float64(2.5), -1, 2**53, 2**53 + 1, 10**400],
        ids=["2.5", "nan", "inf", "float64", "-1", "2**53", "2**53+1", "10**400"],
    )
    @pytest.mark.parametrize("entry", COUNT_ENTRIES, ids=lambda f: f.__name__)
    def test_non_whole_count_is_refused(self, entry, x):
        with pytest.raises(DomainError, match=f"^x must be a non-negative integer.*x={x}"):
            entry(derive_params(*SMALL_RATE), x)

    def test_largest_count_has_shape_x_plus_one(self):
        # the largest count: its x + 1, 2**53, is still exact as a float
        assert theorem1_gamma(derive_params(*SMALL_RATE), 2**53 - 1).shape == 2.0**53

    @pytest.mark.parametrize("entry", LEAST_ONE, ids=lambda f: f.__name__)
    def test_zero_count_is_refused_where_the_count_starts_at_one(self, entry):
        with pytest.raises(DomainError, match="x=0"):
            entry(derive_params(*SMALL_RATE), 0)

    @pytest.mark.parametrize("entry", COUNT_ENTRIES, ids=lambda f: f.__name__)
    def test_whole_float_count_is_its_int(self, entry):
        params = derive_params(*SMALL_RATE)
        assert repr(entry(params, 3.0)) == repr(entry(params, 3))


def _posterior(abc, x):
    return exact_posterior(derive_params(*abc), x)


def _params(abc, x):
    return derive_params(*abc)


def _theorem1_window(abc, x):
    return discretize_gamma(theorem1_gamma(derive_params(*abc), x), x, x + 5, True)


TYPED = (DomainError, PrecisionError, NumericError)


class TestTinyRateRefusal:
    """Rates near the float floor: every entry answers with finite numbers
    or raises a typed error, and ``sweep`` records one error row."""

    @pytest.mark.parametrize(
        "abc,x,entry,error,match,sweep_match",
        [
            # m = 1: the mode x / rate overflows
            ((0.0, 1e-300, 0.0), 10**9, _posterior, PrecisionError,
             "^x=1000000000 at rate=1e-300 has no finite mode", None),
            # w and g = (w - 1) x are infinite, so the mode is NaN
            ((0.0, 1e-300, -0.5), 10**10, _posterior, PrecisionError,
             "^x=10000000000 at rate=7.79e-301 has no finite mode", None),
            ((0.0, 5e-324, -0.5), 0, _posterior, PrecisionError,
             "^x=0 at rate=4.94e-324 has no finite mode", None),
            # a finite mode whose log-weights round too coarsely names the rate
            ((0.0, 1e-17, -0.5), 5, _posterior, PrecisionError,
             "^x=5 is too large for eps_tail=1e-10 at rate=7.79e-18: ", None),
            # b sqrt(m) rounds to 0
            ((0.0, 5e-324, -2.0), 3, _params, DomainError, "underflows to 0", None),
            # rate 6.6e-306: theorem1's mean (x + 1) / rate overflows; sweep
            # never builds the gamma, as the table refuses w < 0 first
            ((0.0, 3.3e-306, math.log(3.99999999999)), 10**6, _theorem1_window, DomainError,
             "with a finite mean", "requires w = 1 [+] lambda2/rate > 0"),
            # the window x .. x + 5 lies ~1e240 below the mode, where the
            # kernel's log-density rounds by ~1e3; sweep never builds the
            # gamma, as the table refuses its own rounding first
            ((0.0, 7.774667420826337e-225, 0.0), 2**53 - 1, _theorem1_window, PrecisionError,
             "lies too far out in the gamma's tail", "^x=9007199254740991 is too large"),
        ],
        ids=["mode-inf", "mode-nan", "mode-nan-x0", "coarse", "rate-zero", "mean-inf", "far-window"],
    )
    def test_refused_and_one_sweep_error_row(self, abc, x, entry, error, match, sweep_match):
        with pytest.raises(error, match=match):
            entry(abc, x)
        results = sweep([(*abc, x), (*SMALL_RATE, 3)])
        assert [(r.index, r.kind) for r in results] == [
            (0, None),
            (1, "theorem1"),
            (1, "moment_matched"),
        ]
        assert results[0].report is None
        assert re.search(sweep_match or match, results[0].error)

    def test_far_theorem1_window_is_answered(self):
        """sqrt(m) = 0.9, rate 0.1, x = 10^6: the table lies ~90 sd left of
        theorem1's mode, so the window's raw masses underflow and are taken
        again about the range's peak, where the centred kernel rounds by
        ~2e-11, relative, well inside the far-tail refusal's 1e-6."""
        table = exact_posterior(derive_params(0.0, 1.0 / 9.0, 2.0 * math.log(0.9)), 10**6)
        (theorem1, near), (_, matched) = compare_kinds(table)
        assert theorem1.raw_total == 0.0 and np.isfinite(theorem1.probs).all()
        assert near.tv == pytest.approx(1.0, abs=1e-9)
        assert matched.tv < 1e-4

    @given(
        log10_b=st.floats(-324.0, 0.0, exclude_max=True),
        m=st.one_of(st.just(1.0), st.floats(0.0, 4.0, exclude_min=True, exclude_max=True)),
        x=st.sampled_from([0, 1, 7, 10**3, 10**6, 10**9, 2**53 - 1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_entry_answers_or_refuses(self, log10_b, m, x):
        """b log-uniform down to 5e-324.  For time only, ``exact_posterior``
        is skipped on draws with rate < 1e-5 and x < 10^6: those run to the
        10^7-term cap, 0.2 s each, before ``NumericError``."""
        try:
            params = derive_params(0.0, max(10.0**log10_b, 5e-324), math.log(m))
        except TYPED:
            return
        abc = params.a, params.b, params.c
        entries = [_theorem1_window, lambda abc, x: inequality_check(params, x)]
        if params.rate >= 1e-5 or x >= 10**6:
            entries.append(_posterior)
        for entry in entries:
            try:
                got = entry(abc, x)
            except TYPED:
                continue
            if hasattr(got, "probs"):
                assert np.isfinite(got.probs).all()
            if hasattr(got, "tail_bound"):
                assert math.isfinite(got.tail_bound)
            if hasattr(got, "rhs"):
                assert math.isfinite(got.lhs) and math.isfinite(got.rhs)


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

    @pytest.mark.parametrize("kind", KINDS)
    def test_large_shape_point(self, kind):
        # rate 0.01, x = 30000: the table's left edge lies 6.5-6.8 sd below
        # the mean of a gamma of shape ~3e4, where P takes ~650 series terms
        params = derive_params(1.5, 0.01002004008016032, -0.019034065461586633)
        table = exact_posterior(params, 30000)
        g = build_gamma(kind, table)
        disc = discretize_gamma(g, table.k_min, table.k_max, renormalize=False)
        with mpmath.workdps(30):
            u, scale = mpmath.mpf(g.shape), mpmath.mpf(g.scale)
            below = mpmath.gammainc(u, 0, (table.k_min - 0.5) / scale, regularized=True)
            above = mpmath.gammainc(u, (table.k_max + 0.5) / scale, regularized=True)
        expected = 0.5 * (np.abs(table.probs - disc.probs).sum() + float(below + above))
        assert full_support_tv(table, g) == pytest.approx(expected, rel=2e-9)


class TestWindowingRateAtPoissonPoint:
    # At m = 1 the posterior is the theorem1 gamma's density at the
    # integers, so all of theorem1's TV comes from the half-integer windows
    # and TV / b^2 tends to C_x as b falls.  moment_matched shares the
    # limit but sits 0.29% low at x = 1000: it takes the truncated table's
    # variance, ~4e-11 low at eps_tail 1e-12, which shifts its TV by a fixed
    # ~9e-12 while C_x b^2 falls (ROADMAP item 17), so only theorem1 is held
    # to it.
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

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 14: kl's terms round below 0")
    def test_kl_is_non_negative(self):
        # far below the rounding of kl's terms p log(p/q): 3 of these 64
        # reports print a negative kl, down to -1.7e-16
        kls = []
        for x in (1, 10, 100, 1000):
            for b in (0.1, 0.05, 0.025, 0.0125):
                params = derive_params(1.5, b, -1.5 * b)
                assert params.m == 1.0
                for eps_tail in (1e-10, 1e-12):
                    table = exact_posterior(params, x, eps_tail)
                    kls += [rep.kl for rep in _reports(table)]
        assert len(kls) == 64
        assert min(kls) >= 0.0


class TestSkewnessLaw:
    # moment_matched's tv is its skewness gap |2/sqrt(x+1) - 2 sigma/mu|
    # times 0.1258; the next Edgeworth terms fall as 1/x, so the law holds
    # within 0.9-1.3% at x = 100 and 0.09-0.13% at x = 1000 here
    @pytest.mark.parametrize("x,rel", [(100, 0.02), (1000, 0.002)])
    @pytest.mark.parametrize("rate,sqrt_m", [(0.01, 0.998), (0.105, 1.0513), (0.71, 1.419)])
    def test_moment_matched_tv_is_the_skewness_law(self, rate, sqrt_m, x, rel):
        a, b = 1.5, rate / sqrt_m
        table = exact_posterior(derive_params(a, b, 2.0 * math.log(sqrt_m) - a * b), x)
        tv = {rep.kind: rep.tv for rep in _reports(table)}["moment_matched"]
        assert tv == pytest.approx(skewness_law_tv(table), rel=rel)
