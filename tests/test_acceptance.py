"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` to see the printed summary lines as well).
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gpgamma.approximation import (
    discretize_gamma,
    moment_matched_gamma,
    theorem1_gamma,
)
from gpgamma.model import derive_params
from gpgamma.posterior import exact_posterior, posterior_moments
from gpgamma.special import reg_lower_inc_gamma
from gpgamma.validation import compare, full_support_tv, verify_lerch_denominator

from oracles import bernoulli_power_sum, brute_posterior, quad_reg_lower_inc_gamma

SMALL_RATE = (1.5, 0.1, -0.05)
LARGE_RATE = (1.5, 0.5, -0.05)


def _passed(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE criterion {criterion:02d}: PASS - {message}")


def test_c01_parameter_derivation():
    small = derive_params(*SMALL_RATE)
    large = derive_params(*LARGE_RATE)
    assert small.m == pytest.approx(math.exp(0.1), rel=1e-15)
    assert large.m == pytest.approx(math.exp(0.7), rel=1e-15)
    assert float(f"{small.m:.2g}") == 1.1
    assert float(f"{large.m:.2g}") == 2.0
    _passed(1, "m = e^0.1 and e^0.7, rounding to 1.1 and 2.0")


def test_c02_exact_posterior_oracle_equivalence():
    for abc in (SMALL_RATE, LARGE_RATE):
        params = derive_params(*abc)
        for x in (1, 5, 10, 20):
            table = exact_posterior(params, x, eps_tail=1e-10)
            _, brute = brute_posterior(params, x, k_top=100_000)
            window = brute[table.k_min - x : table.k_max - x + 1]  # brute starts at k = x
            rel = np.abs(table.probs - window) / window
            assert rel.max() < 1e-10, (abc, x, rel.max())
            assert abs(table.probs.sum() - 1.0) <= 1e-10
            assert table.tail_bound <= 1e-10
    _passed(2, "log-space engine matches brute force within 1e-10 per entry")


def test_c03_closed_form_reductions():
    params = derive_params(*SMALL_RATE)
    table = exact_posterior(params, 0, eps_tail=1e-13)
    q = math.exp(-params.rate)
    expected = (1.0 - q) * q ** table.support
    assert np.max(np.abs(table.probs - expected)) < 1e-12

    poisson_point = derive_params(0.0, 0.4, 0.0)
    for x in (1, 5, 12):
        table = exact_posterior(poisson_point, x, eps_tail=1e-12)
        ks = table.support.astype(float)
        raw = np.exp(x * np.log(ks) - 0.4 * ks)
        proportional = raw / raw.sum()
        rel = np.abs(table.probs - proportional) / proportional
        assert rel.max() < 1e-12, (x, rel.max())
    _passed(3, "geometric reduction at x=0 and power-law reduction at m=1")


def test_c04_lerch_identity():
    for abc in (SMALL_RATE, LARGE_RATE):
        params = derive_params(*abc)
        for x in range(1, 16):
            err = verify_lerch_denominator(params, x)
            assert err < 1e-8, (abc, x, err)
    _passed(4, "Lerch-form normalizer matches the direct series within 1e-8")


def test_c05_power_sum_identity():
    for n in range(0, 21):
        for upper in range(1, 31):
            expected = sum(r**n for r in range(upper))
            got = bernoulli_power_sum(n, upper)
            if expected == 0:
                assert abs(got) < 1e-9, (n, upper, got)
            else:
                assert abs(got - expected) / expected < 1e-9, (n, upper)
    _passed(5, "Bernoulli power-sum identity within 1e-9 for n <= 20, X <= 30")


def test_c06_incomplete_gamma_oracle():
    for u in (0.5, 1.0, 2.5, 11.0, 31.0):
        for v in (0.1, 1.0, u, 3.0 * u):
            mine = reg_lower_inc_gamma(u, v)
            oracle = quad_reg_lower_inc_gamma(u, v)
            assert abs(mine - oracle) < 1e-10, (u, v)
    _passed(6, "regularized incomplete gamma matches quadrature within 1e-10")


def test_c07_moment_matching():
    for abc in (SMALL_RATE, LARGE_RATE):
        params = derive_params(*abc)
        for x in (5, 10, 20):
            table = exact_posterior(params, x)
            mu, var = posterior_moments(table)
            matched = moment_matched_gamma(mu, var)
            assert matched.mean == pytest.approx(mu, rel=1e-12)
            assert matched.variance == pytest.approx(var, rel=1e-12)
            tv = {}
            for g in (theorem1_gamma(params, x), matched):
                disc = discretize_gamma(g, table.k_min, table.k_max, renormalize=True)
                tv[g.kind] = compare(table, disc).tv
            assert tv["moment_matched"] <= tv["theorem1"], (abc, x, tv)
    _passed(7, "moment matching reconstructs moments and beats the closed form")


def test_c08_small_rate_regime():
    """Full-support TV of the closed-form gamma at x = 10 never rises as b shrinks.

    m = e^0.1 stays fixed.  With sqrt(m) > 1 the domain w > 0 ends at
    rate = sqrt(m) - 1 (b = 0.0488 here), so b cannot go to 0: b = 0.05
    sits at w = 0.0246, next to that edge.  The TV levels off near 0.058
    (0.0586 at b = 0.4, 0.0580 from b = 0.2 on) instead of going to 0, so
    the test shows a non-increasing TV, not convergence.
    """
    # hold a*b + c (hence m) fixed at 0.1 while b shrinks
    tvs = []
    for b in (0.4, 0.2, 0.1, 0.05):
        a = 1.5
        c = 0.1 - a * b
        params = derive_params(a, b, c)
        assert params.m == pytest.approx(math.exp(0.1), rel=1e-14)
        table = exact_posterior(params, 10)
        tvs.append(full_support_tv(table, theorem1_gamma(params, 10)))
    for earlier, later in zip(tvs, tvs[1:]):
        assert later <= earlier, tvs
    _passed(8, f"full-support TV non-increasing as b shrinks: {[f'{t:.6f}' for t in tvs]}")


def test_c09_regime_deterioration():
    small = derive_params(*SMALL_RATE)
    large = derive_params(*LARGE_RATE)
    for x in (5, 10, 20):
        reports = {}
        for tag, params in (("small", small), ("large", large)):
            table = exact_posterior(params, x)
            disc = discretize_gamma(
                theorem1_gamma(params, x), table.k_min, table.k_max, renormalize=True
            )
            reports[tag] = compare(table, disc)
        for metric in ("tv", "kl", "sup_abs"):
            assert getattr(reports["large"], metric) > getattr(reports["small"], metric), (
                x,
                metric,
            )
    _passed(9, "every theorem1 distance metric larger under the b=0.5 set")


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "gpgamma", *args], capture_output=True, text=True
    )


def test_c10_cli_end_to_end(tmp_path):
    fig_a = ["-a", "1.5", "-b", "0.1", "-c", "-0.05"]
    grid = tmp_path / "grid.csv"
    grid.write_text("1.5,0.1,-0.05,10\n")
    invocations = [
        ("posterior", *fig_a, "-x", "10"),
        ("approx", *fig_a, "-x", "10", "--kind", "theorem1"),
        ("compare", *fig_a, "-x", "10"),
        ("verify", "all"),
        ("sweep", str(grid)),
    ]
    for args in invocations:
        first = _run_cli(*args)
        second = _run_cli(*args)
        assert first.returncode == 0, (args, first.stderr)
        assert first.stdout == second.stdout, args
        assert first.stdout.splitlines()[0] == "# schema_version=1"
        json_run = _run_cli(*args, "--format", "json")
        assert json_run.returncode == 0, (args, json_run.stderr)
        doc = json.loads(json_run.stdout)
        assert doc["schema_version"] == "1"
    assert _run_cli("posterior", "-a", "1.5", "-b", "1.5", "-c", "0", "-x", "1").returncode == 1
    assert _run_cli("posterior", "-a", "1.5", "-b", "0.1", "-x", "1").returncode == 2
    _passed(10, "subcommands deterministic with exit codes 0/1/2 as specified")
