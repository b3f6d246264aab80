"""Tests of the benchmark itself: inputs, checks and traced counts.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import math

import pytest

import run

run.import_gpgamma()

import gpgamma as gp  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

COUNTS = (
    "posterior.exact_posterior.calls",
    "posterior.exact_posterior.terms",
    "posterior.exact_posterior.max_terms",
    "posterior.posterior_moments.calls",
    "approximation.discretize_gamma.calls",
    "approximation.discretize_gamma.windows",
    "approximation.discretize_gamma.zero_windows",
    "special.reg_lower_inc_gamma.calls",
    "special.lerch_phi.calls",
    "validation.compare.calls",
    "validation.compare.failed",
)


def points(wl):
    if wl.name == "cli":
        return wl.grid + [op.point for op in wl.ops if op.point is not None]
    return wl.ops


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic_per_seed(name):
    first = points(workloads.build(name, 7, run.ROOT))
    again = points(workloads.build(name, 7, run.ROOT))
    other = points(workloads.build(name, 8, run.ROOT))
    assert first == again
    assert first != other


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_points_lie_in_the_documented_domain(name, seed):
    wl = workloads.build(name, seed, run.ROOT)
    golden = set(workloads.read_golden(run.ROOT))
    for p in points(wl):
        params = gp.derive_params(p.a, p.b, p.c)
        assert 0.0 < p.b < 1.0 and 0.0 < params.m < 4.0 and params.w > 0.0
        if (p.a, p.b, p.c, p.x) not in golden:
            target = min(workloads.RATES, key=lambda r: abs(r - params.rate))
            assert params.rate == pytest.approx(target, rel=1e-12)


def test_regime_grid_covers_grid_and_goldens():
    wl = workloads.build("regime-grid", 3, run.ROOT)
    assert len(wl.ops) == len(workloads.RATES) * len(workloads.GRID_X) + 6


def _traced_counts(name: str, seed: int) -> dict:
    wl = workloads.build(name, seed, run.ROOT)
    wl.prepare()
    rec = Recorder()
    rec.install()
    try:
        result = run.run_pass(wl, wl.run_inprocess if name == "cli" else wl.run, rec)
    finally:
        rec.uninstall()
    assert result["tally"]["wrong"] == 0 and result["tally"]["failed"] == 0
    return {k: result["layers"][k] for k in COUNTS}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat_exactly(name):
    first = _traced_counts(name, 4)
    assert first == _traced_counts(name, 4)
    assert first["posterior.exact_posterior.calls"] > 0


def test_recorder_restores_the_library():
    original = gp.exact_posterior
    rec = Recorder()
    rec.install()
    try:
        assert gp.exact_posterior is not original
        assert gp.validation.exact_posterior is gp.exact_posterior
    finally:
        rec.uninstall()
    assert gp.exact_posterior is original
    assert gp.validation.exact_posterior is original


def test_golden_mismatch_is_flagged():
    wl = workloads.build("regime-grid", 1, run.ROOT)
    wl.prepare()
    p = wl.ops[-1]  # a golden point
    out = wl.run(p)
    assert out.status == "ok" and wl.check(p, out) == []
    table, mu, discs, reports = out.value
    off = dataclasses.replace(reports[0], tv=reports[0].tv + 2e-6)
    problems = wl.check(p, workloads.Outcome("ok", (table, mu, discs, [off, reports[1]])))
    assert any("golden" in msg for msg in problems)


def test_golden_point_refused_before_compare_is_wrong(monkeypatch):
    wl = workloads.build("regime-grid", 1, run.ROOT)
    wl.prepare()

    def refuse(*args, **kwargs):
        raise gp.NumericError("refused for the test")

    monkeypatch.setattr(gp, "exact_posterior", refuse)
    golden, plain = wl.ops[-1], wl.ops[0]
    tally = run.Counter()
    for p in (golden, plain):
        out = run.attempt(wl.run, p)
        assert out.status == "refused" and out.value is None
        run.tally_outcome(wl, p, out, tally)
    assert tally["refused"] == 2 and tally["wrong"] == 1


def test_table_checks_flag_a_bad_normalizer():
    wl = workloads.build("regime-grid", 1, run.ROOT)
    wl.prepare()
    p = next(p for p in wl.ops if 1 <= p.x <= workloads.LERCH_MAX_X)
    out = wl.run(p)
    assert wl.check(p, out) == []
    table, mu, discs, reports = out.value
    bad = dataclasses.replace(table, log_normalizer=table.log_normalizer + 1e-7)
    problems = wl.check(p, workloads.Outcome("ok", (bad, mu, discs, reports)))
    assert any("Lerch" in msg for msg in problems)


def test_geometric_check_at_zero():
    p = workloads.point_at(0.105, 1.0513, 0)
    table = gp.exact_posterior(gp.derive_params(p.a, p.b, p.c), 0)
    mu, _ = gp.posterior_moments(table)
    assert workloads._check_table(table, mu, None) == []
    assert workloads._check_table(table, mu * (1 + 1e-7), None)


def test_cli_output_must_match_the_library():
    wl = workloads.build("cli", 2, run.ROOT)
    wl.prepare()
    for op in wl.ops[:3]:
        out = wl.run_inprocess(op)
        assert wl.check(op, out) == [], op.argv
    op = wl.ops[0]
    code, stdout, stderr = wl.run_inprocess(op).value
    lines = stdout.decode().splitlines()
    row = lines[3].split(",")
    row[1] = format(float(row[1]) * (1 + 1e-9), ".12g")  # nudge theorem1 tv
    lines[3] = ",".join(row)
    doctored = ("\n".join(lines) + "\n").encode()
    problems = wl.check(op, workloads.Outcome("ok", (code, doctored, stderr)))
    assert any("12 digits" in msg for msg in problems)
    assert any("differs" in msg for msg in problems)


def test_match_compares_at_twelve_digits():
    assert workloads._match(math.pi, format(math.pi, ".12g"))
    assert not workloads._match(math.pi, "3.14159265358")
    assert workloads._match({"a": [1, True, None]}, {"a": ["1", "true", ""], "b": 0})
    assert not workloads._match([1.0], [1.0, 2.0])
