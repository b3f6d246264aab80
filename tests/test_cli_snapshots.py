"""Byte-for-byte snapshots of the CLI's stdout and exit status.

Every subcommand runs in-process through ``cli.main`` in both formats, and
its stdout is compared with a fixture under ``tests/fixtures/cli/``.  A
moved snapshot means the printed output changed: fix the code.  Only a
deliberate change of the output format (``sweep.json`` rendered from the
CSV table: each result object lists its keys in the CSV header's order, so
``error`` comes last, and the error row carries the 10 metric keys as null,
every old key keeping its value), an accuracy fix whose moved fields
are checked against an independent oracle (as the window masses are
below), a diagnostic moved within its stated accuracy and checked the
same way (``dropped_term_ratio``, now taken under the truncated table:
within the tail bound of mpmath's Lerch series, which also turned sweep
index 2 from two Lerch-overflow error rows into two reports), or a check
measured against a new reference and checked the same way (the
``lerch_denominator`` rows of ``verify all``, whose reference is now the
posterior engine's normalizer: within 1e-14 of the Lerch form's error
against mpmath), or a change of where the posterior table is truncated
whose moved fields are checked the same way (the two-sided cut: the
``tail_bound`` of ``posterior_x0``/``posterior_x3`` against the per-term
oracle, every field of the x = 100 sweep rows against mpmath), or a change
of quadrature rule whose moved fields are checked the same way (the
6-point rule and the log-density taken about the mode: sweep index 2's
moment-matched ``kl``, 8.00950713225e-06 -> 8.00950713239e-06, whose value
from mpmath window masses is 8.00950713233e-06; the 3- and 4-point rules:
the same field, 8.00950713239e-06 -> 8.00950713231e-06, in ``sweep.csv``
and ``sweep.json``; dropping the 4- and 6-point rules: the same field,
8.00950713231e-06 -> 8.00950713222e-06, where the window pmf came closer to
mpmath's but its renormalized sum moved one ulp, to 1 + 2.2e-16), or a
change of the posterior's normalization whose moved fields are checked the
same way (the table's probabilities, scaled by the mode's weight and
divided by their own sum, sum to 1 within an ulp where they were 5.7e-13
off: sweep index 2's moment-matched ``tv`` 0.0012104968834 ->
0.00121049688327, ``kl`` 8.00950713222e-06 -> 8.00950707813e-06 and
``sup_abs`` 1.01561180233e-05 -> 1.01561180217e-05, in ``sweep.csv`` and
``sweep.json``, against 0.00121049688327215, 8.00950707808707e-06 and
1.01561180215335e-05 from the mpmath posterior and mpmath window masses at
40 digits; ``test_large_x_sweep_rows_match_the_oracles`` checks them), or a
removed check suite (``verify all`` lost its 9 Bernoulli-expansion and 84
power-sum rows with the code that computed them, which the tests now check
in mpmath: ``verify_all.csv`` is the old file's first 33 lines and the
``checks`` of ``verify_all.json`` the old list's first 30 entries), rewrites
the fixtures,
with

    PYTHONPATH=src python3 tests/test_cli_snapshots.py
"""

import contextlib
import io
import os
from pathlib import Path

import numpy as np
import pytest

import gpgamma.cli as cli
from gpgamma import KINDS, build_gamma, denominator_lerch, derive_params, exact_posterior

from oracles import (
    brute_posterior_weights,
    mpmath_denominator,
    mpmath_dropped_term_ratio,
    mpmath_posterior,
    mpmath_window_mass,
    streaming_posterior,
)

FIXTURES = Path(__file__).parent / "fixtures" / "cli"
REF = ["-a", "1.5", "-b", "0.5", "-c", "-0.05"]  # the b=0.5 reference set


def _cases() -> dict[str, tuple[list[str], int]]:
    """Fixture name -> (argv, exit status)."""
    cases = {}
    for fmt in ("csv", "json"):
        tail = [] if fmt == "csv" else ["--format", "json"]
        for x in ("0", "3"):
            model = [*REF, "-x", x]
            cases[f"posterior_x{x}.{fmt}"] = (["posterior", *model, *tail], 0)
            for kind in ("theorem1", "moment-matched"):
                argv = ["approx", *model, "--kind", kind, *tail]
                cases[f"approx_{kind}_x{x}.{fmt}"] = (argv, 0)
            cases[f"compare_x{x}.{fmt}"] = (["compare", *model, *tail], 0)
        cases[f"verify_all.{fmt}"] = (["verify", "all", *tail], 0)
        # relative path: the grid file name is echoed in the output
        cases[f"sweep.{fmt}"] = (["sweep", "grid.csv", *tail], 0)
    cases["refusal_bad_b.csv"] = (
        ["posterior", "-a", "1.5", "-b", "1.5", "-c", "0", "-x", "1"],
        1,
    )
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_status_match_snapshot(name, monkeypatch, capsys):
    argv, status = CASES[name]
    monkeypatch.chdir(FIXTURES)
    assert cli.main(argv) == status
    assert capsys.readouterr().out.encode() == (FIXTURES / name).read_bytes()


@pytest.mark.parametrize("x", ["0", "1"])
def test_compare_refuses_nonpositive_epsilon_at_any_x(x, capsys):
    assert cli.main(["compare", *REF, "-x", x, "--epsilon-ineq", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "epsilon must be positive" in captured.err


def _csv_rows(name: str, columns: str) -> list[list[str]]:
    """Fields of the rows under the column line ``columns`` in a CSV fixture."""
    lines = (FIXTURES / name).read_text().splitlines()
    start = lines.index(columns) + 1
    rows = []
    for line in lines[start:]:
        if line.startswith("#"):
            break
        rows.append(line.split(","))
    return rows


@pytest.mark.parametrize("x", [0, 3])
def test_window_masses_match_the_oracle(x):
    # Every window-mass field of the approx and compare fixtures at 12
    # significant digits: raw masses in approx, renormalized ones in the
    # compare overlay.
    table = exact_posterior(derive_params(1.5, 0.5, -0.05), x)
    overlay = _csv_rows(f"compare_x{x}.csv", "k,exact,theorem1,moment_matched")
    for column, kind in enumerate(KINDS, start=2):
        g = build_gamma(kind, table)
        masses = [mpmath_window_mass(g.shape, g.scale, int(k)) for k in table.support]
        approx = _csv_rows(f"approx_{kind.replace('_', '-')}_x{x}.csv", "k,prob")
        assert [row[1] for row in approx] == [format(m, ".12g") for m in masses]
        total = sum(masses)
        assert [row[column] for row in overlay] == [
            format(m / total, ".12g") for m in masses
        ]


def test_dropped_term_ratios_match_the_oracle():
    # The sweep fixture's points (x = 0, 3 and 100; compare_x3 repeats
    # x = 3): each ratio field lies within (1 - ratio) times its table's
    # tail bound, plus the 12-digit rounding, of mpmath's full Lerch series.
    # r = gE/(1 + gE) moves by (1 - r) dE/E when the dropped tail moves
    # E = E[1/k] by dE/E, at most the dropped relative mass.
    lines = (FIXTURES / "sweep.csv").read_text().splitlines()
    columns = lines[2].split(",")
    checked = 0
    for fields in _csv_rows("sweep.csv", lines[2]):
        row = dict(zip(columns, fields))
        if row["error"]:
            continue
        params = derive_params(float(row["a"]), float(row["b"]), float(row["c"]))
        x = int(row["x"])
        got = float(row["dropped_term_ratio"])
        if x == 0:
            assert got == 0.0
        else:
            want = mpmath_dropped_term_ratio(params, x)
            bound = (1.0 - want) * exact_posterior(params, x).tail_bound + 1e-12
            assert got == pytest.approx(want, rel=bound, abs=0.0), row
        checked += 1
    assert checked == 6


@pytest.mark.parametrize("x", [0, 3])
def test_tail_bounds_match_the_oracle(x):
    # The posterior fixture's tail_bound is the per-term loop's at 12
    # digits, and bounds the mass the table drops, summed to k = 10^5.
    params = derive_params(1.5, 0.5, -0.05)
    footer = (FIXTURES / f"posterior_x{x}.csv").read_text().splitlines()[-1]
    fields = dict(item.split("=") for item in footer.lstrip("# ").split())
    oracle = streaming_posterior(params, x, 1e-10)
    assert fields["tail_bound"] == format(oracle.tail_bound, ".12g")
    _, weights = brute_posterior_weights(params, x)
    dropped = weights[oracle.k_max - x + 1 :].sum() + weights[: oracle.k_min - x].sum()
    assert dropped <= float(fields["tail_bound"]) * weights.sum()


def test_large_x_sweep_rows_match_the_oracles():
    # Sweep index 2 (x = 100, its table cut on both sides): every metric of
    # both rows from the mpmath posterior on the table's window and mpmath
    # window masses.  Fields that difference two nearly equal pmfs get a
    # 1e-12 absolute floor: the float pmfs agree to ~1e-13 per entry.
    lines = (FIXTURES / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(lines[2].split(","), f)) for f in _csv_rows("sweep.csv", lines[2])]
    rows = {row["kind"]: row for row in rows if row["index"] == "2"}
    params = derive_params(1.5, 0.1, -0.05)
    table = exact_posterior(params, 100)
    ks = table.support
    p = mpmath_posterior(params, 100, table.k_min, table.k_max)
    mu = float((ks * p).sum())
    var = float((p * (ks - mu) ** 2).sum())
    gammas = {"theorem1": (101.0, 1.0 / params.rate), "moment_matched": (mu * mu / var, var / mu)}
    for kind, (shape, scale) in gammas.items():
        masses = np.array([mpmath_window_mass(shape, scale, int(k)) for k in ks])
        q = masses / masses.sum()
        mu_q = float((ks * q).sum())
        want = {
            "tv": 0.5 * np.abs(p - q).sum(),
            "kl": float((p * np.log(p / q)).sum()),
            "sup_abs": np.abs(p - q).max(),
            "mean_exact": mu,
            "var_exact": var,
            "mean_approx": mu_q,
            "var_approx": float((q * (ks - mu_q) ** 2).sum()),
            "raw_total": masses.sum(),
        }
        for field, value in want.items():
            assert float(rows[kind][field]) == pytest.approx(value, rel=1e-11, abs=1e-12), (
                kind,
                field,
            )


def test_lerch_denominator_errors_match_the_oracle():
    # Each lerch_denominator row of verify_all.csv (the CSV and JSON fields
    # are the same 12-digit numbers) is the Lerch form's relative error
    # against the engine's normalizer; it must equal that error against
    # mpmath's full Lerch series within 1e-14 absolute.
    checked = 0
    for check, detail, relative_error, _ in _csv_rows(
        "verify_all.csv", "check,params,relative_error,pass"
    ):
        if check != "lerch_denominator":
            continue
        p = dict(item.split("=") for item in detail.split())
        params = derive_params(float(p["a"]), float(p["b"]), float(p["c"]))
        x = int(p["x"])
        want = mpmath_denominator(params, x)
        got = denominator_lerch(params, x)
        assert float(relative_error) == pytest.approx(
            abs(got - want) / want, rel=0.0, abs=1e-14
        ), detail
        checked += 1
    assert checked == 30


def _write_fixtures() -> None:
    os.chdir(FIXTURES)
    for name, (argv, status) in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            got = cli.main(argv)
        if got != status:
            raise SystemExit(f"{name}: exit {got}, expected {status}")
        (FIXTURES / name).write_bytes(out.getvalue().encode())


if __name__ == "__main__":
    _write_fixtures()
