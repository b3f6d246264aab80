"""Byte-for-byte snapshots of the CLI's stdout and exit status.

Every subcommand runs in-process through ``cli.main`` in both formats, and
its stdout is compared with a fixture under ``tests/fixtures/cli/``.  A
moved snapshot means the printed output changed: fix the code.  Only a
deliberate change of the output format rewrites the fixtures, with

    PYTHONPATH=src python3 tests/test_cli_snapshots.py
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

import gpgamma.cli as cli

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
