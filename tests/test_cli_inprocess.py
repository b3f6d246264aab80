"""In-process CLI checks for paths subprocess tests cannot reach cheaply."""

import errno
import io

import pytest

import gpgamma.cli as cli
from gpgamma import DomainError, derive_params, exact_posterior, theorem1_gamma

from test_cli_snapshots import CASES, FIXTURES


def test_verify_failure_exits_one_after_emitting(monkeypatch, capsys):
    rows = [
        ("lerch_denominator", "a=1 b=0.2 c=0 x=1", 3e-12, True),
        ("lerch_denominator", "a=1 b=0.2 c=0 x=2", 0.5, False),
    ]
    monkeypatch.setattr(cli, "_verify_lerch_rows", lambda: rows)
    status = cli.main(["verify", "lerch"])
    out = capsys.readouterr().out
    assert status == 1
    assert out.count("lerch_denominator") == 2  # every row emitted before exiting
    assert ",false" in out


def test_verify_failure_json(monkeypatch, capsys):
    monkeypatch.setattr(
        cli,
        "_verify_lerch_rows",
        lambda: [("lerch_denominator", "a=1 b=0.2 c=0 x=1", 1.0, False)],
    )
    status = cli.main(["verify", "lerch", "--format", "json"])
    assert status == 1
    assert '"pass": false' in capsys.readouterr().out


def test_domain_error_message_goes_to_stderr(capsys):
    status = cli.main(["posterior", "-a", "0", "-b", "0.5", "-c", "2.5", "-x", "1"])
    captured = capsys.readouterr()
    assert status == 1
    assert "lambda2" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("entry", [exact_posterior, theorem1_gamma, "cli"])
def test_negative_x_is_refused(entry, capsys):
    # The library entries that take x raise; the CLI reports it and exits 1.
    if entry == "cli":
        assert cli.main(["posterior", "-a", "1.5", "-b", "0.1", "-c", "-0.05", "-x", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: x must be a non-negative integer")
    else:
        with pytest.raises(DomainError, match="non-negative"):
            entry(derive_params(1.5, 0.1, -0.05), -1)


def test_moment_precision_failure_exits_one(capsys):
    # a loose tail is fine for the table but refuses moments
    status = cli.main(
        ["posterior", "-a", "1.5", "-b", "0.1", "-c", "-0.05", "-x", "2", "--eps-tail", "1e-4"]
    )
    captured = capsys.readouterr()
    assert status == 1
    assert "eps_tail" in captured.err


@pytest.mark.parametrize("eps", ["0", "-0.5", "0.5"])
def test_bad_eps_tail_exits_one(eps, capsys):
    status = cli.main(
        ["posterior", "-a", "1.5", "-b", "0.1", "-c", "-0.05", "-x", "1", "--eps-tail", eps]
    )
    assert status == 1
    assert "eps_tail" in capsys.readouterr().err


def test_eps_tail_below_the_float_floor_exits_one(capsys):
    # x = 3 of the b=0.5 reference set: refused below eps_tail 5.44e-308,
    # where its side share meets the smallest normal float
    argv = ["posterior", "-a", "1.5", "-b", "0.5", "-c", "-0.05", "-x", "3", "--eps-tail"]
    assert cli.main([*argv, "5e-308"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: eps_tail=5e-308 ")
    assert cli.main([*argv, "6e-308"]) == 0


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--epsilon-ineq", "0"),
        ("--epsilon-ineq", "nan"),
        ("--eps-tail", "0"),
        ("--eps-tail", "0.5"),
        ("--eps-tail", "1e-4"),
    ],
)
def test_sweep_bad_tolerance_exits_one_with_empty_stdout(flag, value, tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("1.5,0.1,-0.05,5\n1.5,0.5,-0.05,5\n")
    status = cli.main(["sweep", str(grid), flag, value])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert "eps" in captured.err


TOLERANCE_HELP = {
    "--eps-tail": "--eps-tail EPS_TAIL relative truncation tail for the exact posterior "
    "(default 1e-10)",
    "--epsilon-ineq": "--epsilon-ineq EPSILON_INEQ epsilon for the validity inequality "
    "(default 0.01)",
}


@pytest.mark.parametrize(
    "command,flag",
    [
        ("posterior", "--eps-tail"),
        ("compare", "--epsilon-ineq"),
        ("sweep", "--eps-tail"),
        ("sweep", "--epsilon-ineq"),
    ],
)
def test_help_states_each_tolerance_flag_and_its_default(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert TOLERANCE_HELP[flag] in " ".join(capsys.readouterr().out.split())


USAGE_LINES = {
    "posterior": "usage: gpgamma posterior [-h] -a A -b B -c C -x X [--eps-tail EPS_TAIL] "
    "[--format {csv,json}]",
    "approx": "usage: gpgamma approx [-h] -a A -b B -c C -x X [--eps-tail EPS_TAIL] "
    "--kind {theorem1,moment-matched} [--format {csv,json}]",
    "compare": "usage: gpgamma compare [-h] -a A -b B -c C -x X [--eps-tail EPS_TAIL] "
    "[--epsilon-ineq EPSILON_INEQ] [--format {csv,json}]",
    "verify": "usage: gpgamma verify [-h] [--format {csv,json}] {lerch,all}",
    "sweep": "usage: gpgamma sweep [-h] [--eps-tail EPS_TAIL] [--epsilon-ineq EPSILON_INEQ] "
    "[--format {csv,json}] grid_file",
}


@pytest.mark.parametrize("command", list(USAGE_LINES))
def test_usage_line_lists_each_argument(command, monkeypatch, capsys):
    # wide enough that every usage line fits on one line
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == USAGE_LINES[command]


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away."""

    def write(self, s):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def _run(monkeypatch, argv, stdout, on_exit):
    """``cli.run`` on ``argv``, with ``os._exit`` replaced by ``on_exit``."""
    stderr = io.StringIO()
    monkeypatch.setattr(cli.os, "_exit", on_exit)
    monkeypatch.setattr(cli.sys, "argv", ["gpgamma", *argv])
    monkeypatch.setattr(cli.sys, "stdout", stdout)
    monkeypatch.setattr(cli.sys, "stderr", stderr)
    cli.run()
    return stderr.getvalue()


def test_run_flushes_stdout_before_exiting(monkeypatch):
    raw = io.BytesIO()
    # a buffer larger than the output: nothing reaches raw until a flush
    stdout = io.TextIOWrapper(io.BufferedWriter(raw, buffer_size=1 << 20), encoding="utf-8")
    exits = []
    argv, _ = CASES["posterior_x3.csv"]
    stderr = _run(monkeypatch, argv, stdout, lambda status: exits.append((status, raw.getvalue())))
    assert exits == [(0, (FIXTURES / "posterior_x3.csv").read_bytes())]
    assert stderr == ""


def test_run_exits_141_on_a_closed_pipe(monkeypatch):
    exits = []
    argv, _ = CASES["posterior_x3.csv"]
    assert _run(monkeypatch, argv, _ClosedPipe(), exits.append) == ""
    assert exits == [141]


def test_run_flushes_help_and_exits_zero(monkeypatch):
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(io.BufferedWriter(raw, buffer_size=1 << 20), encoding="utf-8")
    exits = []

    def on_exit(status):
        exits.append((status, raw.getvalue()))

    assert _run(monkeypatch, ["posterior", "--help"], stdout, on_exit) == ""
    [(status, written)] = exits
    assert status == 0
    assert written.startswith(b"usage: gpgamma posterior")
    assert b"--eps-tail" in written


def test_run_exits_two_on_a_usage_error(monkeypatch):
    stdout = io.StringIO()
    exits = []
    argv = ["posterior", "-a", "1.5", "-b", "0.1", "-c", "-0.05", "-x", "oops"]
    stderr = _run(monkeypatch, argv, stdout, exits.append)
    assert exits == [2]
    assert stderr.startswith("usage: gpgamma posterior")
    assert "invalid int value: 'oops'" in stderr
    assert stdout.getvalue() == ""


class _ClosingPipe(io.RawIOBase):
    """A pipe whose reader goes away while ``broken`` holds."""

    broken = True

    def writable(self):
        return True

    def write(self, b):
        if self.broken:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return len(b)


def test_run_exits_141_when_the_help_flush_meets_a_closed_pipe(monkeypatch):
    # argparse drops write errors, but the help text waits in the buffer
    # until run flushes it
    raw = _ClosingPipe()
    stdout = io.TextIOWrapper(io.BufferedWriter(raw, buffer_size=1 << 20), encoding="utf-8")
    exits = []
    assert _run(monkeypatch, ["posterior", "--help"], stdout, exits.append) == ""
    assert exits == [141]
    raw.broken = False  # lets the wrapper close quietly
