import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli_snapshots import CASES, FIXTURES

FIG_A = ["-a", "1.5", "-b", "0.1", "-c", "-0.05"]


# A child with PYTHONUNBUFFERED set writes stdout unbuffered, so output left
# in a buffer when the process ends, or a closed pipe met only on the final
# flush, could not show.
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "gpgamma", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def data_lines(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if not line.startswith("#")]


class TestPosteriorCommand:
    def test_csv_output(self):
        cp = run_cli("posterior", *FIG_A, "-x", "10")
        assert cp.returncode == 0, cp.stderr
        lines = cp.stdout.splitlines()
        assert lines[0] == "# schema_version=1"
        rows = data_lines(cp.stdout)
        assert rows[0] == "k,prob,log_weight"
        assert rows[1].startswith("10,")
        assert "tail_bound=" in lines[-1] and "mu_post=" in lines[-1]

    def test_json_output(self):
        cp = run_cli("posterior", *FIG_A, "-x", "10", "--format", "json")
        assert cp.returncode == 0, cp.stderr
        doc = json.loads(cp.stdout)
        assert doc["schema_version"] == "1"
        assert doc["params"]["a"] == 1.5
        assert doc["rows"][0]["k"] == 10
        assert doc["tail_bound"] <= 1e-10
        assert doc["mu_post"] == pytest.approx(109.048, abs=1e-3)

    def test_deterministic(self):
        first = run_cli("posterior", *FIG_A, "-x", "10", "--format", "json")
        second = run_cli("posterior", *FIG_A, "-x", "10", "--format", "json")
        assert first.stdout == second.stdout
        third = run_cli("posterior", *FIG_A, "-x", "10")
        fourth = run_cli("posterior", *FIG_A, "-x", "10")
        assert third.stdout == fourth.stdout

    def test_invalid_b_exits_one(self):
        cp = run_cli("posterior", "-a", "1.5", "-b", "1.5", "-c", "0", "-x", "1")
        assert cp.returncode == 1
        assert "0, 1" in cp.stderr or "(0, 1)" in cp.stderr

    def test_malformed_flags_exit_two(self):
        assert run_cli("posterior", "-a", "1.5", "-b", "0.1", "-x", "1").returncode == 2
        assert run_cli("posterior", *FIG_A, "-x", "oops").returncode == 2


class TestApproxCommand:
    def test_theorem1_parameters(self):
        cp = run_cli("approx", *FIG_A, "-x", "10", "--kind", "theorem1", "--format", "json")
        assert cp.returncode == 0, cp.stderr
        doc = json.loads(cp.stdout)
        assert doc["gamma"]["shape"] == 11.0
        assert doc["gamma"]["scale"] == pytest.approx(9.5122942, abs=1e-6)
        assert doc["rows"][0]["k"] == 10

    def test_moment_matched_round_trip(self):
        cp = run_cli("approx", *FIG_A, "-x", "10", "--kind", "moment-matched", "--format", "json")
        assert cp.returncode == 0, cp.stderr
        doc = json.loads(cp.stdout)
        post = json.loads(
            run_cli("posterior", *FIG_A, "-x", "10", "--format", "json").stdout
        )
        assert doc["gamma"]["mean"] == pytest.approx(post["mu_post"], rel=1e-11)
        assert doc["gamma"]["variance"] == pytest.approx(post["var_post"], rel=1e-11)

    def test_unknown_kind_exits_two(self):
        cp = run_cli("approx", *FIG_A, "-x", "10", "--kind", "bogus")
        assert cp.returncode == 2


class TestCompareCommand:
    def test_csv_sections(self):
        cp = run_cli("compare", *FIG_A, "-x", "10")
        assert cp.returncode == 0, cp.stderr
        rows = data_lines(cp.stdout)
        assert rows[0].startswith("kind,tv,kl,sup_abs")
        assert rows[1].startswith("theorem1,")
        assert rows[2].startswith("moment_matched,")
        assert rows[3] == "k,exact,theorem1,moment_matched"
        assert rows[4].startswith("10,")
        assert "# overlay" in cp.stdout.splitlines()

    def test_csv_json_numeric_equivalence(self):
        csv_run = run_cli("compare", *FIG_A, "-x", "10")
        json_run = run_cli("compare", *FIG_A, "-x", "10", "--format", "json")
        doc = json.loads(json_run.stdout)
        rows = data_lines(csv_run.stdout)
        for row, metrics in zip(rows[1:3], doc["metrics"]):
            fields = row.split(",")
            assert fields[0] == metrics["kind"]
            assert float(fields[1]) == pytest.approx(metrics["tv"], rel=1e-11)
            assert float(fields[2]) == pytest.approx(metrics["kl"], rel=1e-11)
        overlay_row = rows[4].split(",")
        assert float(overlay_row[1]) == pytest.approx(doc["overlay"][0]["exact"], rel=1e-11)

    def test_deterministic(self):
        runs = [run_cli("compare", *FIG_A, "-x", "5").stdout for _ in range(2)]
        assert runs[0] == runs[1]

    def test_large_x_is_answered(self):
        # rate 0.105: the Lerch series of the ratio used to overflow here
        cp = run_cli("compare", *FIG_A, "-x", "1000")
        assert cp.returncode == 0, cp.stderr
        assert data_lines(cp.stdout)[1].startswith("theorem1,")


class TestVerifyCommand:
    def test_all_suites_pass(self):
        cp = run_cli("verify", "all")
        assert cp.returncode == 0, cp.stdout + cp.stderr
        rows = data_lines(cp.stdout)
        assert rows[0] == "check,params,relative_error,pass"
        assert len(rows) > 100
        assert all(row.endswith(",true") for row in rows[1:])

    @pytest.mark.parametrize("suite", ["lerch", "bernoulli", "powersum"])
    def test_individual_suites(self, suite):
        cp = run_cli("verify", suite, "--format", "json")
        assert cp.returncode == 0, cp.stderr
        doc = json.loads(cp.stdout)
        assert doc["suite"] == suite
        assert all(check["pass"] for check in doc["checks"])

    def test_missing_suite_exits_two(self):
        assert run_cli("verify").returncode == 2
        assert run_cli("verify", "nonsense").returncode == 2


class TestSweepCommand:
    def test_grid_file(self, tmp_path: Path):
        grid = tmp_path / "grid.csv"
        grid.write_text(
            "# reference sets at x = 10\n"
            "1.5, 0.1, -0.05, 10\n"
            "\n"
            "1.5, 0.5, -0.05, 10\n"
        )
        cp = run_cli("sweep", str(grid))
        assert cp.returncode == 0, cp.stderr
        rows = data_lines(cp.stdout)
        assert rows[0].startswith("index,a,b,c,x,kind,tv")
        assert len(rows) == 5  # header + 2 points x 2 kinds
        assert rows[1].split(",")[:6] == ["0", "1.5", "0.1", "-0.05", "10", "theorem1"]

    def test_bad_point_recorded(self, tmp_path: Path):
        grid = tmp_path / "grid.csv"
        grid.write_text("1.5,0.1,-0.05,5\n1.5,1.5,0,1\n")
        cp = run_cli("sweep", str(grid), "--format", "json")
        assert cp.returncode == 0, cp.stderr
        doc = json.loads(cp.stdout)
        assert len(doc["results"]) == 3
        assert doc["results"][2]["error"] is not None

    def test_empty_file_emits_header_only(self, tmp_path: Path):
        grid = tmp_path / "grid.csv"
        grid.write_text("# nothing here\n")
        cp = run_cli("sweep", str(grid))
        assert cp.returncode == 0
        assert data_lines(cp.stdout) == [
            "index,a,b,c,x,kind,tv,kl,sup_abs,mean_exact,var_exact,mean_approx,"
            "var_approx,dropped_term_ratio,inequality_holds,raw_total,error"
        ]

    def test_malformed_line_names_lineno(self, tmp_path: Path):
        grid = tmp_path / "grid.csv"
        grid.write_text("1.5,0.1,-0.05,5\n1.5,0.1\n")
        cp = run_cli("sweep", str(grid))
        assert cp.returncode == 2
        assert ":2:" in cp.stderr

    def test_missing_file_exits_two(self, tmp_path: Path):
        cp = run_cli("sweep", str(tmp_path / "missing.csv"))
        assert cp.returncode == 2


class TestProcess:
    def test_closed_pipe_exits_141_without_traceback(self):
        # ~0.5 MB of rows, far more than a pipe buffers
        cmd = [sys.executable, "-m", "gpgamma", "posterior", *FIG_A, "-x", "1000"]
        with subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=BUFFERED_ENV
        ) as proc:
            assert proc.stdout.readline() == b"# schema_version=1\n"
            proc.stdout.close()
            status = proc.wait(timeout=120)
            stderr = proc.stderr.read()
        assert stderr == b""
        assert status == 141

    def test_closed_pipe_exits_141_without_traceback_json(self):
        # ~0.4 MB of JSON rows, written a chunk of rows at a time
        argv = ["posterior", *FIG_A, "-x", "1000", "--format", "json"]
        cmd = [sys.executable, "-m", "gpgamma", *argv]
        with subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=BUFFERED_ENV
        ) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            status = proc.wait(timeout=120)
            stderr = proc.stderr.read()
        assert stderr == b""
        assert status == 141

    @pytest.mark.parametrize("name", ["verify_all.csv", "verify_all.json", "refusal_bad_b.csv"])
    def test_stdout_to_a_file_is_complete(self, name, tmp_path):
        # A regular file is block-buffered, so output still buffered when the
        # process ends would be missing.
        argv, status = CASES[name]
        out = tmp_path / name
        with out.open("wb") as f:
            cmd = [sys.executable, "-m", "gpgamma", *argv]
            cp = subprocess.run(cmd, stdout=f, stderr=subprocess.PIPE, text=True, env=BUFFERED_ENV)
        assert out.read_bytes() == (FIXTURES / name).read_bytes()
        assert cp.returncode == status
        errors = cp.stderr.splitlines()
        assert len(errors) == (status != 0)
        assert all(line.startswith("error: ") for line in errors)

    def test_importing_the_cli_loads_no_heavy_module(self):
        code = (
            "import sys, gpgamma.cli; "
            "print(sorted(m for m in "
            "('scipy', 'mpmath', 'numpy.polynomial', 'fractions', 'decimal') "
            "if m in sys.modules))"
        )
        cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == "[]\n"
