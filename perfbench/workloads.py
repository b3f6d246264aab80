"""Seeded workload inputs, the operations the benchmark times, and the
checks it applies to every output.

Each workload is a list of independent ops plus three methods:
``prepare`` computes reference values before any timing starts, ``run``
performs one op through the public ``gpgamma`` API (or the CLI), and
``check`` returns the problems found in that op's output.

Library calls go through the module attribute at call time
(``gp.exact_posterior``), never through names bound at import, so the
traced run's rebinding of those attributes reaches them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import gpgamma as gp
import gpgamma.cli as gp_cli
from gpgamma.errors import DomainError, NumericError, PrecisionError

# Typed errors through which the library refuses an input it cannot
# evaluate to its stated accuracy.  An op that ends in one of these is
# "refused": counted against ok_frac, but not a broken program.
REFUSALS = (DomainError, PrecisionError, NumericError)

EPS_TAIL = 1e-10
A = 1.5
RATES = (0.01, 0.105, 0.71)
GRID_X = (0, 1, 10, 100, 1000)
# Centre of each rate's sqrt(m) band.  Off 1 so that w != 1 and the Lerch
# diagnostic in ``compare`` is exercised at every rate.
SQRT_M = {0.01: 0.998, 0.105: 1.0513, 0.71: 1.419}
SQRT_M_JITTER = 1e-3  # relative half-width of the band

GOLDEN_FILE = Path("tests") / "fixtures" / "golden_metrics.txt"
GOLDEN_TOL = 1e-6  # absolute, the tolerance of the golden tests
SUM_TOL = 1e-9
GEOMETRIC_TOL = 1e-8
LERCH_MAX_X = 15
LERCH_TOL = 1e-8  # on log-normalizers, i.e. relative on the normalizer

REPORT_FIELDS = (
    "kind",
    "tv",
    "kl",
    "sup_abs",
    "mean_exact",
    "var_exact",
    "mean_approx",
    "var_approx",
    "dropped_term_ratio",
    "inequality_holds",
    "raw_total",
)


@dataclass(frozen=True)
class Point:
    """Model constants (a, b, c) and an observed count x."""

    a: float
    b: float
    c: float
    x: int

    @property
    def argv(self) -> list[str]:
        return ["-a", repr(self.a), "-b", repr(self.b), "-c", repr(self.c), "-x", str(self.x)]


@dataclass
class Outcome:
    """Result of one op: status is "ok", "refused" or "failed"."""

    status: str
    value: Any = None
    error: str = ""


def point_at(rate: float, sqrt_m: float, x: int) -> Point:
    """The point with b*sqrt(m) = rate, m = sqrt_m**2 and a fixed a."""
    b = rate / sqrt_m
    return Point(A, b, math.log(sqrt_m * sqrt_m) - A * b, x)


def jittered(rng: random.Random, rate: float, x: int) -> Point:
    sqrt_m = SQRT_M[rate] * (1.0 + rng.uniform(-SQRT_M_JITTER, SQRT_M_JITTER))
    return point_at(rate, sqrt_m, x)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def read_golden(root: Path) -> dict[tuple[float, float, float, int], dict]:
    """Golden distance metrics keyed by point: {(kind, metric): value}."""
    golden: dict[tuple[float, float, float, int], dict] = {}
    with open(root / GOLDEN_FILE, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            a, b, c, x, kind, metric, value = line.split(",")
            key = (float(a), float(b), float(c), int(x))
            golden.setdefault(key, {})[(kind, metric)] = float(value)
    return golden


def _check_table(table, mu: float, lerch_log_norm: float | None) -> list[str]:
    problems = []
    total = float(table.probs.sum())
    if abs(total - 1.0) > SUM_TOL:
        problems.append(f"posterior probs sum to {total!r}")
    if not table.tail_bound <= EPS_TAIL:
        problems.append(f"tail bound {table.tail_bound!r} above eps_tail")
    if table.x == 0:
        q = math.exp(-table.params.rate)
        geometric = q / (1.0 - q)
        if abs(mu - geometric) > GEOMETRIC_TOL * geometric:
            problems.append(f"x=0 mean {mu!r} != geometric {geometric!r}")
    if lerch_log_norm is not None and abs(table.log_normalizer - lerch_log_norm) > LERCH_TOL:
        problems.append(
            f"log normalizer {table.log_normalizer!r} != Lerch form {lerch_log_norm!r}"
        )
    return problems


def _lerch_log_normalizer(point: Point) -> float | None:
    if not 1 <= point.x <= LERCH_MAX_X:
        return None
    params = gp.derive_params(point.a, point.b, point.c)
    return math.log(gp.denominator_lerch(params, point.x))


class RegimeGrid:
    """The ROADMAP regime grid plus the golden points, full pipeline each."""

    name = "regime-grid"

    def __init__(self, seed: int, root: Path):
        rng = _rng(self.name, seed)
        self.golden = read_golden(root)
        self.ops = [jittered(rng, rate, x) for rate in RATES for x in GRID_X]
        self.ops += [Point(*key) for key in self.golden]
        self.refs: dict[Point, float | None] = {}

    def prepare(self) -> None:
        self.refs = {p: _lerch_log_normalizer(p) for p in self.ops}

    def run(self, p: Point) -> Outcome:
        params = gp.derive_params(p.a, p.b, p.c)
        table = gp.exact_posterior(params, p.x, EPS_TAIL)
        mu, var = gp.posterior_moments(table)
        gammas = (gp.theorem1_gamma(params, p.x), gp.moment_matched_gamma(mu, var))
        discs = [
            gp.discretize_gamma(g, table.k_min, table.k_max, renormalize=True)
            for g in gammas
        ]
        reports: list[Any] = []
        for disc in discs:
            try:
                reports.append(gp.compare(table, disc))
            except REFUSALS as exc:
                reports.append(exc)
        refused = [r for r in reports if isinstance(r, Exception)]
        status = "refused" if refused else "ok"
        error = f"{type(refused[0]).__name__}: {refused[0]}" if refused else ""
        return Outcome(status, (table, mu, discs, reports), error)

    def check(self, p: Point, out: Outcome) -> list[str]:
        golden = self.golden.get((p.a, p.b, p.c, p.x), {})
        if out.value is None:  # refused before compare
            return [f"golden point refused: {out.error}"] if golden else []
        table, mu, discs, reports = out.value
        problems = _check_table(table, mu, self.refs[p])
        for disc, rep in zip(discs, reports):
            total = float(disc.probs.sum())
            if abs(total - 1.0) > SUM_TOL:
                problems.append(f"{disc.kind} window probs sum to {total!r}")
            if isinstance(rep, Exception):
                if golden:
                    problems.append(f"golden point refused: {rep}")
                continue
            if not (0.0 <= rep.tv <= 1.0 and 0.0 <= rep.sup_abs <= 1.0 and rep.kl >= 0.0):
                problems.append(f"{rep.kind} distances out of range: {rep.tv}, {rep.kl}")
            for metric in ("tv", "kl", "sup_abs"):
                want = golden.get((rep.kind, metric))
                got = getattr(rep, metric)
                if want is not None and not abs(got - want) <= GOLDEN_TOL:
                    problems.append(f"golden {rep.kind} {metric}: {got!r} != {want!r}")
        return problems


# --- CLI -----------------------------------------------------------------

# (rate, x) of the sweep grid file; m is jittered by the seed.  x=100 at
# rate 0.105 records a refusal inside the sweep's result stream.
SWEEP_POINTS = (
    (0.105, 1), (0.105, 5), (0.105, 20), (0.105, 100),
    (0.71, 1), (0.71, 10), (0.71, 100), (0.01, 10),
)


@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    command: str
    fmt: str
    point: Point | None = None
    kind: str | None = None


class CliMix:
    """About a dozen ``python -m gpgamma`` invocations, one at a time."""

    name = "cli"

    def __init__(self, seed: int, root: Path):
        rng = _rng(self.name, seed)
        self.root = root
        self.grid = [jittered(rng, rate, x) for rate, x in SWEEP_POINTS]
        self.grid_file = Path("perfbench") / "out" / f"sweep-grid-{seed}.csv"
        p10 = jittered(rng, 0.105, 10)

        def op(command: str, point: Point | None, fmt: str = "csv", kind: str | None = None):
            argv = [command, *(point.argv if point else [])]
            if kind:
                argv += ["--kind", kind]
            if fmt == "json":
                argv += ["--format", "json"]
            return CliOp(tuple(argv), command, fmt, point, kind)

        self.ops = [
            op("compare", p10),
            op("compare", p10, "json"),
            op("compare", jittered(rng, 0.71, 100)),
            op("compare", jittered(rng, 0.105, 1000)),
            op("posterior", jittered(rng, 0.105, 1000), "json"),
            op("posterior", jittered(rng, 0.01, 100)),
            op("approx", jittered(rng, 0.105, 1000), kind="theorem1"),
            op("approx", jittered(rng, 0.71, 100), "json", kind="moment-matched"),
            CliOp(("verify", "all"), "verify", "csv"),
            CliOp(("sweep", str(self.grid_file)), "sweep", "csv"),
            CliOp(("sweep", str(self.grid_file), "--format", "json"), "sweep", "json"),
            op("compare", p10),  # repeat: stdout must be byte-identical
        ]
        self.expected: dict[tuple[str, ...], Any] = {}
        self.first_stdout: dict[tuple[str, ...], bytes] = {}
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def prepare(self) -> None:
        path = self.root / self.grid_file
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(f"{p.a!r},{p.b!r},{p.c!r},{p.x}\n" for p in self.grid))
        for op in self.ops:
            try:
                self.expected[op.argv] = _expected(op, self.grid)
            except REFUSALS as exc:
                self.expected[op.argv] = exc

    def run(self, op: CliOp) -> Outcome:
        cp = subprocess.run(
            [sys.executable, "-m", "gpgamma", *op.argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
        )
        return _cli_outcome(cp.returncode, cp.stdout, cp.stderr)

    def run_inprocess(self, op: CliOp) -> Outcome:
        """The same argv through ``gpgamma.cli.main`` with output captured."""
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.root)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = gp_cli.main(list(op.argv))
        finally:
            os.chdir(cwd)
        return _cli_outcome(code, out.getvalue().encode(), err.getvalue().encode())

    def check(self, op: CliOp, out: Outcome) -> list[str]:
        code, stdout, stderr = out.value
        first = self.first_stdout.setdefault(op.argv, stdout)
        problems = [] if first == stdout else ["stdout differs from an earlier identical invocation"]
        expected = self.expected[op.argv]
        if isinstance(expected, Exception):
            if out.status != "refused":
                problems.append(f"exit {code}, but the library refuses: {expected}")
            return problems
        if out.status != "ok":
            return problems + [f"exit {code}: {stderr.decode(errors='replace').strip()}"]
        try:
            got = _parse(op, stdout.decode())
        except (ValueError, KeyError, IndexError) as exc:
            return problems + [f"unparsable stdout: {exc!r}"]
        if op.command == "verify":
            if not all(_match(True, row["pass"]) for row in got["checks"]):
                problems.append("a verify row did not pass")
            got = {"lerch": [r["relative_error"] for r in got["checks"][: len(expected["lerch"])]]}
        if not _match(expected, got):
            problems.append("stdout does not match the in-process result at 12 digits")
        return problems


def _cli_outcome(code: int, stdout: bytes, stderr: bytes) -> Outcome:
    # Exit 1 with an "error:" line is the CLI's documented refusal.
    if code == 0:
        return Outcome("ok", (code, stdout, stderr))
    if code == 1 and stderr.startswith(b"error:"):
        return Outcome("refused", (code, stdout, stderr), stderr.decode(errors="replace").strip())
    return Outcome("failed", (code, stdout, stderr), f"exit {code}")


def _report_dict(rep) -> dict[str, Any]:
    return {f: getattr(rep, f) for f in REPORT_FIELDS}


def _expected(op: CliOp, grid: list[Point]) -> dict[str, Any]:
    """What the CLI should print for ``op``, from direct library calls."""
    if op.command == "verify":
        return {
            "lerch": [
                gp.verify_lerch_denominator(gp.derive_params(a, b, c), x)
                for a, b, c in gp_cli.REFERENCE_SETS
                for x in range(1, 16)
            ]
        }
    if op.command == "sweep":
        grid_rows = [(p.a, p.b, p.c, p.x) for p in grid]
        results = []
        for res in gp.sweep(grid_rows):
            row = {k: getattr(res, k) for k in ("index", "a", "b", "c", "x", "kind", "error")}
            if res.report is not None:
                row.update(_report_dict(res.report))
            results.append(row)
        return {"results": results}
    p = op.point
    params = gp.derive_params(p.a, p.b, p.c)
    table = gp.exact_posterior(params, p.x, EPS_TAIL)
    mu, var = gp.posterior_moments(table)
    ks = [int(k) for k in table.support]
    if op.command == "posterior":
        rows = [
            {"k": k, "prob": float(pr), "log_weight": float(lw)}
            for k, pr, lw in zip(ks, table.probs, table.log_weights)
        ]
        return {"rows": rows, "tail_bound": table.tail_bound, "mu_post": mu, "var_post": var}
    theorem1 = gp.theorem1_gamma(params, p.x)
    matched = gp.moment_matched_gamma(mu, var)
    if op.command == "approx":
        g = theorem1 if op.kind == "theorem1" else matched
        disc = gp.discretize_gamma(g, table.k_min, table.k_max, renormalize=False)
        return {
            "gamma": {"shape": g.shape, "scale": g.scale, "mean": g.mean, "variance": g.variance},
            "rows": [{"k": k, "prob": float(pr)} for k, pr in zip(ks, disc.probs)],
            "raw_total": disc.raw_total,
        }
    discs = [
        gp.discretize_gamma(g, table.k_min, table.k_max, renormalize=True)
        for g in (theorem1, matched)
    ]
    metrics = [_report_dict(gp.compare(table, d)) for d in discs]
    overlay = [
        {"k": k, "exact": float(pe), "theorem1": float(pt), "moment_matched": float(pm)}
        for k, pe, pt, pm in zip(ks, table.probs, discs[0].probs, discs[1].probs)
    ]
    return {"metrics": metrics, "overlay": overlay}


def _parse(op: CliOp, text: str) -> dict[str, Any]:
    """Bring CSV or JSON stdout into the layout of the JSON document."""
    if op.fmt == "json":
        return json.loads(text)
    meta: dict[str, str] = {}
    tables: list[list[dict[str, str]]] = []
    header = None
    for row in csv.reader(text.splitlines()):
        if row and row[0].startswith("#"):
            meta.update(
                tok.split("=", 1) for tok in ",".join(row)[1:].split() if "=" in tok
            )
            header = None
        elif header is None:
            header = row
            tables.append([])
        else:
            tables[-1].append(dict(zip(header, row)))
    if op.command == "posterior":
        return {"rows": tables[0], **{k: meta[k] for k in ("tail_bound", "mu_post", "var_post")}}
    if op.command == "approx":
        gamma = {k: meta[k] for k in ("shape", "scale", "mean", "variance")}
        return {"gamma": gamma, "rows": tables[0], "raw_total": meta["raw_total"]}
    if op.command == "compare":
        return {"metrics": tables[0], "overlay": tables[1]}
    if op.command == "verify":
        return {"checks": tables[0]}
    return {"results": tables[0]}


def _match(expected: Any, got: Any) -> bool:
    """Whether parsed output ``got`` equals ``expected`` at 12 significant digits.

    ``got`` may be a CSV string field or a JSON value; only the keys of
    ``expected`` are compared.
    """
    try:
        if isinstance(expected, dict):
            return isinstance(got, dict) and all(
                k in got and _match(v, got[k]) for k, v in expected.items()
            )
        if isinstance(expected, list):
            return (
                isinstance(got, list)
                and len(got) == len(expected)
                and all(_match(e, g) for e, g in zip(expected, got))
            )
        if isinstance(expected, bool):
            return got is expected or got == ("true" if expected else "false")
        if expected is None:
            return got is None or got == ""
        if isinstance(expected, int):
            return int(got) == expected
        if isinstance(expected, float):
            return float(got) == float(format(expected, ".12g"))
        return got == expected
    except (TypeError, ValueError):
        return False


WORKLOADS = {cls.name: cls for cls in (RegimeGrid, CliMix)}
NAMES = tuple(WORKLOADS)


def build(name: str, seed: int, root: Path):
    """The workload called ``name``, with its inputs generated from ``seed``."""
    return WORKLOADS[name](seed, root)
