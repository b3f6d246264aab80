"""Command-line interface.

Subcommands: ``posterior`` (exact table), ``approx`` (gamma parameters and
discretized pmf), ``compare`` (metrics plus plot-ready overlay columns),
``verify`` (the Lerch form of the normalizer checked over the built-in
grid) and ``sweep`` (grid file driver).  Output is CSV (default) or a
single JSON document; repeated runs with identical flags produce
byte-identical output.

Exit status: 0 success, 1 domain or tolerance failure, 2 usage error,
141 when stdout is a pipe whose reader closed it early (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, Iterable, Sequence, TextIO

from .approximation import KINDS, build_gamma, discretize_gamma
from .errors import DomainError, NumericError, PrecisionError
from .model import derive_params
from .posterior import PosteriorTable, exact_posterior, posterior_moments
from .validation import ComparisonReport, compare_kinds, sweep, verify_lerch_denominator

SCHEMA_VERSION = "1"

# Built-in verification grid: a small-rate and a large-rate reference set.
REFERENCE_SETS = ((1.5, 0.1, -0.05), (1.5, 0.5, -0.05))

_LERCH_TOL = 1e-8

_METRIC_COLUMNS = [f.name for f in dataclasses.fields(ComparisonReport)]


class GridFormatError(Exception):
    """A sweep grid file line that cannot be parsed."""


@dataclasses.dataclass(frozen=True)
class _Table:
    """Columns of values, each of one type or None: CSV lines, or JSON objects keyed by column."""

    columns: Sequence[str]
    values: Sequence[Sequence[Any]]  # one per column, or none for a table without rows


_CHUNK_ROWS = 1024  # rows rendered per write, which bounds the row text held at once


def _cells(values: Sequence[Any], json_out: bool) -> list[str]:
    """One column's values as CSV fields or JSON values, rendered in one pass.

    Floats print at 12 significant digits, -0.0 as 0, and in JSON as the repr
    of that value (``Infinity``/``NaN`` if non-finite).  The repr has the same
    digits, so only a text without a point, with an exponent that repr writes
    out (e+12..e+15) or of a subnormal (e-3..) goes through ``json.dumps``.
    Strings are quoted as ``csv.writer`` quotes them; None is empty or null.
    """
    values = values.tolist() if hasattr(values, "tolist") else values
    present = [v for v in values if v is not None]
    first = present[0] if present else None
    if isinstance(first, float):
        text = "\n".join(["%.12g"] * len(present)) % tuple([v + 0.0 for v in present])
        cells = text.split("\n")
        if json_out:
            cells = [
                c if "." in c and "e+" not in c and "e-3" not in c else json.dumps(float(c))
                for c in cells
            ]
    elif isinstance(first, bool):
        cells = ["true" if v else "false" for v in present]
    elif isinstance(first, str) and json_out:
        cells = list(map(json.dumps, present))
    elif isinstance(first, str):
        quote = ("," in v or '"' in v or "\n" in v for v in present)
        cells = ['"%s"' % v.replace('"', '""') if q else v for v, q in zip(present, quote)]
    else:
        cells = list(map(str, present))
    if len(present) < len(values):
        filled = iter(cells)
        cells = [next(filled) if v is not None else "null" if json_out else "" for v in values]
    return cells


def _write_table(out: TextIO, table: _Table, json_out: bool) -> None:
    """Write ``table`` as CSV lines, or as a JSON document's list field, by chunks of rows."""
    if json_out:
        names = [json.dumps(col).replace("%", "%%") for col in table.columns]
        fields = ",\n".join(f"      {name}: %s" for name in names)
        join, lead, sep = f"    {{\n{fields}\n    }}".__mod__, "[\n", ",\n"
    else:  # csv.writer quotes a row's only field when it is empty
        join = ",".join if len(table.columns) > 1 else lambda row: row[0] or '""'
        lead, sep = "", "\n"
        out.write(join(_cells(table.columns, False)) + "\n")
    rows = len(table.values[0]) if table.values else 0
    for start in range(0, rows, _CHUNK_ROWS):
        cells = [_cells(col[start : start + _CHUNK_ROWS], json_out) for col in table.values]
        out.write(lead + sep.join(map(join, zip(*cells))))
        lead = sep
    out.write(("\n  ]" if rows else "[]") if json_out else ("\n" if rows else ""))


def _fmt(value: Any) -> str:
    """Render one header value as a CSV field, a string as it is."""
    return value if isinstance(value, str) else _cells([value], False)[0]


def _kv(pairs: Iterable[tuple[str, Any]]) -> str:
    return " ".join(f"{k}={_fmt(v)}" for k, v in pairs)


def _emit(
    args: argparse.Namespace,
    doc: dict[str, Any],
    header: dict[str, Any],
    parts: Sequence[str | _Table],
) -> None:
    """Write a command's output to stdout in the format ``args.format`` names.

    JSON is ``doc`` after the schema version and command name, with each
    table as a list of row objects and a flat dict of scalars as an object.
    CSV is a comment echoing the command and ``header``, then ``parts`` in
    order: a string is a comment line, a table its column line and rows.
    """
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command, **doc}
        for i, (key, value) in enumerate(doc.items()):
            sys.stdout.write(f"{',' if i else '{'}\n  {json.dumps(key)}: ")
            if isinstance(value, _Table):
                _write_table(sys.stdout, value, json_out=True)
            elif isinstance(value, dict):
                fields = (f"    {json.dumps(k)}: {_cells([v], True)[0]}" for k, v in value.items())
                sys.stdout.write("{\n%s\n  }" % ",\n".join(fields))
            else:
                sys.stdout.write(_cells([value], True)[0])
        sys.stdout.write("\n}\n")
        return
    sys.stdout.write(f"# schema_version={SCHEMA_VERSION}\n")
    sys.stdout.write(f"# {_kv({'command': args.command, **header}.items())}\n")
    for part in parts:
        if isinstance(part, str):
            sys.stdout.write(f"# {part}\n")
        else:
            _write_table(sys.stdout, part, json_out=False)


def _model_table(args: argparse.Namespace) -> tuple[PosteriorTable, dict[str, Any], dict[str, Any]]:
    """The exact posterior at the model arguments, and those as JSON fields and CSV header pairs."""
    table = exact_posterior(derive_params(args.a, args.b, args.c), args.x, args.eps_tail)
    m = table.params.m
    doc = {"params": {"a": args.a, "b": args.b, "c": args.c, "m": m}, "x": args.x}
    return table, doc, {"a": args.a, "b": args.b, "c": args.c, "x": args.x, "m": m}


def cmd_posterior(args: argparse.Namespace) -> int:
    table, doc, header = _model_table(args)
    mu, var = posterior_moments(table)
    rows = _Table(("k", "prob", "log_weight"), [table.support, table.probs, table.log_weights])
    footer = {"tail_bound": table.tail_bound, "mu_post": mu, "var_post": var}
    _emit(
        args,
        {**doc, "eps_tail": args.eps_tail, "rows": rows, **footer},
        {**header, "eps_tail": args.eps_tail},
        [rows, _kv(footer.items())],
    )
    return 0


def cmd_approx(args: argparse.Namespace) -> int:
    table, doc, header = _model_table(args)
    g = build_gamma(args.kind.replace("-", "_"), table)
    disc = discretize_gamma(g, table.k_min, table.k_max, renormalize=False)
    gamma = {"shape": g.shape, "scale": g.scale, "mean": g.mean, "variance": g.variance}
    rows = _Table(("k", "prob"), [table.support, disc.probs])
    footer = {"raw_total": disc.raw_total}
    echo = {"kind": g.kind, "eps_tail": args.eps_tail}
    _emit(
        args,
        {**doc, **echo, "gamma": gamma, "rows": rows, **footer},
        {**header, **echo},
        [_kv(gamma.items()), rows, _kv(footer.items())],
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    table, doc, header = _model_table(args)
    discs, reports = zip(*compare_kinds(table, args.epsilon_ineq))
    metrics = _Table(_METRIC_COLUMNS, [[getattr(r, c) for r in reports] for c in _METRIC_COLUMNS])
    overlay = _Table(
        ("k", "exact", *KINDS), [table.support, table.probs, *(d.probs for d in discs)]
    )
    echo = {"eps_tail": args.eps_tail, "epsilon_ineq": args.epsilon_ineq}
    _emit(
        args,
        {**doc, **echo, "metrics": metrics, "overlay": overlay},
        {**header, **echo},
        [metrics, "overlay", overlay],
    )
    return 0


def _verify_lerch_rows() -> list[tuple[str, str, float, bool]]:
    rows = []
    for a, b, c in REFERENCE_SETS:
        params = derive_params(a, b, c)
        for x in range(1, 16):
            err = verify_lerch_denominator(params, x)
            detail = _kv([("a", a), ("b", b), ("c", c), ("x", x)])
            rows.append(("lerch_denominator", detail, err, err < _LERCH_TOL))
    return rows


_VERIFY_SUITES = {"lerch": _verify_lerch_rows}


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(_VERIFY_SUITES) if args.suite == "all" else [args.suite]
    rows = [row for name in names for row in _VERIFY_SUITES[name]()]
    checks = _Table(("check", "params", "relative_error", "pass"), list(zip(*rows)))
    echo = {"suite": args.suite}
    _emit(args, {**echo, "checks": checks}, echo, [checks])
    return 0 if all(ok for _, _, _, ok in rows) else 1


def _parse_grid(path: str) -> list[tuple[float, float, float, int]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GridFormatError(f"cannot read grid file {path}: {exc}") from exc
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 4:
            raise GridFormatError(
                f"{path}:{lineno}: expected 4 fields a,b,c,x, got {len(fields)}"
            )
        try:
            points.append((float(fields[0]), float(fields[1]), float(fields[2]), int(fields[3])))
        except ValueError as exc:
            raise GridFormatError(f"{path}:{lineno}: {exc}") from exc
    return points


_SWEEP_COLUMNS = ["index", "a", "b", "c", "x", *_METRIC_COLUMNS, "error"]


def cmd_sweep(args: argparse.Namespace) -> int:
    results = sweep(_parse_grid(args.grid_file), args.eps_tail, args.epsilon_ineq)
    # the point, kind and error from each result, the metrics (None on an error row) from its report
    values = [
        [getattr(r if hasattr(r, col) else r.report, col, None) for r in results]
        for col in _SWEEP_COLUMNS
    ]
    table = _Table(_SWEEP_COLUMNS, values)
    echo = {
        "grid_file": args.grid_file,
        "eps_tail": args.eps_tail,
        "epsilon_ineq": args.epsilon_ineq,
    }
    _emit(args, {**echo, "results": table}, echo, [table])
    return 0


_ARGUMENTS = {
    "-a": dict(type=float, required=True, help="model constant a"),
    "-b": dict(type=float, required=True, help="rate constant b in (0,1)"),
    "-c": dict(type=float, required=True, help="model constant c"),
    "-x": dict(type=int, required=True, help="observed count"),
    "--eps-tail": dict(
        type=float,
        default=1e-10,
        help="relative truncation tail for the exact posterior (default 1e-10)",
    ),
    "--kind": dict(
        choices=[k.replace("_", "-") for k in KINDS], required=True, help="gamma construction"
    ),
    "--epsilon-ineq": dict(
        type=float, default=0.01, help="epsilon for the validity inequality (default 0.01)"
    ),
    "suite": dict(choices=[*_VERIFY_SUITES, "all"], help="which identity suite to run"),
    "grid_file": dict(help="CSV file with lines a,b,c,x (# comments allowed)"),
    "--format": dict(choices=("csv", "json"), default="csv", help="output format (default csv)"),
}
_MODEL = ("-a", "-b", "-c", "-x", "--eps-tail")

# Each subcommand: handler, help, and its _ARGUMENTS keys in --help's order; --format ends each.
_COMMANDS = {
    "posterior": (cmd_posterior, "exact posterior table of k", _MODEL),
    "approx": (cmd_approx, "gamma approximation and its discretized pmf", (*_MODEL, "--kind")),
    "compare": (
        cmd_compare, "metrics and overlay for both gamma kinds", (*_MODEL, "--epsilon-ineq")
    ),
    "verify": (cmd_verify, "numerical identity checks", ("suite",)),
    "sweep": (
        cmd_sweep,
        "comparison reports over a grid file",
        ("grid_file", "--eps-tail", "--epsilon-ineq"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpgamma",
        description=(
            "Exact posterior of the Generalized Poisson count level and its "
            "gamma approximations"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in (*arguments, "--format"):
            sp.add_argument(flag, **_ARGUMENTS[flag])
        sp.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GridFormatError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PrecisionError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Console entry point: flush, then ``os._exit`` with ``main``'s status (141: closed pipe).

    argparse's exits, for ``--help`` (0) and usage errors (2), end the same way.
    """
    try:
        try:
            status = main()
        except SystemExit as exc:
            status = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        status = 141  # 128 + SIGPIPE, as a shell reports a pipe-killed program
    sys.stderr.flush()
    os._exit(status)  # skips the interpreter's teardown: no atexit handler runs
