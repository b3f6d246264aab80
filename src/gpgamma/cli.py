"""Command-line interface.

Subcommands: ``posterior`` (exact table), ``approx`` (gamma parameters and
discretized pmf), ``compare`` (metrics plus plot-ready overlay columns),
``verify`` (identity checks over the built-in grid) and ``sweep`` (grid
file driver).  Output is CSV (default) or a single JSON document; repeated
runs with identical flags produce byte-identical output.

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
from .posterior import exact_posterior, posterior_moments
from .special import bernoulli_numbers, bernoulli_polynomial, power_sum
from .validation import (
    ComparisonReport,
    compare,
    sweep,
    verify_bernoulli_expansion,
    verify_lerch_denominator,
)

SCHEMA_VERSION = "1"

# Built-in verification grid: a small-rate and a large-rate reference set.
REFERENCE_SETS = ((1.5, 0.1, -0.05), (1.5, 0.5, -0.05))

_LERCH_TOL = 1e-8
_POWERSUM_TOL = 1e-9

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


def _round12(value: Any) -> Any:
    """Round floats (recursively) to 12 significant digits for JSON output."""
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


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
    table as a list of row objects.  CSV is a comment echoing the command
    and ``header``, then ``parts`` in order: a string is a comment line, a
    table its column line and rows.
    """
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command, **doc}
        for i, (key, value) in enumerate(doc.items()):
            sys.stdout.write(f"{',' if i else '{'}\n  {json.dumps(key)}: ")
            if isinstance(value, _Table):
                _write_table(sys.stdout, value, json_out=True)
            else:
                sys.stdout.write(json.dumps(_round12(value), indent=2).replace("\n", "\n  "))
        sys.stdout.write("\n}\n")
        return
    sys.stdout.write(f"# schema_version={SCHEMA_VERSION}\n")
    sys.stdout.write(f"# {_kv({'command': args.command, **header}.items())}\n")
    for part in parts:
        if isinstance(part, str):
            sys.stdout.write(f"# {part}\n")
        else:
            _write_table(sys.stdout, part, json_out=False)


def _model_echo(
    args: argparse.Namespace, m: float
) -> tuple[dict[str, Any], dict[str, Any]]:
    """The model arguments as JSON fields and as CSV header pairs."""
    doc = {"params": {"a": args.a, "b": args.b, "c": args.c, "m": m}, "x": args.x}
    return doc, {"a": args.a, "b": args.b, "c": args.c, "x": args.x, "m": m}


def cmd_posterior(args: argparse.Namespace) -> int:
    params = derive_params(args.a, args.b, args.c)
    table = exact_posterior(params, args.x, args.eps_tail)
    mu, var = posterior_moments(table)
    rows = _Table(("k", "prob", "log_weight"), [table.support, table.probs, table.log_weights])
    footer = {"tail_bound": table.tail_bound, "mu_post": mu, "var_post": var}
    doc, header = _model_echo(args, params.m)
    _emit(
        args,
        {**doc, "eps_tail": args.eps_tail, "rows": rows, **footer},
        {**header, "eps_tail": args.eps_tail},
        [rows, _kv(footer.items())],
    )
    return 0


def cmd_approx(args: argparse.Namespace) -> int:
    params = derive_params(args.a, args.b, args.c)
    table = exact_posterior(params, args.x, args.eps_tail)
    g = build_gamma(args.kind, table)
    disc = discretize_gamma(g, table.k_min, table.k_max, renormalize=False)
    gamma = {"shape": g.shape, "scale": g.scale, "mean": g.mean, "variance": g.variance}
    rows = _Table(("k", "prob"), [table.support, disc.probs])
    footer = {"raw_total": disc.raw_total}
    doc, header = _model_echo(args, params.m)
    echo = {"kind": g.kind, "eps_tail": args.eps_tail}
    _emit(
        args,
        {**doc, **echo, "gamma": gamma, "rows": rows, **footer},
        {**header, **echo},
        [_kv(gamma.items()), rows, _kv(footer.items())],
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    params = derive_params(args.a, args.b, args.c)
    table = exact_posterior(params, args.x, args.eps_tail)
    discs = []
    reports = []
    # Both gammas first: a table too loose for moments is refused before
    # any window, the costly layer, is evaluated.
    for g in [build_gamma(kind, table) for kind in KINDS]:
        disc = discretize_gamma(g, table.k_min, table.k_max, renormalize=True)
        discs.append(disc.probs)
        reports.append(compare(table, disc, args.epsilon_ineq))
    metrics = _Table(_METRIC_COLUMNS, [[getattr(r, c) for r in reports] for c in _METRIC_COLUMNS])
    overlay = _Table(("k", "exact", *KINDS), [table.support, table.probs, *discs])
    doc, header = _model_echo(args, params.m)
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


def _verify_powersum_rows() -> list[tuple[str, str, float, bool]]:
    rows = []
    for n in range(0, 21):
        table = bernoulli_numbers(n + 1)
        for upper in (1, 5, 10, 30):
            expected = power_sum(n, upper)
            got = (bernoulli_polynomial(n + 1, float(upper)) - table[n + 1]) / (n + 1)
            err = abs(got - expected) / (abs(expected) if expected != 0.0 else 1.0)
            detail = _kv([("n", n), ("upper", upper)])
            rows.append(("power_sum_identity", detail, err, err < _POWERSUM_TOL))
    return rows


def _verify_bernoulli_rows() -> list[tuple[str, str, float, bool]]:
    rows = []
    errs_at_8 = {}
    for a, b, c in REFERENCE_SETS:
        params = derive_params(a, b, c)
        for x in (1, 2, 3):
            few = verify_bernoulli_expansion(params, x, 2)
            many = verify_bernoulli_expansion(params, x, 8)
            errs_at_8[(b, x)] = many
            detail = _kv([("a", a), ("b", b), ("c", c), ("x", x)])
            # 1e-14 slack: both errors may sit at the float noise floor.
            shrinks = many <= few + 1e-14
            rows.append(("bernoulli_expansion_shrinks", detail, many, shrinks))
    small_b, large_b = REFERENCE_SETS[0][1], REFERENCE_SETS[1][1]
    for x in (1, 2, 3):
        err = errs_at_8[(large_b, x)]
        ordered = err >= errs_at_8[(small_b, x)]
        detail = _kv([("x", x), ("terms", 8)])
        rows.append(("bernoulli_error_rate_ordering", detail, err, ordered))
    return rows


def cmd_verify(args: argparse.Namespace) -> int:
    suites = {
        "lerch": _verify_lerch_rows,
        "bernoulli": _verify_bernoulli_rows,
        "powersum": _verify_powersum_rows,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    rows = [row for name in names for row in suites[name]()]
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
    grid = _parse_grid(args.grid_file)
    entries = []
    for res in sweep(grid, args.eps_tail, args.epsilon_ineq):
        # index, a, b, c, x, kind and error, in SweepResult's field order
        entry = {
            f.name: getattr(res, f.name)
            for f in dataclasses.fields(res)
            if f.name != "report"
        }
        if res.report is not None:
            entry.update((col, getattr(res.report, col)) for col in _METRIC_COLUMNS)
        entries.append(entry)
    table = _Table(_SWEEP_COLUMNS, [[e.get(col) for e in entries] for col in _SWEEP_COLUMNS])
    echo = {
        "grid_file": args.grid_file,
        "eps_tail": args.eps_tail,
        "epsilon_ineq": args.epsilon_ineq,
    }
    _emit(args, {**echo, "results": entries}, echo, [table])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpgamma",
        description=(
            "Exact posterior of the Generalized Poisson count level and its "
            "gamma approximations"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("-a", type=float, required=True, help="model constant a")
        sp.add_argument("-b", type=float, required=True, help="rate constant b in (0,1)")
        sp.add_argument("-c", type=float, required=True, help="model constant c")
        sp.add_argument("-x", type=int, required=True, help="observed count")
        add_eps_tail_arg(sp)

    def add_eps_tail_arg(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--eps-tail",
            type=float,
            default=1e-10,
            help="relative truncation tail for the exact posterior (default 1e-10)",
        )

    def add_epsilon_ineq_arg(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--epsilon-ineq",
            type=float,
            default=0.01,
            help="epsilon for the validity inequality (default 0.01)",
        )

    def add_format_arg(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--format",
            choices=("csv", "json"),
            default="csv",
            help="output format (default csv)",
        )

    sp = sub.add_parser("posterior", help="exact posterior table of k")
    add_model_args(sp)
    add_format_arg(sp)
    sp.set_defaults(func=cmd_posterior)

    sp = sub.add_parser("approx", help="gamma approximation and its discretized pmf")
    add_model_args(sp)
    sp.add_argument(
        "--kind",
        choices=("theorem1", "moment-matched"),
        required=True,
        help="gamma construction",
    )
    add_format_arg(sp)
    sp.set_defaults(func=cmd_approx)

    sp = sub.add_parser("compare", help="metrics and overlay for both gamma kinds")
    add_model_args(sp)
    add_epsilon_ineq_arg(sp)
    add_format_arg(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("verify", help="numerical identity checks")
    sp.add_argument(
        "suite",
        choices=("lerch", "bernoulli", "powersum", "all"),
        help="which identity suite to run",
    )
    add_format_arg(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="comparison reports over a grid file")
    sp.add_argument("grid_file", help="CSV file with lines a,b,c,x (# comments allowed)")
    add_eps_tail_arg(sp)
    add_epsilon_ineq_arg(sp)
    add_format_arg(sp)
    sp.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "kind", None) == "moment-matched":
        args.kind = "moment_matched"
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
