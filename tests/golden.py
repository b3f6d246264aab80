"""Golden-fixture records: the pinned distance metrics of ``fixtures/golden_metrics.txt``.

Plain text, one record per line,

    a,b,c,x,kind,metric,value

with numbers rendered to 12 significant digits.  ``generate_goldens.py``
writes the file; ``test_validation.py`` reads it.
"""

from __future__ import annotations

from typing import Iterable

from gpgamma.validation import ComparisonReport

_GOLDEN_METRICS = ("tv", "kl", "sup_abs")


def _g12(value: float) -> str:
    return format(value, ".12g")


def golden_key(
    a: float, b: float, c: float, x: int, kind: str, metric: str
) -> tuple[str, str, str, str, str, str]:
    """Canonical lookup key for one golden record."""
    return (_g12(a), _g12(b), _g12(c), str(x), kind, metric)


def golden_lines(reports: Iterable[ComparisonReport]) -> list[str]:
    """Render the distance metrics of each report as golden-fixture lines."""
    lines = []
    for rep in reports:
        for metric in _GOLDEN_METRICS:
            key = golden_key(rep.a, rep.b, rep.c, rep.x, rep.kind, metric)
            lines.append(",".join([*key, _g12(getattr(rep, metric))]))
    return lines


def load_golden(path) -> dict[tuple[str, str, str, str, str, str], float]:
    """Parse a golden-fixture file into a {key: value} mapping."""
    table = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if len(fields) != 7:
                raise ValueError(f"malformed golden record: {line!r}")
            table[tuple(fields[:6])] = float(fields[6])
    return table
