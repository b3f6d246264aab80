"""The CLI's column renderer against the former row-at-a-time renderer.

``cli._emit`` renders each table column in one pass and writes rows in
chunks; ``oracles.rowwise_emit`` formats one value at a time through
``csv.writer`` and ``json.dumps``.  On any table both must print the same
bytes, in both formats.
"""

import argparse
import contextlib
import io
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gpgamma.cli as cli

from oracles import RowTable, rowwise_emit

# Floats whose 12-digit text and repr part ways: -0.0, subnormals, the
# smallest normals, and 1e12..1e16, where %.12g switches to an exponent
# four decades before repr does.
EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, 1.5e-323, 2.225073858507e-308, 1e-300, 1.23456789e-35, 1e-5,
    1e-4, 0.1, 1.0, 123.0, 1e12, 1.5e13, 999999999999.5, 9.99999999999e15, 1e16,
    1.7976931348623157e308, math.inf, -math.inf, math.nan,
]  # fmt: skip

TEXT = st.text(alphabet=st.sampled_from('ab ,"\n%{}\'é'), max_size=6)

VALUES = {
    "int": st.integers(-(2**70), 2**70) | st.integers(-5, 5),
    "float": st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(EDGE_FLOATS + [-v for v in EDGE_FLOATS]),
    "bool": st.booleans(),
    "str": TEXT,
}


@st.composite
def tables(draw):
    """Columns of one type each, some with None holes, some as numpy arrays."""
    names = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(0, 9))
    values = []
    for _ in names:
        kind = draw(st.sampled_from(sorted(VALUES)))
        cells = VALUES[kind] | st.none() if draw(st.booleans()) else VALUES[kind]
        col = draw(st.lists(cells, min_size=rows, max_size=rows))
        if kind == "float" and None not in col and draw(st.booleans()):
            col = np.array(col)
        elif kind == "int" and None not in col and draw(st.booleans()):
            col = np.array([v % 2**62 - 2**61 for v in col], dtype=np.int64)
        values.append(col)
    return names, values


def _stdout(emit, *args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(*args)
    return out.getvalue()


def _both(fmt, doc_fields, parts, chunk):
    """(column renderer, row oracle) stdout for a document holding ``parts``' tables."""
    args = argparse.Namespace(format=fmt, command="render")
    header = {"eps_tail": 1e-10, "kind": "theorem1", "neg_zero": -0.0}

    def rowwise(part):
        if isinstance(part, str):
            return part
        cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in part.values]
        return RowTable(part.columns, list(zip(*cols)))

    def doc(render):
        return {key: render(v) if isinstance(v, cli._Table) else v for key, v in doc_fields.items()}

    with mock.patch.object(cli, "_CHUNK_ROWS", chunk):
        got = _stdout(cli._emit, args, doc(lambda t: t), header, parts)
    want = _stdout(rowwise_emit, args, doc(rowwise), header, [rowwise(p) for p in parts])
    return got, want


@settings(max_examples=300, deadline=None)
@given(tables(), tables(), st.sampled_from(["csv", "json"]), st.integers(1, 5))
def test_column_renderer_matches_rowwise_oracle(first, second, fmt, chunk):
    t1, t2 = cli._Table(*first), cli._Table(*second)
    # every kind of value a command emits outside a table: int, float and
    # str scalars and a flat dict of floats
    doc_fields = {
        "params": {"a": 1.5, "b": -0.0, "m": 2.01375270747123},
        "x": 10,
        "grid_file": 'g,"1".csv',
        "rows": t1,
        "tail_bound": math.inf,
        "overlay": t2,
    }
    got, want = _both(fmt, doc_fields, [t1, "overlay", t2], chunk)
    assert got == want


def test_chunked_posterior_table_matches_rowwise_oracle():
    # 9,000 rows: several chunks of the default size, in both formats.
    k = np.arange(10_000, 19_000)
    prob = np.exp(-0.5 * ((k - 14_500) / 900.0) ** 2) / 2255.0
    table = cli._Table(("k", "prob", "log_weight"), [k, prob, np.log(prob)])
    for fmt in ("csv", "json"):
        got, want = _both(fmt, {"x": 1000, "rows": table}, [table, "tail=1e-10"], cli._CHUNK_ROWS)
        assert got == want
