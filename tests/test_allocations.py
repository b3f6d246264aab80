"""Transient memory of each pipeline layer on the largest regime-grid table.

Rate 0.01, x = 1000: a table of 41,354 entries (331 kB per float array).
numpy reports its data buffers to tracemalloc, so each peak is the same on
every run.  Budgets count table-sized arrays (8 bytes per table entry)
rather than bytes, so numpy's own small allocations do not decide them.
"""

import math
import tracemalloc

import numpy as np
import pytest

from gpgamma.approximation import (
    _GL3,
    _GL_BLOCK,
    KINDS,
    _gl_window_masses,
    build_gamma,
    discretize_gamma,
)
from gpgamma.model import derive_params
from gpgamma.posterior import exact_posterior, posterior_moments, window_moments
from gpgamma.validation import compare

RATE, SQRT_M, X = 0.01, 0.998, 1000


def _params():
    b = RATE / SQRT_M
    return derive_params(1.5, b, 2.0 * math.log(SQRT_M) - 1.5 * b)


def _peak(fn):
    """fn's result and the most memory it held at once, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def table():
    table = exact_posterior(_params(), X)
    assert len(table.probs) == 41_354
    return table


def _arrays(table) -> int:
    return table.probs.nbytes  # one table-sized float array


def test_exact_posterior_peak(table):
    # the result's two arrays, the evaluated blocks and a block's bounds;
    # concatenating every block and copying the cut out of it took 5.0
    again, peak = _peak(lambda: exact_posterior(_params(), X))
    assert len(again.probs) == len(table.probs)
    assert peak <= 4 * _arrays(table)


def test_window_moments_hold_one_buffer(table):
    _, peak = _peak(lambda: window_moments(table.k_min, table.probs))
    assert peak <= 1.25 * _arrays(table)


@pytest.mark.parametrize("kind", KINDS)
def test_discretize_gamma_peak(table, kind):
    posterior_moments(table)
    g = build_gamma(kind, table)
    # every window of this table takes the 3-point rule, in one kernel call
    # with one (2, 3, min(block, run)) workspace.  Beside the result,
    # renormalized in place
    workspace = 2 * len(_GL3[0]) * _GL_BLOCK * 8
    _, peak = _peak(lambda: discretize_gamma(g, table.k_min, table.k_max, renormalize=True))
    assert peak <= 1.5 * _arrays(table) + workspace


@pytest.mark.parametrize("kind", KINDS)
def test_window_kernel_holds_its_workspace_and_few_rows(table, kind):
    posterior_moments(table)
    g = build_gamma(kind, table)
    out = np.empty(len(table.probs))
    # the (2, 3, block) workspace and a few block-sized rows (8 bytes per
    # window of a block); weighting the block through a broadcast (nodes, 1)
    # weight column held one more row's iterator buffer, 3.07 rows in all
    workspace, row = 2 * len(_GL3[0]) * _GL_BLOCK * 8, _GL_BLOCK * 8
    _, peak = _peak(lambda: _gl_window_masses(g, table.k_min, out, 0.0, _GL3))
    assert peak <= workspace + 2.5 * row


@pytest.mark.parametrize("kind", KINDS)
def test_compare_holds_at_most_two_table_sized_arrays(table, kind):
    posterior_moments(table)
    disc = discretize_gamma(build_gamma(kind, table), table.k_min, table.k_max, True)
    # |p - q| and the KL terms share one buffer, freed before the moments;
    # masked copies and repeated p - q took 4.1
    _, peak = _peak(lambda: compare(table, disc))
    assert peak <= 2 * _arrays(table)
