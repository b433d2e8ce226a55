"""The pivot history of ``Gf2System`` against the mask-carrying oracle, and its memory."""

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from gf2_oracle import MaskGf2System, boundary_columns
from whitney.gf2 import Gf2System
from whitney.simplicial import barycentric_subdivision


def _product(columns, x):
    """A x over GF(2): the XOR of the columns whose bit is set in x."""
    out = 0
    for j, col in enumerate(columns):
        if x >> j & 1:
            out ^= col
    return out


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(nrows=st.integers(0, 24), data=st.data())
def test_solve_matches_mask_oracle(nrows, data):
    # few rows against up to twice as many columns: many reductions, dependent columns,
    # and right-hand sides both in and out of the column space
    columns = data.draw(st.lists(st.integers(0, 2 ** nrows - 1), max_size=2 * nrows + 2))
    system, oracle = Gf2System(iter(columns)), MaskGf2System(columns)
    assert (system.ncols, system.rank) == (len(columns), oracle.rank)
    spanned = _product(columns, data.draw(st.integers(0, 2 ** len(columns) - 1)))
    for b in (spanned, data.draw(st.integers(0, 2 ** nrows - 1)), 0):
        # solve takes b's set rows and gives x's set columns; a repeated column would carry
        solution = system.solve(r for r in range(nrows) if b >> r & 1)
        x = None if solution is None else sum(1 << j for j in solution)
        assert x == oracle.solve(b)
        if x is None:
            assert b != spanned
        else:
            assert x.bit_length() <= len(columns) and _product(columns, x) == b


def _peak(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_history_peaks_below_the_masks(corpus):
    # the columns of boundary_2 on sd^2 of torus_7 are built before tracing starts
    k = barycentric_subdivision(barycentric_subdivision(corpus["torus_7"].complex).complex).complex
    columns = boundary_columns(k, 2)[0]
    assert Gf2System(columns).rank == MaskGf2System(columns).rank
    assert _peak(lambda: Gf2System(columns)) < 0.75 * _peak(lambda: MaskGf2System(columns))
