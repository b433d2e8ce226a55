"""The pivot history of ``Gf2System`` against the mask-carrying oracle, and its memory."""

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from gf2_oracle import MaskGf2System, boundary_columns
from whitney.gf2 import Gf2System
from whitney.simplicial import barycentric_subdivision


def _set_rows(v):
    return [r for r in range(v.bit_length()) if v >> r & 1]


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
    # Gf2System takes each column as its set rows; row nrows is in no column
    system, oracle = Gf2System(map(_set_rows, columns)), MaskGf2System(columns)
    assert (system.ncols, system.rank) == (len(columns), oracle.rank)
    spanned = _product(columns, data.draw(st.integers(0, 2 ** len(columns) - 1)))
    unlisted = data.draw(st.integers(0, 2 ** nrows - 1)) | 1 << nrows
    for b in (spanned, data.draw(st.integers(0, 2 ** nrows - 1)), 0, unlisted):
        # solve takes b's set rows and gives x's set columns; a repeated column would carry
        solution = system.solve(iter(_set_rows(b)))
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
    # the columns of boundary_2 on sd^2 of torus_7 are built before tracing starts: ints for the
    # oracle, lists of set rows for Gf2System, which packs them itself
    k = barycentric_subdivision(barycentric_subdivision(corpus["torus_7"].complex).complex).complex
    columns = boundary_columns(k, 2)[0]
    set_rows = list(map(_set_rows, columns))
    assert Gf2System(set_rows).rank == MaskGf2System(columns).rank
    assert _peak(lambda: Gf2System(set_rows)) < 0.75 * _peak(lambda: MaskGf2System(columns))


def test_pivots_grow_with_the_matrix_not_its_rows_squared():
    # boundary_1 of a path: column i holds rows i and i + 1, and each is a pivot spanning two
    # rows.  Held at full width the pivots would take about n^2 / 2 bits, from their lowest
    # row about 2n; six times the columns must cost less than twelve times the memory
    small, large = ([[i, i + 1] for i in range(n)] for n in (1000, 6000))
    assert _peak(lambda: Gf2System(large)) < 2 * 6 * _peak(lambda: Gf2System(small))
