"""Bitset-packed GF(2) elimination with a pivot history.

It serves the boundary matrices of dimension d >= 2: ``homology`` solves
C_1 -> C_0 on a spanning forest.

Each column is an iterable of distinct row indices, consumed in the given
(canonical) order; this module alone packs it into a Python int used as a
bit vector.  A column is a pivot exactly when it is not in the span of the
columns before it, so the pivot columns are the greedy basis of the column
space, and ``solve`` returns the one solution supported on them.  Ranks and
solution witnesses are therefore deterministic, and do not depend on which
row each pivot is taken on.  That row is the highest set bit: on boundary
matrices in canonical order it leaves the reduced columns almost as sparse
as the columns themselves, where the least set bit fills them in.

A pivot is stored shifted down to its lowest set row, so it costs the span
of its rows, not its top row: the pivots of ∂₂ on sd³ ``pinched_torus`` hold
1,126,311 bits, against 20,645,488 unshifted.  Keyed by its width w (top
row + 1), it is shifted back by w - bit_length, with no offset stored.

No combination mask is kept beside a pivot.  Each pivot records, in creation
order, its width, its column and the widths of the earlier pivots its column
was reduced by, so pivot p is column p plus the pivots it names (the R = ∂V
bookkeeping of Edelsbrunner and Harer, *Computational Topology*, ch. VII).
``solve`` takes b as the indices of its set rows, reduces b to find which
pivots sum to it, then expands them into column indices in one pass from
the newest pivot back.  No caller builds or reads a bit vector.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional


class Gf2System:
    """Column space of a GF(2) matrix, supporting rank and solve.

    The columns may be any iterable; each is reduced as it arrives and only
    the pivots are kept, so a generator's columns are freed one by one.
    """

    def __init__(self, columns: Iterable[Iterable[int]]):
        pivots: dict[int, int] = {}  # width (top row + 1) -> pivot from its lowest row, in creation order
        # pivot p is column sources[p] plus the pivots of widths reduced_by[starts[p]:starts[p + 1]]
        sources, starts, reduced_by = array("q"), array("q"), array("q")
        ncols = 0
        for j, column in enumerate(columns):
            ncols = j + 1
            # distinct rows, so their bits sum without carries
            v = sum(map((1).__lshift__, column))
            used = []
            while v:
                w = v.bit_length()
                pv = pivots.get(w)
                if pv is None:
                    pivots[w] = v >> (v & -v).bit_length() - 1
                    sources.append(j)
                    starts.append(len(reduced_by))
                    reduced_by.extend(used)
                    break
                v ^= pv << w - pv.bit_length()
                used.append(w)
        self.pivots, self.ncols = pivots, ncols
        self._history = sources, starts, reduced_by

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, rows: Iterable[int]) -> Optional[list[int]]:
        """Column indices of the x with A x = b, highest first, or None.

        The set bits of b are ``rows``, distinct row indices.  b is a sum of
        the pivots in ``odd``.  Each pivot is its column plus earlier pivots,
        so walking from the newest pivot back, a pivot still in ``odd`` puts
        its column in x and toggles the pivots it names.
        """
        # b as binary digits read in one int() call: linear in its width, where a
        # sum of powers of two copies the growing total once per term
        rows = list(rows)
        digits = bytearray(b"0") * (max(rows, default=-1) + 1)
        for r in rows:
            digits[~r] = 49  # "1"; the last digit is bit 0
        b = int(digits, 2) if digits else 0
        pivots, odd = self.pivots, set()
        while b:
            w = b.bit_length()
            pv = pivots.get(w)
            if pv is None:
                return None
            b ^= pv << w - pv.bit_length()
            odd.add(w)
        sources, starts, reduced_by = self._history
        columns, end = [], len(reduced_by)
        for w, j, start in zip(reversed(pivots), reversed(sources), reversed(starts)):
            if not odd:
                break
            if w in odd:
                odd.remove(w)
                odd.symmetric_difference_update(reduced_by[start:end])
                columns.append(j)
            end = start
        return columns
