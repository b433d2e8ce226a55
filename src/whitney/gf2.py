"""Bitset-packed GF(2) elimination.

Columns are Python ints used as bit vectors over row indices.  Pivot rows
are always the least set bit, and columns are consumed in their given
(canonical) order, so ranks and solution witnesses are deterministic.
"""

from __future__ import annotations

from typing import Optional, Sequence


def _lsb(x: int) -> int:
    return (x & -x).bit_length() - 1


class Gf2System:
    """Column-space of a GF(2) matrix, supporting rank and solve."""

    def __init__(self, columns: Sequence[int]):
        self.ncols = len(columns)
        self.pivots: dict[int, tuple[int, int]] = {}  # row -> (vector, combo)
        for j, col in enumerate(columns):
            v, combo = col, 1 << j
            while v:
                r = _lsb(v)
                if r in self.pivots:
                    pv, pc = self.pivots[r]
                    v ^= pv
                    combo ^= pc
                else:
                    self.pivots[r] = (v, combo)
                    break

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, b: int) -> Optional[int]:
        """Combination mask x (bit j = column j) with A x = b, or None."""
        combo = 0
        while b:
            r = _lsb(b)
            if r not in self.pivots:
                return None
            pv, pc = self.pivots[r]
            b ^= pv
            combo ^= pc
        return combo
