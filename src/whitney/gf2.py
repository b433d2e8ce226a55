"""Bitset-packed GF(2) elimination.

Columns are Python ints used as bit vectors over row indices.  Pivot rows
are always the least set bit, and columns are consumed in their given
(canonical) order, so ranks and solution witnesses are deterministic.
"""

from __future__ import annotations

from typing import Optional, Sequence


class Gf2System:
    """Column-space of a GF(2) matrix, supporting rank and solve."""

    def __init__(self, columns: Sequence[int]):
        self.ncols = len(columns)
        pivots: dict[int, tuple[int, int]] = {}  # row -> (vector, combo)
        self.pivots = pivots
        for j, col in enumerate(columns):
            v, combo = col, 1 << j
            while v:
                r = (v & -v).bit_length() - 1
                if r not in pivots:
                    pivots[r] = (v, combo)
                    break
                pv, pc = pivots[r]
                v ^= pv
                combo ^= pc

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, b: int) -> Optional[int]:
        """Combination mask x (bit j = column j) with A x = b, or None."""
        pivots, combo = self.pivots, 0
        while b:
            r = (b & -b).bit_length() - 1
            if r not in pivots:
                return None
            pv, pc = pivots[r]
            b ^= pv
            combo ^= pc
        return combo
