"""The GF(2) elimination the pivot history of ``whitney.gf2`` is checked against.

The library's former ``Gf2System``, kept in the tests as an oracle: beside
every pivot it keeps a combination mask, an int as wide as the column
count whose bit j says whether column j is in the pivot.  ``solve`` then
XORs masks as it reduces b, so the solution comes out of the same pass
with no pivot history.  It shares no code with ``whitney.gf2``.

With it, ``is_boundary`` as the library used to decide it: eliminate the
whole boundary matrix at every dimension and read the witness off the
mask.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from whitney.homology import Mod2Chain
from whitney.simplicial import SimplicialComplex


class MaskGf2System:
    """Column space of a GF(2) matrix; each pivot carries its combination mask.

    ``kernel`` is a basis of the null space: one mask per column that
    reduced to zero.
    """

    def __init__(self, columns: Sequence[int]):
        self.ncols = len(columns)
        self.pivots: dict[int, tuple[int, int]] = {}  # row -> (vector, combo)
        self.kernel: list[int] = []  # the combos of the columns that reduced to zero
        for j, col in enumerate(columns):
            v, combo = col, 1 << j
            while v:
                r = (v & -v).bit_length() - 1
                if r not in self.pivots:
                    self.pivots[r] = (v, combo)
                    break
                pv, pc = self.pivots[r]
                v ^= pv
                combo ^= pc
            else:
                self.kernel.append(combo)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, b: int) -> Optional[int]:
        combo = 0
        while b:
            r = (b & -b).bit_length() - 1
            if r not in self.pivots:
                return None
            pv, pc = self.pivots[r]
            b ^= pv
            combo ^= pc
        return combo


def boundary_columns(k: SimplicialComplex, d: int) -> tuple[list[int], dict, list]:
    """The columns of C_d -> C_{d-1}, a sum of facet bits per d-simplex, with rows and columns."""
    rows = {s: i for i, s in enumerate(k.level(d - 1))}
    cols = list(k.level(d))
    columns = []
    for s in cols:
        v = 0
        for f in combinations(s, d):
            v |= 1 << rows[f]
        columns.append(v)
    return columns, rows, cols


def is_boundary(k: SimplicialComplex, c: Mod2Chain) -> tuple[bool, Optional[Mod2Chain]]:
    """Verdict and witness for the cycle c, by full elimination at every dimension."""
    if not c.support:
        return True, Mod2Chain(c.dim + 1, frozenset())
    columns, rows, cols = boundary_columns(k, c.dim + 1)
    b = 0
    for s in c.support:
        b |= 1 << rows[s]
    combo = MaskGf2System(columns).solve(b)
    if combo is None:
        return False, None
    return True, Mod2Chain(c.dim + 1, frozenset(s for j, s in enumerate(cols) if combo >> j & 1))
