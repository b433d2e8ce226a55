"""The Fraction geometry the integer path is checked against.

Gauss-Jordan elimination on rows cleared one by one, the affine hyperplane
through m rational points and a Fraction dot product.  This is the
library's former general path, kept in the tests as an oracle: it shares
no code with ``whitney.exactlin``, whose single fraction-free elimination
and integer normal it checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Optional, Sequence


def _eliminate(rows: Sequence[Sequence[int | Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination in Python integers.

    Each row is first multiplied by the lcm of its denominators, which
    changes neither the rank nor the null space; a row is then cleared
    below and above a pivot by r := pv * r - r[col] * pivot_row, so no step
    divides.  Returns the reduced integer rows and the pivot columns: row r
    has its pivot in column pivots[r], and every other row is zero in that
    column.
    """
    m = []
    for r in rows:
        scale = lcm(*(x.denominator for x in r))
        m.append([x.numerator * (scale // x.denominator) for x in r])
    pivots: list[int] = []
    for col in range(len(m[0]) if m else 0):
        row = len(pivots)
        pivot = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a * pv - factor * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return m, pivots


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """Divide by the gcd and make the first nonzero entry positive."""
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    if next((x for x in ints if x != 0), 0) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def affine_hyperplane(
    points: Sequence[Sequence[int | Fraction]],
) -> Optional[tuple[tuple[int, ...], Fraction]]:
    """Normal covector and offset of the affine span of m points in R^m.

    The coordinates are ints or Fractions.  Returns None unless the points
    affinely span an (m-1)-plane.  The normal is the primitive integer
    vector with first nonzero component positive; the offset c, a Fraction,
    satisfies <normal, p> = c on the plane.
    """
    m = len(points[0])
    if len(points) != m:
        raise ValueError("need exactly target-dimension many points")
    p0 = points[0]
    mat, pivots = _eliminate([[x - y for x, y in zip(p, p0)] for p in points[1:]])
    if len(pivots) != m - 1:
        return None
    free = next(c for c in range(m) if c not in pivots)
    # row r reads pv_r x_{pivots[r]} + mat[r][free] x_free = 0; take x_free = prod pv_r
    scale = prod(mat[r][col] for r, col in enumerate(pivots))
    null = [0] * m
    null[free] = scale
    for r, col in enumerate(pivots):
        null[col] = -mat[r][free] * (scale // mat[r][col])
    normal = _primitive(null)
    return normal, dot(normal, p0)


def dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))
