"""Small exact linear algebra over the rationals.

Only what the geometric predicates need: ranks and the normal covector of
an affine hyperplane.  Both come from one Gauss-Jordan elimination,
``_eliminate``, which leaves its pivot rows unscaled.  Everything is
Fraction arithmetic; matrices are tiny (at most ambient-dimension sized).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence


def _eliminate(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination without scaling the pivot rows.

    Returns the reduced rows and the pivot columns: row r has its pivot in
    column pivots[r], and every other row is zero in that column.
    """
    m = [list(r) for r in rows]
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
                factor = m[i][col] / pv
                m[i] = [a - factor * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return m, pivots


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(_eliminate(rows)[1])


def _normalize_integer(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale to a primitive integer vector with first nonzero entry positive."""
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def affine_hyperplane(
    points: Sequence[Sequence[Fraction]],
) -> Optional[tuple[tuple[int, ...], Fraction]]:
    """Normal covector and offset of the affine span of m points in R^m.

    The coordinates must be Fractions.  Returns None unless the points
    affinely span an (m-1)-plane.  The normal is the primitive integer
    vector with first nonzero component positive; the offset c satisfies
    <normal, p> = c on the plane.
    """
    m = len(points[0])
    if len(points) != m:
        raise ValueError("need exactly target-dimension many points")
    p0 = points[0]
    mat, pivots = _eliminate([[x - y for x, y in zip(p, p0)] for p in points[1:]])
    if len(pivots) != m - 1:
        return None
    free = next(c for c in range(m) if c not in pivots)
    null = [Fraction(0)] * m
    null[free] = Fraction(1)
    for r, col in enumerate(pivots):
        null[col] = -mat[r][free] / mat[r][col]
    normal = _normalize_integer(null)
    offset = dot(normal, p0)
    return normal, offset


def dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))
