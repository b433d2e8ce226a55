"""Small exact linear algebra over the rationals and the integers.

Only what the geometric predicates need: ranks and the normal covector of
an affine hyperplane.  Inputs are ints or Fractions.  Ranks and the general
hyperplane, ``affine_hyperplane``, come from one Gauss-Jordan elimination,
``_eliminate``, which clears each row's denominators and then never
divides.  ``integer_normal`` gives the same normal for integer points from
signed minors computed by fraction-free (Bareiss) elimination; the
half-link census uses it once each map's denominators are cleared.  No
float enters any routine, and no division reaches a predicate; matrices
are tiny (at most ambient-dimension sized).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Optional, Sequence


def is_rational_point(p: Sequence) -> bool:
    """True iff every coordinate is an int or a Fraction, the types the predicates take."""
    return all(isinstance(x, (int, Fraction)) for x in p)


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


def matrix_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    return len(_eliminate(rows)[1])


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


def _bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination.

    Each step divides exactly by the previous pivot, so every entry stays
    an integer minor of the input; the rows are reduced in place.
    """
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pk = pivot_row[k]
        for row in rows[k + 1:]:
            rk = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pk - rk * pivot_row[j]) // prev
        prev = pk
    return sign * rows[-1][-1] if n else 1


def integer_normal(points: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Primitive normal of the affine span of m integer points in Z^m.

    Component c is (-1)^c times the minor of the (m-1) x m edge matrix
    (rows p - p_0) without column c.  The minors all vanish exactly when
    the points span no hyperplane, and then the result is None.  The
    normalization is ``affine_hyperplane``'s, so for integer points the two
    give the same normal.
    """
    m = len(points[0])
    if len(points) != m:
        raise ValueError("need exactly target-dimension many points")
    p0 = points[0]
    edges = [[x - y for x, y in zip(p, p0)] for p in points[1:]]
    minors = [
        (-1) ** c * _bareiss_det([row[:c] + row[c + 1:] for row in edges])
        for c in range(m)
    ]
    if not any(minors):
        return None
    return _primitive(minors)
