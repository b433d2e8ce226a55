"""Small exact linear algebra in Python integers.

Only what the geometric predicates need: ranks and the normal covector of
an affine hyperplane.  Rational input (ints or Fractions) is cleared to
integers once, by ``clear_denominators``, with one positive scale, which
changes no rank, no primitive normal and no side of a hyperplane.  One
fraction-free (Bareiss) elimination, ``_bareiss``, gives the rank: each
step divides exactly by the previous pivot, so every entry stays an
integer minor of the input.  The normal is the vector of signed maximal
minors of the edge matrix.  In target dimension m <= 3, which covers every
polar chain of the bundled spaces, ``integer_normal`` writes these minors
out (a constant, a rotated edge, a cross product); above that each is a
``_bareiss`` determinant.  The minors are the same integers either way,
so the primitive normal is too.  No float and no Fraction arithmetic
enters a predicate; matrices are tiny (at most ambient-dimension sized).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence


def is_rational_point(p: Sequence) -> bool:
    """True iff every coordinate is an int or a Fraction, the types the predicates take."""
    return all(isinstance(x, (int, Fraction)) for x in p)


def clear_denominators(
    rows: Iterable[Sequence[int | Fraction]],
) -> tuple[int, list[tuple[int, ...]]]:
    """(L, [L * row]), L the lcm of every denominator: one positive scale for all rows."""
    rows = list(rows)
    scale = lcm(*(x.denominator for r in rows for x in r))
    return scale, [tuple(x.numerator * (scale // x.denominator) for x in r) for r in rows]


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of an integer matrix, in place.

    Columns are swept left to right; a column with no nonzero entry below
    the pivots so far is skipped, so the number of pivots is the rank.
    Each step divides exactly by the previous pivot.  Returns the rank and
    the last pivot signed by the row swaps, which for a square matrix of
    full rank is its determinant (1 for the empty matrix).
    """
    n = len(rows)
    rank, sign, prev = 0, 1, 1
    for col in range(len(rows[0]) if rows else 0):
        if rows[rank][col] == 0:
            swap = next((i for i in range(rank + 1, n) if rows[i][col] != 0), None)
            if swap is None:
                continue
            rows[rank], rows[swap] = rows[swap], rows[rank]
            sign = -sign
        pivot_row = rows[rank]
        pk = pivot_row[col]
        for row in rows[rank + 1:]:
            rk = row[col]
            for j in range(col + 1, len(row)):
                row[j] = (row[j] * pk - rk * pivot_row[j]) // prev
        prev = pk
        rank += 1
        if rank == n:
            break
    return rank, sign * prev


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix, with no denominators to clear."""
    return _bareiss([list(r) for r in rows])[0]


def matrix_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    return integer_rank(clear_denominators(rows)[1])


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """Divide by the gcd and make the first nonzero entry positive."""
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    if next((x for x in ints if x != 0), 0) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def integer_normal(points: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Primitive normal of the affine span of m integer points in Z^m.

    Component c is (-1)^c times the minor of the (m-1) x m edge matrix
    (rows p - p_0) without column c.  For m <= 3 these signed minors are
    written out: (1,) for a point on the line, (q_1 - p_1, p_0 - q_0) for
    two points in the plane, and the cross product of the two edges in
    space.  Above that each minor is a ``_bareiss`` determinant.  Both give
    the same integers, so the same primitive normal.  The minors all
    vanish exactly when the points span no hyperplane, and then the result
    is None.  The normal is divided by its gcd and signed so that its first
    nonzero entry is positive.
    """
    m = len(points[0])
    if len(points) != m:
        raise ValueError("need exactly target-dimension many points")
    if m == 1:
        return (1,)
    p0 = points[0]
    if m == 2:
        (x0, y0), (x1, y1) = p0, points[1]
        minors = [y1 - y0, x0 - x1]
    elif m == 3:
        (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = p0, points[1], points[2]
        ux, uy, uz = x1 - x0, y1 - y0, z1 - z0
        vx, vy, vz = x2 - x0, y2 - y0, z2 - z0
        minors = [uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx]
    else:
        edges = [[x - y for x, y in zip(p, p0)] for p in points[1:]]
        minors = []
        for c in range(m):
            rank, det = _bareiss([row[:c] + row[c + 1:] for row in edges])
            minors.append((-1) ** c * det if rank == m - 1 else 0)
    if not any(minors):
        return None
    return _primitive(minors)


def affine_hyperplane(
    points: Sequence[Sequence[int | Fraction]],
) -> Optional[tuple[tuple[int, ...], Fraction]]:
    """Normal covector and offset of the affine span of m rational points in R^m.

    The points are cleared to integers once and the normal is
    ``integer_normal``'s; the offset c, a Fraction, satisfies
    <normal, p> = c on the plane.  Returns None unless the points affinely
    span an (m-1)-plane.
    """
    scale, ints = clear_denominators(points)
    normal = integer_normal(ints)
    if normal is None:
        return None
    return normal, Fraction(sum(x * y for x, y in zip(normal, ints[0])), scale)
