import random
from fractions import Fraction

import fraction_oracle
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from whitney import exactlin


def test_integer_normal_of_a_point_on_the_line():
    assert exactlin.integer_normal([(7,)]) == (1,)


def test_integer_normal_needs_one_point_per_coordinate():
    with pytest.raises(ValueError):
        exactlin.integer_normal([(0, 0), (1, 0), (0, 1)])


def test_integer_normal_below_four_points_runs_no_elimination(monkeypatch):
    def refuse(rows):
        raise AssertionError("Bareiss elimination for a closed-form normal")

    monkeypatch.setattr(exactlin, "_bareiss", refuse)
    assert exactlin.integer_normal([(7,)]) == (1,)
    assert exactlin.integer_normal([(1, 2), (4, -4)]) == (2, 1)
    assert exactlin.integer_normal([(1, 2), (1, 2)]) is None
    assert exactlin.integer_normal([(0, 0, 0), (2, 0, 0), (0, 0, 3)]) == (0, 1, 0)
    assert exactlin.integer_normal([(0, 0, 0), (1, 2, 3), (2, 4, 6)]) is None
    assert exactlin.affine_hyperplane([(0, 0, 1), (Fraction(1, 2), 0, 1), (0, 1, 1)]) == (
        (0, 0, 1), Fraction(1))


def test_integer_normal_needs_row_swaps():
    # the first edge is zero in column 0, so Bareiss must pivot on the second
    assert exactlin.integer_normal([(0, 0, 0), (0, 1, 0), (1, 0, 0)]) == (0, 0, 1)


def _rank_deficient(rng, rows, cols, rank, entry):
    """rows x cols of the given rank at most: a product of rows x rank and rank x cols,
    with one row and one column then zeroed now and then."""
    left = [[entry() for _ in range(rank)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(rank)]
    m = [[sum(left[i][t] * right[t][j] for t in range(rank)) for j in range(cols)]
         for i in range(rows)]
    if rng.random() < 0.5:
        m[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.5:
        j = rng.randrange(cols)
        for r in m:
            r[j] = 0
    return m


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_matrix_rank_matches_sympy(kind):
    rng = random.Random(11)
    if kind == "int":
        def entry():
            return rng.randint(-3, 3)
    else:
        def entry():
            return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    ranks = set()
    for _ in range(400):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _rank_deficient(rng, rows, cols, rng.randint(0, min(rows, cols)), entry)
        expected = sympy.Matrix(m).rank()
        assert exactlin.matrix_rank(m) == expected, m
        if kind == "int":
            assert exactlin.integer_rank(m) == expected, m
        ranks.add((expected, min(rows, cols)))
    # full and deficient ranks, the zero matrix included, all occur
    assert any(r < n for r, n in ranks) and any(r == n for r, n in ranks) and (0, 1) in ranks


def test_matrix_rank_skips_zero_columns():
    # column 0 is zero below the first pivot, so elimination must skip it
    assert exactlin.matrix_rank([[0, 0, 1], [0, 2, 3], [0, 4, 6]]) == 2
    assert exactlin.matrix_rank([[0, 0], [0, 0]]) == 0
    assert exactlin.matrix_rank([]) == 0
    assert exactlin.integer_rank([[0, 0, 1], [0, 2, 3], [0, 4, 6]]) == 2
    assert exactlin.integer_rank([]) == 0


@st.composite
def rational_point_sets(draw):
    """m points in Q^m; the last is sometimes moved onto the first, or
    onto the line through the first two."""
    m = draw(st.integers(1, 4))
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    points = draw(st.lists(st.tuples(*[coord] * m), min_size=m, max_size=m))
    move = draw(st.sampled_from(["none", "coincident", "collinear"]))
    if m >= 2 and move == "coincident":
        points[-1] = points[0]
    elif m >= 3 and move == "collinear":
        t = draw(coord)
        points[-1] = tuple(x + t * (y - x) for x, y in zip(points[0], points[1]))
    return points


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(rational_point_sets())
def test_integer_normal_matches_fraction_hyperplane(points):
    scale, ints = exactlin.clear_denominators(points)
    normal = exactlin.integer_normal(ints)
    plane = fraction_oracle.affine_hyperplane(points)
    if plane is None:
        assert normal is None
    else:
        assert normal == plane[0]
        assert Fraction(sum(x * y for x, y in zip(normal, ints[0])), scale) == plane[1]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(rational_point_sets())
def test_affine_hyperplane_matches_fraction_oracle(points):
    assert exactlin.affine_hyperplane(points) == fraction_oracle.affine_hyperplane(points)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(rational_point_sets())
def test_affine_hyperplane_takes_integer_points(points):
    # the same plane, scaled: no int / int division on the way
    scale, ints = exactlin.clear_denominators(points)
    plane = exactlin.affine_hyperplane(points)
    expected = None if plane is None else (plane[0], plane[1] * scale)
    assert exactlin.affine_hyperplane(ints) == expected
