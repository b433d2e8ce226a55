from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitney import exactlin


def test_integer_normal_of_a_point_on_the_line():
    assert exactlin.integer_normal([(7,)]) == (1,)


def test_integer_normal_needs_one_point_per_coordinate():
    with pytest.raises(ValueError):
        exactlin.integer_normal([(0, 0), (1, 0), (0, 1)])


def test_integer_normal_needs_row_swaps():
    # the first edge is zero in column 0, so Bareiss must pivot on the second
    assert exactlin.integer_normal([(0, 0, 0), (0, 1, 0), (1, 0, 0)]) == (0, 0, 1)


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
    scale = lcm(*(x.denominator for p in points for x in p))
    ints = [tuple(x.numerator * (scale // x.denominator) for x in p) for p in points]
    normal = exactlin.integer_normal(ints)
    plane = exactlin.affine_hyperplane(points)
    if plane is None:
        assert normal is None
    else:
        assert normal == plane[0]
        assert Fraction(sum(x * y for x, y in zip(normal, ints[0])), scale) == plane[1]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(rational_point_sets())
def test_affine_hyperplane_takes_integer_points(points):
    # the same plane, scaled: no int / int division on the way
    scale = lcm(*(x.denominator for p in points for x in p))
    ints = [tuple(x.numerator * (scale // x.denominator) for x in p) for p in points]
    plane = exactlin.affine_hyperplane(points)
    expected = None if plane is None else (plane[0], plane[1] * scale)
    assert exactlin.affine_hyperplane(ints) == expected
