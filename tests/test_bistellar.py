"""The classes are topological invariants: random bistellar moves change no decision.

Each space is re-triangulated by a random sequence of bistellar moves
(``bistellar.flipped``), which keeps its PL type, singular spaces included.
The Euler test, the mod 2 Betti numbers and, for every i, whether the
closed-form representative R_i(1) on K bounds must come out as on the
space itself, also after the flipped space is relabelled.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistellar import apply_move, flipped, moves
from relabelling import fresh_ids, relabel
from whitney import calculus as cal
from whitney import homology as hom
from whitney import sw
from whitney.simplicial import build_complex


def _decisions(k):
    ones = cal.constant(k, 1)
    classes = tuple(hom.is_boundary(k, sw.base_representative(k, ones, i))[0]
                    for i in range(k.dim + 1))
    return cal.is_euler_space(k).is_euler, hom.betti_mod2(k).betti, classes


@pytest.mark.parametrize("name", ["torus_7", "rp2_6", "boundary_delta3", "pinched_torus",
                                  "wedge_spheres", "wedge_circles"])
@settings(max_examples=6, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_decisions_survive_bistellar_moves(corpus, name, data):
    k = corpus[name].complex
    k2 = flipped(data, k, data.draw(st.integers(1, 40)))
    expected = _decisions(k)
    assert _decisions(k2) == expected
    # moves compose with relabelling: fresh ids change the canonical order, not the decisions
    assert _decisions(relabel(k2, fresh_ids(data, k2))) == expected


def test_moves_on_the_boundary_of_a_tetrahedron():
    # on dDelta^3 the simplex B a vertex or an edge link bounds is already a face, so only
    # the stellar subdivisions of the four triangles are moves
    k = build_complex("1234", [s for s in ("123", "124", "134", "234")])
    simplices = set(k.simplices)
    found = moves(simplices, "x")
    assert found == [(t, ("x",)) for t in sorted(k.level(2))]
    # a stellar subdivision followed by the removal of its new vertex is the identity
    a = ("1", "2", "3")
    after = apply_move(simplices, a, ("x",))
    assert (("x",), a) in moves(after, "y")
    assert apply_move(after, ("x",), a) == simplices
