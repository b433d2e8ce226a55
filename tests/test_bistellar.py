"""The classes are topological invariants: random bistellar moves change no decision.

Each space is re-triangulated by a random sequence of bistellar moves
(``bistellar.flipped``), which keeps its PL type, singular spaces included.
The Euler test, the mod 2 Betti numbers and, for every i, whether the
closed-form representative R_i(1) on K bounds must come out as on the
space itself, also after the flipped space is relabelled.  Put on the
moment curve, each flipped space is embedded, and the polar chain of a
random plane is homologous to that closed form at every i.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistellar import apply_move, flipped, moves
from relabelling import fresh_ids, relabel
from whitney import calculus as cal
from whitney import homology as hom
from whitney import polar, sw
from whitney.simplicial import build_complex

SPACES = ["torus_7", "rp2_6", "boundary_delta3", "pinched_torus", "wedge_spheres",
          "wedge_circles"]


def _decisions(k):
    ones = cal.constant(k, 1)
    classes = tuple(hom.is_boundary(k, sw.base_representative(k, ones, i))[0]
                    for i in range(k.dim + 1))
    return cal.is_euler_space(k).is_euler, hom.betti_mod2(k).betti, classes


@pytest.mark.parametrize("name", SPACES)
@settings(max_examples=6, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_decisions_survive_bistellar_moves(corpus, name, data):
    k = corpus[name].complex
    k2 = flipped(data, k, data.draw(st.integers(1, 40)))
    expected = _decisions(k)
    assert _decisions(k2) == expected
    # moves compose with relabelling: fresh ids change the canonical order, not the decisions
    assert _decisions(relabel(k2, fresh_ids(data, k2))) == expected


def _on_the_moment_curve(k):
    """k with its j-th vertex at (j, j^2, ..., j^(2n+1)), n = dim k: every simplex is independent."""
    coords = {v: tuple(j ** e for e in range(1, 2 * k.dim + 2)) for j, v in enumerate(k.vertices)}
    return build_complex(k.vertices, k.maximal(), coords)


@pytest.mark.parametrize("name", SPACES)
@settings(max_examples=3, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_random_plane_chains_match_the_closed_form_on_flipped_spaces(corpus, name, data):
    k2 = _on_the_moment_curve(flipped(data, corpus[name].complex, data.draw(st.integers(1, 40))))
    ones = cal.constant(k2, 1, cal.RING_Z2)
    seed = data.draw(st.integers(0, 2 ** 16))
    for i in range(k2.dim + 1):
        _, chain = polar.sample_generic_subspace(ones, i + 1, seed)
        assert hom.homologous(k2, chain, sw.base_representative(k2, ones, i)), i


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
