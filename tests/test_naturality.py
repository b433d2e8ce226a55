"""Naturality on random vertex quotients: f_* w_i(a) ~ w_i(f_* a) for maps drawn at random.

Any vertex map q: V(K) -> W is simplicial onto the complex L of the images
of K's maximal simplices, so every draw of q is a map to check.  The maps
are drawn over corpus spaces, their K' and bistellar-flipped copies, with
the constant 1 (on Euler spaces) and random Euler functions.  Each is
checked through ``verify_pushforward_axiom`` and against the oracle one
level up: the pushforward of ``sw_representative`` into the codomain's K',
decided there by elimination.  A composite of two quotients must agree
with ``compose``, and the collapse to a point must read w_0 = chi(a) mod 2.
The bundled map suite, whose domains are all 1-dimensional, is checked
elsewhere.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subdivision_oracle
from bistellar import flipped
from whitney import calculus as cal
from whitney import homology as hom
from whitney import sw, verify
from whitney.simplicial import Subdivision, build_complex, compose, validate_map

SPACES = ["torus_7", "rp2_6", "pinched_torus", "wedge_spheres", "boundary_delta3", "bowtie"]


@st.composite
def vertex_quotients(draw, k, prefix="w"):
    """The map of k onto L = build_complex of the images of ``k.maximal()``, for a random q.

    q sends each vertex to one of prefix0, ..., prefix(n-1), n drawn from 1 to
    |V(K)|; L's vertices are its image, so q is onto them.  q is drawn from a
    seed, since Hypothesis's simplest lists of targets would collapse K.
    """
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = rng.randint(1, len(k.vertices))
    q = {v: f"{prefix}{rng.randrange(n)}" for v in k.vertices}
    images = [sorted({q[v] for v in s}) for s in k.maximal()]
    return validate_map(k, build_complex(sorted(set(q.values())), images), q)


def _space(data, corpus, subdivisions, name):
    """The corpus space, its K' or a bistellar-flipped copy, as drawn."""
    kind = data.draw(st.sampled_from(["sd0", "sd1", "flipped"]))
    k = corpus[name].complex
    if kind == "sd1":
        return subdivisions[name].complex
    if kind == "flipped":
        return flipped(data, k, data.draw(st.integers(1, 6)))
    return k


def _functions(data, k):
    """1 if k is an Euler space, and a random Euler function."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    ones = cal.constant(k, 1, cal.RING_Z2)
    return ([ones] if cal.is_euler_function(ones) else []) + [verify.random_euler_function(rng, k)]


@pytest.mark.parametrize("name", SPACES)
@settings(max_examples=4, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_the_axiom_holds_on_random_quotients_and_matches_the_oracle(corpus, subdivisions,
                                                                    name, data):
    k = _space(data, corpus, subdivisions, name)
    f = data.draw(vertex_quotients(k))
    fp = subdivision_oracle.induced_subdivided_map(f)
    sd, sc = Subdivision(f.domain), Subdivision(f.codomain)
    for a in _functions(data, k):
        fa = cal.pushforward(f, a)
        assert cal.is_euler_function(fa)
        for i in range(k.dim + 1):
            lhs = subdivision_oracle.chain_pushforward(fp, sw.sw_representative(sd, a, i))
            rhs = (sw.sw_representative(sc, fa, i) if i <= f.codomain.dim
                   else hom.Mod2Chain(i, frozenset()))
            assert hom.homologous(fp.codomain, lhs, rhs), (f.vertex_map, i)
            assert sw.verify_pushforward_axiom(f, a, i), (f.vertex_map, i)


@pytest.mark.parametrize("name", SPACES)
@settings(max_examples=3, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_composite_of_quotients_agrees_with_compose(corpus, subdivisions, name, data):
    k = _space(data, corpus, subdivisions, name)
    f = data.draw(vertex_quotients(k))
    g = data.draw(vertex_quotients(f.codomain, "u"))
    gf = compose(g, f)
    assert gf.vertex_map == {v: g.vertex_map[f.vertex_map[v]] for v in k.vertices}
    assert validate_map(k, g.codomain, gf.vertex_map) == gf
    functions = _functions(data, k)
    # over Z the fiber integrals carry signs, which mod 2 would hide
    for a in [cal.constant(k, 1)] + functions:
        assert cal.pushforward(gf, a) == cal.pushforward(g, cal.pushforward(f, a))
    for a in functions:
        for i in range(k.dim + 1):
            assert sw.verify_pushforward_axiom(gf, a, i), (gf.vertex_map, i)


@pytest.mark.parametrize("name", SPACES)
@settings(max_examples=2, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_the_collapse_to_a_point_reads_w0_as_chi_mod_2(corpus, subdivisions, name, data):
    k = _space(data, corpus, subdivisions, name)
    point = build_complex(["*"], [["*"]])
    f = validate_map(k, point, dict.fromkeys(k.vertices, "*"))
    ones = cal.constant(k, 1)
    assert cal.pushforward(f, ones).values == {("*",): cal.chi(ones)}
    for a in _functions(data, k):
        chi = cal.chi(a)
        fa = cal.pushforward(f, a)
        assert fa.values == {("*",): chi}
        assert len(sw.base_representative(point, fa, 0).support) == chi
        assert len(sw.base_representative(k, a, 0).support) % 2 == chi
        assert all(sw.verify_pushforward_axiom(f, a, i) for i in range(k.dim + 1))
