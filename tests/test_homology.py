from functools import reduce
from itertools import combinations
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gf2_oracle
import subdivision_oracle
from relabelling import flag_keys, fresh_ids, relabel
from whitney import homology as hom
from whitney import sw
from whitney.errors import HomologyError
from whitney.homology import Mod2Chain, chain
from whitney.simplicial import SimplicialComplex, barycentric_subdivision, build_complex


def sympy_betti(k):
    """Independent GF(2) rank oracle built on sympy's DomainMatrix."""
    from sympy.polys.domains import GF
    from sympy.polys.matrices import DomainMatrix

    gf2 = GF(2)
    ranks = [0] * (k.dim + 2)  # ranks[d] = rank of boundary_d
    for d in range(1, k.dim + 1):
        rows = k.level(d - 1)
        cols = k.level(d)
        if not rows or not cols:
            continue
        row_index = {s: i for i, s in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for j, s in enumerate(cols):
            for drop in range(len(s)):
                facet = s[:drop] + s[drop + 1:]
                mat[row_index[facet]][j] = 1
        dm = DomainMatrix([[gf2(x) for x in row] for row in mat], (len(rows), len(cols)), gf2)
        ranks[d] = dm.rank()
    betti = []
    for d in range(k.dim + 1):
        cycles = len(k.level(d)) - ranks[d]
        betti.append(cycles - ranks[d + 1])
    return tuple(betti)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("point", (1,)),
        ("s1_3", (1, 1)),
        ("s1_6", (1, 1)),
        ("boundary_delta3", (1, 0, 1)),
        ("delta2", (1, 0, 0)),
        ("rp2_6", (1, 1, 1)),
        ("torus_7", (1, 2, 1)),
        ("wedge_spheres", (1, 0, 2)),
        ("wedge_circles", (1, 2)),
        ("pinched_torus", (1, 1, 1)),
    ],
)
def test_betti_known_values(corpus, name, expected):
    assert hom.betti_mod2(corpus[name].complex).betti == expected


def test_betti_matches_sympy_oracle(corpus):
    for entry in corpus.values():
        assert hom.betti_mod2(entry.complex).betti == sympy_betti(entry.complex)


def test_betti_matches_sympy_oracle_on_subdivision(rp2):
    sub = barycentric_subdivision(rp2)
    assert hom.betti_mod2(sub.complex).betti == sympy_betti(sub.complex)


def test_boundary_of_boundary_vanishes(corpus):
    for entry in corpus.values():
        k = entry.complex
        for d in range(2, k.dim + 1):
            c = Mod2Chain(d, frozenset(k.level(d)))
            assert hom.boundary(k, hom.boundary(k, c)).support == frozenset()


def test_fundamental_cycle(corpus):
    fc = hom.fundamental_cycle(corpus["rp2_6"].complex)
    assert len(fc.support) == 10
    assert hom.is_cycle(corpus["rp2_6"].complex, fc)
    with pytest.raises(HomologyError):
        hom.fundamental_cycle(corpus["delta2"].complex)  # top chain is not a cycle


def test_is_boundary_with_witness(circle, sphere):
    loop = chain(1, [["1", "2"], ["2", "3"], ["1", "3"]])
    bounds, witness = hom.is_boundary(circle, loop)
    assert not bounds and witness is None
    bounds, witness = hom.is_boundary(sphere, loop)
    assert bounds
    assert hom.boundary(sphere, witness).support == loop.support


def test_is_boundary_rejects_non_cycle(circle):
    with pytest.raises(HomologyError):
        hom.is_boundary(circle, chain(1, [["1", "2"]]))


def test_a_top_dimension_cycle_is_refused_from_the_dimension_alone(corpus, subdivisions,
                                                                   monkeypatch):
    """A nonzero cycle of the top dimension does not bound, and no level but the top is read."""
    cases = []
    for name, entry in corpus.items():
        for k in (entry.complex, subdivisions[name].complex):
            c = Mod2Chain(k.dim, k.level_set(k.dim))
            if k.dim > 0 and hom.is_cycle(k, c):
                # the same complex with no level closed
                cases.append((SimplicialComplex(k.vertices, k.maximal(), k.coordinates), c, name))
    assert len(cases) >= 10
    level_set = SimplicialComplex.level_set

    def top_only(k, d):
        if d != k.dim:
            raise AssertionError(f"level {d} closed below or above the top, {k.dim}")
        return level_set(k, d)

    monkeypatch.setattr(SimplicialComplex, "level_set", top_only)
    for k, c, name in cases:
        assert hom.is_boundary(k, c) == (False, None), name


def test_homologous(sphere):
    c1 = chain(1, [["1", "2"], ["2", "3"], ["1", "3"]])
    c2 = chain(1, [["1", "2"], ["2", "4"], ["1", "4"]])
    assert hom.homologous(sphere, c1, c2)
    assert hom.homologous(sphere, c1, c1)


def test_homologous_is_false_on_a_non_cycle(sphere):
    c1 = chain(1, [["1", "2"], ["2", "3"], ["1", "3"]])
    path = chain(1, [["1", "2"], ["2", "3"]])
    assert not hom.homologous(sphere, c1, path)
    assert not hom.homologous(sphere, path, c1)
    assert not hom.homologous(sphere, path, path)


def test_chain_pushforward_drops_collapsed(map_suite):
    # the pushforward along a simplicial map, kept in the tests as an oracle
    by_name = {m.name: m for m in map_suite}
    fold = by_name["fold"].map
    c = chain(1, [["a", "b"], ["b", "c"]])
    # both edges map onto pq, cancelling mod 2
    assert subdivision_oracle.chain_pushforward(fold, c).support == frozenset()
    collapse = by_name["collapse_s1_3"].map
    c = chain(1, [["1", "2"]])
    assert subdivision_oracle.chain_pushforward(collapse, c).support == frozenset()


def test_deterministic_witness(sphere):
    loop = chain(1, [["1", "2"], ["2", "3"], ["1", "3"]])
    w1 = hom.is_boundary(sphere, loop)[1]
    w2 = hom.is_boundary(sphere, loop)[1]
    assert w1.support == w2.support


def _assert_witness(k, c, bounds, witness):
    """A witness, when there is one, is a (dim c + 1)-chain of k with boundary c."""
    if bounds:
        assert witness.dim == c.dim + 1 and hom.boundary(k, witness).support == c.support
    else:
        assert witness is None


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(["rp2_6", "torus_7", "wedge_spheres", "pinched_torus"]),
       data=st.data())
def test_is_boundary_verdict_invariant_under_relabelling(corpus, subdivisions, name, data):
    k = corpus[name].complex
    new = fresh_ids(data, k)
    sub, sub2 = subdivisions[name], barycentric_subdivision(relabel(k, new))
    flag, flag2 = flag_keys(sub, sub2, new)
    verdicts = []
    for i in range(k.dim + 1):
        c, c2 = sw.stiefel_chain(sub, i), sw.stiefel_chain(sub2, i)
        assert {flag(s) for s in c.support} == {flag2(s) for s in c2.support}
        (bounds, witness), (bounds2, witness2) = (
            hom.is_boundary(sub.complex, c), hom.is_boundary(sub2.complex, c2))
        assert bounds == bounds2
        _assert_witness(sub.complex, c, bounds, witness)
        _assert_witness(sub2.complex, c2, bounds2, witness2)
        verdicts.append(bounds)
    # s_0 is chi(K) points mod 2 on a connected space: it bounds only on the torus (chi = 0)
    assert verdicts[0] == (name == "torus_7")


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_witness_bounds_random_boundaries(corpus, subdivisions, data):
    name = data.draw(st.sampled_from(sorted(n for n, e in corpus.items() if e.complex.dim >= 1)))
    kp = subdivisions[name].complex
    d = data.draw(st.integers(1, kp.dim))
    x = Mod2Chain(d, frozenset(data.draw(st.sets(st.sampled_from(kp.level(d))))))
    c = hom.boundary(kp, x)
    bounds, witness = hom.is_boundary(kp, c)
    assert bounds
    _assert_witness(kp, c, bounds, witness)


def _cycle_space(k, i):
    """Masks over k.level(i) spanning the i-cycles: vertices at i = 0, else the oracle's kernel."""
    if i == 0:
        return [1 << j for j in range(len(k.level_set(0)))]
    return gf2_oracle.MaskGf2System(gf2_oracle.boundary_columns(k, i)[0]).kernel


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_is_boundary_matches_mask_oracle(data):
    # on each of two vertex pools, the d-skeleton of a simplex plus some of its
    # (d+1)-faces: cycles that bound and cycles that do not, top-dimensional
    # ones, and at d = 0 a random graph; the second pool, when drawn, is
    # another component
    listed = []
    for pool, least in ((["a", "b", "c", "d", "e"], 1), (["p", "q", "r", "s", "t"], 0)):
        vs = pool[:data.draw(st.integers(least, len(pool)))]
        if not vs:
            continue
        d = data.draw(st.integers(0, min(2, len(vs) - 1)))
        listed += combinations(vs, d + 1)
        if len(vs) > d + 1:
            listed += data.draw(st.lists(st.sampled_from(list(combinations(vs, d + 2)))))
    k = build_complex(sorted({v for s in listed for v in s}), listed)
    for i in range(k.dim + 1):
        basis = _cycle_space(k, i)
        masks = data.draw(st.lists(st.sampled_from(basis), min_size=1, max_size=4)) if basis else []
        x = reduce(xor, masks, 0)
        c = Mod2Chain(i, frozenset(s for j, s in enumerate(k.level(i)) if x >> j & 1))
        result = hom.is_boundary(k, c)
        assert result == gf2_oracle.is_boundary(k, c)
        _assert_witness(k, c, *result)


def test_errors_name_the_least_bad_simplex_of_a_set(circle, subdivisions):
    # a set has no order of its own, so a message names its least bad simplex in canonical order
    from whitney.errors import ComplexError
    from whitney.simplicial import is_face_closed

    foreign = Mod2Chain(1, frozenset({("3", "6"), ("1", "4"), ("2", "5")}))
    with pytest.raises(HomologyError, match=r"^chain simplex \['1', '4'\] is not in the complex$"):
        hom.boundary(circle, foreign)
    with pytest.raises(ComplexError, match=r"^simplex \['1', '4'\] is not in the complex$"):
        sw.subdivision_chain_map(subdivisions["s1_3"], foreign)
    with pytest.raises(HomologyError,
                       match=r"^chain simplex \['1', '4'\] is not in the subdivision$"):
        sw.last_vertex_chain_map(subdivisions["s1_3"], foreign)
    with pytest.raises(HomologyError, match=r"^simplex \['1'\] has dimension 0, chain has 1$"):
        Mod2Chain(1, frozenset({("3",), ("1", "2"), ("1",), ("2",)}))
    with pytest.raises(ComplexError, match=r"^simplex \['1', '9'\] is not in the complex$"):
        is_face_closed(circle, {("1",), ("9",), ("1", "9")})
    assert is_face_closed(circle, {("2", "3"), ("1", "2")}) == ("1",)
    assert is_face_closed(circle, {("2", "3"), ("2",), ("3",)}) is None
