"""``is_boundary`` at i = 0 and the rank of C_1 -> C_0, read off the spanning forest, against the mask oracle.

The forest must be Kruskal's over the edges in canonical order: its edges
are then the pivot columns of the boundary matrix, and the witness is the
one the elimination gives.  The cases are every corpus space, K' of the
sd^1 rungs of the benchmark ladder, and a complex of four components, one
of them an isolated vertex.  Each gets 0-chains that are even in every
component (they bound) and odd in one (they do not).  Those odd in one
hold an odd number of vertices in all, and are refused before level 1 is
sorted or closed.
"""

import random

import pytest

import gf2_oracle
from whitney import homology as hom
from whitney.homology import Mod2Chain
from whitney.simplicial import SimplicialComplex, barycentric_subdivision, build_complex

RUNGS = ("torus_7", "rp2_6", "wedge_spheres", "pinched_torus")


def _components(k):
    """Vertex -> the least vertex of its component, by a search over the edges."""
    nbrs = {v: set() for (v,) in k.level(0)}
    for a, b in k.level(1):
        nbrs[a].add(b)
        nbrs[b].add(a)
    least = {}
    for v in sorted(nbrs):
        if v in least:
            continue
        least[v], todo = v, [v]
        while todo:
            for u in nbrs[todo.pop()] - least.keys():
                least[u] = v
                todo.append(u)
    return least


def _chains(k, rng):
    """0-chains even in every component of k, then odd in one: a random one, and all of k's vertices."""
    least = _components(k)
    out = []
    # the second odd chain is odd at the last vertex, on the last case an isolated one
    for picked, odd_at in (({v for v in least if rng.random() < 0.5}, rng.choice(sorted(least))),
                           (set(least), max(least))):
        for v in set(least.values()):
            if sum(least[u] == v for u in picked) % 2:
                picked ^= {v}
        out += [picked, picked ^ {odd_at}]
    return [Mod2Chain(0, frozenset((v,) for v in vs)) for vs in out]


def _oracle_ranks(k):
    return tuple(gf2_oracle.MaskGf2System(gf2_oracle.boundary_columns(k, d)[0]).rank if d else 0
                 for d in range(k.dim + 1))


@pytest.fixture(scope="module")
def expected(corpus, subdivisions):
    """(case, k, its chains with the oracle's verdict and witness, the oracle's ranks), read before any patch."""
    cases = [(name, entry.complex) for name, entry in corpus.items()]
    cases += [((name, "sd2"), barycentric_subdivision(subdivisions[name].complex).complex)
              for name in RUNGS]
    # a filled triangle, a hollow one, a path and an isolated vertex
    listed = [["1", "2", "3"], ["4", "5"], ["4", "6"], ["5", "6"], ["p", "q"], ["q", "r"], ["z"]]
    cases.append(("four_components", build_complex(sorted({v for s in listed for v in s}), listed)))
    rng = random.Random(5)
    return [(case, k, [(c, gf2_oracle.is_boundary(k, c)) for c in _chains(k, rng)], _oracle_ranks(k))
            for case, k in cases]


def _mismatches(expected, ranks_up_to=None):
    """The cases where ``is_boundary`` or ``betti_mod2`` disagrees with the oracle."""
    out = []
    for case, k, chains, ranks in expected:
        if any(hom.is_boundary(k, c) != want for c, want in chains):
            out.append((case, "is_boundary"))
        if ranks_up_to is None or k.dim <= ranks_up_to:
            if hom.betti_mod2(k).ranks != ranks:
                out.append((case, "betti_mod2"))
    return out


def test_forest_matches_the_mask_oracle(expected):
    for case, _k, chains, _ranks in expected:
        verdicts = [want[0] for _c, want in chains]
        assert verdicts == [True, False, True, False], case
    assert _mismatches(expected) == []


def test_a_forest_in_set_order_fails(expected, monkeypatch):
    level = SimplicialComplex.level
    monkeypatch.setattr(SimplicialComplex, "level",
                        lambda k, d: tuple(frozenset(level(k, 1))) if d == 1 else level(k, d))
    found = _mismatches(expected)
    # components, and so verdicts and ranks, do not depend on the order; the witnesses do
    assert found and {what for _case, what in found} == {"is_boundary"}


def test_no_elimination_in_dimension_one(expected, monkeypatch):
    def refuse(columns):
        raise AssertionError("GF(2) elimination in dimension 1")

    monkeypatch.setattr(hom, "Gf2System", refuse)
    assert _mismatches(expected, ranks_up_to=1) == []
    assert sum(k.dim == 1 for _case, k, _chains, _ranks in expected) >= 5


def test_an_odd_number_of_vertices_is_refused_before_level_one_is_sorted(expected, monkeypatch):
    level = SimplicialComplex.level

    def unsorted(k, d):
        if d == 1:
            raise AssertionError("level 1 sorted")
        return level(k, d)

    def unclosed(k, d):
        if d >= 1:
            raise AssertionError(f"level {d} closed")
        return level(k, d)

    odd = [(k, c) for _case, k, chains, _ranks in expected for c, _want in chains
           if len(c.support) % 2]
    # the same complexes again, with no level closed
    fresh = [(SimplicialComplex(k.maximal(), k.coordinates), c) for k, c in odd]
    monkeypatch.setattr(SimplicialComplex, "level", unsorted)
    assert len(odd) == 2 * len(expected)
    assert all(hom.is_boundary(k, c) == (False, None) for k, c in odd)
    # nor is level 1 closed: the complex has one, by its dimension, and level 0 is
    # read off the listed simplices
    monkeypatch.setattr(SimplicialComplex, "level", unclosed)
    assert all(hom.is_boundary(k, c) == (False, None) for k, c in odd + fresh)
