"""The face closure, the facet sum and the boundary columns against naive versions.

Each oracle walks subsets by bit mask or drops one vertex at a time, one
simplex after another, so it shares no iteration with the code it checks.
Vertex ids contain commas, so a simplex is never mistaken for its joined key.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitney import homology as hom
from whitney.gf2 import Gf2System
from whitney.homology import Mod2Chain
from whitney.simplicial import build_complex

IDS = ["a", "b", "a,b", ",", "b,", ",c", "c", "d,e,f", "é", "z"]


def _naive_closure(listed):
    out = set()
    for raw in listed:
        s = sorted(raw)
        for mask in range(1, 2 ** len(s)):
            out.add(tuple(v for j, v in enumerate(s) if mask >> j & 1))
    return out


def _naive_facets(s):
    return [s[:j] + s[j + 1:] for j in range(len(s))]


def _naive_boundary(support):
    out = set()
    for s in support:
        for f in _naive_facets(s):
            out ^= {f}
    return out


# up to five vertices a simplex, so up to dimension 4; listed in any order, faces listed too
_LISTED = st.lists(
    st.lists(st.sampled_from(IDS), min_size=1, max_size=5, unique=True).map(
        lambda s: list(reversed(s))), min_size=1, max_size=8)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(listed=_LISTED)
def test_face_closure_matches_all_faces_oracle(listed):
    vertices = sorted({v for s in listed for v in s})
    k = build_complex(vertices, listed)
    closure = _naive_closure(listed)
    assert k.simplices == tuple(sorted(closure))
    assert {d: k.level(d) for d in range(k.dim + 1)} == {
        d: tuple(sorted(s for s in closure if len(s) == d + 1))
        for d in range(max(map(len, closure)))
    }


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(listed=_LISTED, data=st.data())
def test_boundary_matches_per_facet_toggle(listed, data):
    k = build_complex(sorted({v for s in listed for v in s}), listed)
    d = data.draw(st.integers(0, k.dim))
    c = Mod2Chain(d, frozenset(data.draw(st.sets(st.sampled_from(k.level(d))))))
    expected = _naive_boundary(c.support)
    # a 0-simplex has the one empty facet (), so a 0-chain's boundary counts its vertices mod 2
    assert hom.boundary(k, c) == Mod2Chain(d - 1, frozenset(expected))
    assert hom.facet_sum(c) == expected
    assert hom.is_cycle(k, c) == (d == 0 or not expected)


@pytest.mark.parametrize("name", ["torus_7", "rp2_6", "wedge_spheres", "pinched_torus"])
def test_boundary_columns_match_facet_rows(monkeypatch, subdivisions, name):
    k = subdivisions[name].complex
    seen = []
    # the columns arrive as a generator of row iterators: keep lists of them and pass those on
    monkeypatch.setattr(hom, "Gf2System", lambda columns: seen.append(list(map(list, columns)))
                        or Gf2System(seen[-1]))
    for d in range(1, k.dim + 1):
        _system, rows = hom._boundary_system(k, d)
        assert rows == {s: j for j, s in enumerate(k.level(d - 1))}
        for s, column in zip(k.level(d), seen[-1], strict=True):
            assert column == [rows[f] for f in combinations(s, d)]
            assert sorted(column) == sorted(rows[f] for f in _naive_facets(s))
