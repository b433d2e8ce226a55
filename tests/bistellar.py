"""Random re-triangulations by bistellar moves, for the invariance properties.

A bistellar move on a face A whose link is the boundary of a simplex B
that is not in the complex replaces the star A * dB by dA * B.  Both are
PL balls with the boundary dA * dB, and the rest of the complex meets the
star in that boundary alone, so the move changes the triangulation and
keeps the PL type, on a singular space as on a manifold.  When A is a
maximal simplex its link is empty, the boundary of a point: B is a new
vertex and the move is a stellar subdivision of A.  When B is a simplex
and A a vertex, the move removes that vertex.
"""

from itertools import combinations

from hypothesis import strategies as st

from whitney.simplicial import build_complex


def _proper_faces(s):
    """The nonempty proper faces of s, its boundary complex."""
    return {f for n in range(1, len(s)) for f in combinations(s, n)}


def moves(simplices, new_vertex):
    """The (A, B) of every bistellar move on the simplex set, A in canonical order.

    A maximal A is stellarly subdivided at ``new_vertex``.
    """
    cofaces = {s: [] for s in simplices}
    for s in simplices:
        for f in _proper_faces(s):
            cofaces[f].append(s)
    out = []
    for a in sorted(simplices):
        link = {tuple(v for v in s if v not in a) for s in cofaces[a]}
        if not link:
            out.append((a, (new_vertex,)))
            continue
        b = tuple(sorted({v for s in link for v in s}))
        if b not in cofaces and link == _proper_faces(b):
            out.append((a, b))
    return out


def apply_move(simplices, a, b):
    """The simplex set with the star A * dB replaced by dA * B."""
    removed = {tuple(sorted(a + beta)) for beta in _proper_faces(b) | {()}}
    added = {tuple(sorted(alpha + b)) for alpha in _proper_faces(a) | {()}}
    return (simplices - removed) | added


def flipped(data, k, n_moves):
    """k after ``n_moves`` bistellar moves drawn by hypothesis; new vertices are n0, n1, ..."""
    simplices = set(k.simplices)
    for j in range(n_moves):
        a, b = data.draw(st.sampled_from(moves(simplices, f"n{j}")))
        simplices = apply_move(simplices, a, b)
    vertices = sorted({v for s in simplices for v in s})
    return build_complex(vertices, simplices)
