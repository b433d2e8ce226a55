"""The barycentric subdivision the flag walk of ``Subdivision`` is checked against.

The library's former construction, kept in the tests as an oracle: it
builds the flags ending at each simplex bottom-up over every face of the
simplex, collects all of K' at once, and names, carries and places each
barycenter itself.  It shares no code with ``whitney.simplicial`` beyond
the ``SimplicialComplex`` and ``SimplicialMap`` containers it returns and
the ``validate_map`` check of a subdivided map.

With it, the library's former pushforward one level up: the subdivided
map f' on K', and the push of a chain along a simplicial map.  They are the
oracle for the pushforward axiom, which the library now decides in the
codomain itself, on class representatives read in closed form on the base.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from whitney.homology import Mod2Chain
from whitney.simplicial import Simplex, SimplicialComplex, SimplicialMap, validate_map


def _faces(s: Simplex) -> list[Simplex]:
    out = []
    for k in range(1, len(s) + 1):
        out.extend(combinations(s, k))
    return out


def _barycenter_name(s: Simplex) -> str:
    return "b(" + ",".join(s) + ")"


def barycentric_subdivision(k: SimplicialComplex) -> tuple[SimplicialComplex, dict[str, Simplex]]:
    """K' on the strict flags of k, with its carriers."""
    names = {s: _barycenter_name(s) for s in k.simplices}
    # flags ending at a given simplex, built up the face poset
    flags_at: dict[Simplex, list[tuple[Simplex, ...]]] = {}
    for s in sorted(k.simplices, key=lambda t: (len(t), t)):
        fl: list[tuple[Simplex, ...]] = [(s,)]
        for f in _faces(s):
            if f != s:
                fl.extend(sub + (s,) for sub in flags_at[f])
        flags_at[s] = fl
    simplices = set()
    for fls in flags_at.values():
        for fl in fls:
            simplices.add(tuple(sorted(names[t] for t in fl)))
    coords = None
    if k.coordinates is not None:
        coords = {}
        for s in k.simplices:
            pts = [k.coordinates[v] for v in s]
            coords[names[s]] = tuple(
                sum(col, Fraction(0)) / len(pts) for col in zip(*pts)
            )
    prime = SimplicialComplex(
        tuple(sorted(names.values())), tuple(sorted(simplices)), coords
    )
    carriers = {names[s]: s for s in k.simplices}
    return prime, carriers


def induced_subdivided_map(f: SimplicialMap) -> SimplicialMap:
    """f': K' -> L', sending b(s) to b(f(s)), on the subdivisions built here."""
    dom, _ = barycentric_subdivision(f.domain)
    cod, _ = barycentric_subdivision(f.codomain)
    vm = {_barycenter_name(s): _barycenter_name(f.image(s)) for s in f.domain.simplices}
    return validate_map(dom, cod, vm)


def chain_pushforward(f: SimplicialMap, c: Mod2Chain) -> Mod2Chain:
    """Images f(S) summed mod 2, dropping dimension-collapsing simplices."""
    out: set[Simplex] = set()
    for s in c.support:
        if s not in f.domain.simplex_set:
            raise AssertionError(f"chain simplex {list(s)} is not in the domain")
        img = f.image(s)
        if len(img) == len(s):
            out.symmetric_difference_update({img})
    return Mod2Chain(c.dim, frozenset(out))
