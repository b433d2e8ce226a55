"""The barycentric subdivision the flag walk of ``Subdivision`` is checked against.

The library's former construction, kept in the tests as an oracle: it
builds the flags ending at each simplex bottom-up over every face of the
simplex, collects all of K' at once, and names, carries and places each
barycenter itself.  It shares no code with ``whitney.simplicial`` beyond
the ``SimplicialComplex`` container it returns.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from whitney.simplicial import Simplex, SimplicialComplex


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
