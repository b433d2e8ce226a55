"""Mod 2 chains and homology over a fixed complex.

Boundary operators, cycle/boundary decision procedures with exact
witnesses, GF(2) Betti numbers and fundamental cycles.  In dimension 1 the
boundary matrix is a graph's incidence matrix, solved on a spanning forest;
``gf2`` eliminates the boundary matrices of dimension 2 and up.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, compress, repeat
from typing import Callable, Iterable, Optional

from .errors import HomologyError
from .gf2 import Gf2System
from .simplicial import Simplex, SimplicialComplex, impure_simplex


@dataclass(frozen=True)
class Mod2Chain:
    """GF(2) formal sum of same-dimension simplices (coefficient 1 each)."""

    dim: int
    support: frozenset[Simplex]

    def __post_init__(self):
        if set(map(len, self.support)) - {self.dim + 1}:
            s = min(s for s in self.support if len(s) - 1 != self.dim)
            raise HomologyError(
                f"simplex {list(s)} has dimension {len(s) - 1}, chain has {self.dim}"
            )

    def __add__(self, other: "Mod2Chain") -> "Mod2Chain":
        if self.dim != other.dim:
            raise HomologyError("cannot add chains of different dimensions")
        return Mod2Chain(self.dim, self.support ^ other.support)

    def __bool__(self) -> bool:
        return bool(self.support)

    def sorted_support(self) -> list[Simplex]:
        return sorted(self.support)


def chain(dim: int, simplices: Iterable[Iterable[str]]) -> Mod2Chain:
    return Mod2Chain(dim, frozenset(tuple(sorted(s)) for s in simplices))


def _check_chain(k: SimplicialComplex, c: Mod2Chain) -> None:
    level = k.level(c.dim)
    if not c.support <= level:
        s = min(c.support.difference(level))
        raise HomologyError(f"chain simplex {list(s)} is not in the complex")


def facet_sum(c: Mod2Chain) -> frozenset[Simplex]:
    """Support of the mod 2 sum of the facets of c's simplices: the facets met an odd number of times.

    Reads no complex.  A 0-simplex has the one empty facet ``()``.
    """
    counts = Counter(itertools.chain.from_iterable(map(combinations, c.support, repeat(c.dim))))
    return frozenset(compress(counts, map((1).__and__, counts.values())))


def boundary(k: SimplicialComplex, c: Mod2Chain) -> Mod2Chain:
    """Mod 2 sum of facets of the support simplices."""
    _check_chain(k, c)
    return Mod2Chain(c.dim - 1, facet_sum(c))


def is_cycle(k: SimplicialComplex, c: Mod2Chain) -> bool:
    _check_chain(k, c)
    return c.dim == 0 or not facet_sum(c)


def _boundary_system(k: SimplicialComplex, d: int) -> tuple[Gf2System, dict[Simplex, int]]:
    """The boundary matrix C_d -> C_{d-1} in canonical order, with the row of each (d-1)-simplex.

    Each column reaches ``Gf2System`` as its facets' rows, from a generator, so each is freed once reduced.
    """
    rows = {s: i for i, s in enumerate(k.level(d - 1))}
    row = rows.__getitem__
    return Gf2System(map(row, combinations(s, d)) for s in k.level(d)), rows


@dataclass(frozen=True)
class HomologySummary:
    """Per-dimension boundary ranks and mod 2 Betti numbers."""

    ranks: tuple[int, ...]   # ranks[d] = rank of boundary C_d -> C_{d-1}
    betti: tuple[int, ...]


def _spanning_forest(k: SimplicialComplex) -> tuple[list[Simplex], Callable[[str], str]]:
    """The pivot columns of the boundary matrix C_1 -> C_0, and the root of each vertex's tree.

    An edge is a sum of earlier edges exactly when a path of them already
    joins its ends, so the pivot columns are Kruskal's forest: the edges
    that union-find over ``k.level(1)`` sees join two components.
    """
    parent = dict(zip(k.vertices, k.vertices))

    def root(v: str) -> str:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    forest = []
    for e in k.level(1):
        a, b = map(root, e)
        if a != b:
            parent[a] = b
            forest.append(e)
    return forest, root


def betti_mod2(k: SimplicialComplex) -> HomologySummary:
    """Exact mod 2 Betti numbers.

    The rank of C_1 -> C_0 is the size of the spanning forest, |V| minus the
    number of components; the higher ranks come from GF(2) elimination.
    """
    top = k.dim
    ranks = [0] * (top + 2)
    if top >= 1:
        ranks[1] = len(_spanning_forest(k)[0])
    for d in range(2, top + 1):
        ranks[d] = _boundary_system(k, d)[0].rank
    betti = tuple(
        len(k.level(d)) - ranks[d] - ranks[d + 1] for d in range(top + 1)
    )
    return HomologySummary(tuple(ranks[: top + 1]), betti)


def _forest_witness(k: SimplicialComplex, c: Mod2Chain) -> Optional[frozenset[Simplex]]:
    """The edges x of the spanning forest with boundary x = c, a 0-chain; None if there are none.

    A tree holding an odd number of c's vertices has none, so an odd number
    of them in all has none, and that is decided before level 1 is closed.
    Otherwise x is peeled from the leaves up: an edge is in x exactly when
    the subtree below it holds an odd number of c's vertices.  The forest
    is the greedy basis of C_1, so this is the one solution supported on
    it, the witness ``Gf2System.solve`` gives.
    """
    if len(c.support) & 1:
        return None
    forest, root = _spanning_forest(k)
    vertices = list(itertools.chain.from_iterable(c.support))
    counts = Counter(map(root, vertices))
    if any(map((1).__and__, counts.values())):
        return None
    tree: dict[str, list[tuple[str, Simplex]]] = {}
    for e in forest:
        a, b = e
        tree.setdefault(a, []).append((b, e))
        tree.setdefault(b, []).append((a, e))
    odd, witness = set(vertices), set()
    # vertex -> (the vertex above it, the edge between them); None at each root
    above: dict[str, Optional[tuple[str, Simplex]]] = dict.fromkeys(counts)
    for top in counts:
        order = [top]
        for v in order:
            for u, e in tree.get(v, ()):
                if u not in above:
                    above[u] = v, e
                    order.append(u)
        for v in reversed(order[1:]):
            if v in odd:
                u, e = above[v]
                witness.add(e)
                odd ^= {u}
    return frozenset(witness)


def is_boundary(
    k: SimplicialComplex, c: Mod2Chain
) -> tuple[bool, Optional[Mod2Chain]]:
    """Decide whether the cycle c bounds; if so, the witness x with boundary x = c.

    When k has no (i+1)-simplices, i = dim k, a nonzero cycle never bounds;
    that is read off ``k.dim``, so no level above i is closed.  The witness
    is always the one ``Gf2System.solve`` would give on the boundary matrix
    with its columns in canonical order: the solution supported on the
    columns that are not sums of earlier ones.  At i = 0 those columns are
    the spanning forest, and the witness is read off it from the leaves up.
    Above, ``solve`` takes c's rows and gives the witness's columns, as
    positions in levels i and i + 1.
    """
    _check_chain(k, c)
    if c.dim > 0 and facet_sum(c):
        raise HomologyError("is_boundary requires a cycle")
    if not c:
        return True, Mod2Chain(c.dim + 1, frozenset())
    if c.dim == k.dim:
        return False, None
    if c.dim == 0:
        edges = _forest_witness(k, c)
        return (False, None) if edges is None else (True, Mod2Chain(1, edges))
    system, rows = _boundary_system(k, c.dim + 1)
    columns = system.solve(map(rows.__getitem__, c.support))
    if columns is None:
        return False, None
    return True, Mod2Chain(c.dim + 1, frozenset(map(tuple(k.level(c.dim + 1)).__getitem__, columns)))


def homologous(k: SimplicialComplex, c1: Mod2Chain, c2: Mod2Chain) -> bool:
    """Both chains are cycles and their sum bounds; a chain that is not a cycle is homologous to nothing."""
    if c1.dim != c2.dim:
        raise HomologyError("chains of different dimensions are never homologous")
    return is_cycle(k, c1) and is_cycle(k, c2) and is_boundary(k, c1 + c2)[0]


def fundamental_cycle(k: SimplicialComplex) -> Mod2Chain:
    """Sum of all top simplices of a pure-dimensional complex, when a cycle."""
    d = k.dim
    if d < 0:
        raise HomologyError("empty complex has no fundamental cycle")
    s = impure_simplex(k)
    if s is not None:
        raise HomologyError(f"complex is not pure-dimensional: {list(s)} has no top coface")
    c = Mod2Chain(d, frozenset(k.level(d)))
    if not is_cycle(k, c):
        raise HomologyError("top-dimensional chain is not a cycle mod 2")
    return c
