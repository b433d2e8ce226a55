"""Mod 2 chains and homology over a fixed complex.

Boundary operators, cycle/boundary decision procedures with exact
witnesses, GF(2) Betti numbers and fundamental cycles.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, compress, repeat
from typing import Iterable, Optional

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
    level = k.level_set(c.dim)
    if not c.support <= level:
        s = min(c.support - level)
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


def betti_mod2(k: SimplicialComplex) -> HomologySummary:
    """Exact mod 2 Betti numbers by GF(2) elimination."""
    top = k.dim
    ranks = [0] * (top + 2)
    for d in range(1, top + 1):
        ranks[d] = _boundary_system(k, d)[0].rank
    betti = tuple(
        len(k.level_set(d)) - ranks[d] - ranks[d + 1] for d in range(top + 1)
    )
    return HomologySummary(tuple(ranks[: top + 1]), betti)


def _even_in_each_component(k: SimplicialComplex, c: Mod2Chain) -> bool:
    """Whether every connected component of k holds an even number of c's vertices.

    A 0-chain bounds exactly then: a path inside a component joins its
    vertices in pairs.  Components come from union-find over the edges.
    """
    parent = {v: v for v in k.vertices}

    def root(v: str) -> str:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for a, b in k.level_set(1):
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[ra] = rb
    counts = Counter(map(root, itertools.chain.from_iterable(c.support)))
    return not any(map((1).__and__, counts.values()))


def is_boundary(
    k: SimplicialComplex, c: Mod2Chain
) -> tuple[bool, Optional[Mod2Chain]]:
    """Decide whether the cycle c bounds; if so, the witness x with boundary x = c.

    The verdict needs no elimination when k has no (i+1)-simplices (a
    nonzero cycle never bounds) or when i = 0 (a 0-chain bounds exactly when
    each connected component holds an even number of its vertices).  The
    witness is always the one ``Gf2System.solve`` gives on the boundary
    matrix with its columns in canonical order: the solution supported on
    the columns that are not sums of earlier ones.  ``solve`` takes c's rows
    and gives the witness's columns, as positions in levels i and i + 1.
    """
    _check_chain(k, c)
    if c.dim > 0 and facet_sum(c):
        raise HomologyError("is_boundary requires a cycle")
    if not c:
        return True, Mod2Chain(c.dim + 1, frozenset())
    if not k.level_set(c.dim + 1) or (c.dim == 0 and not _even_in_each_component(k, c)):
        return False, None
    system, rows = _boundary_system(k, c.dim + 1)
    columns = system.solve(map(rows.__getitem__, c.support))
    if columns is None:
        return False, None
    return True, Mod2Chain(c.dim + 1, frozenset(map(k.level(c.dim + 1).__getitem__, columns)))


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
    c = Mod2Chain(d, k.level_set(d))
    if not is_cycle(k, c):
        raise HomologyError("top-dimensional chain is not a cycle mod 2")
    return c
