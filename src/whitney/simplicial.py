"""Finite abstract simplicial complexes.

Vertex identifiers are opaque strings; the canonical order is
lexicographic, and every enumeration in the package derives from it, so
all outputs are bit-deterministic.  Optional vertex coordinates are exact
rationals (ints or ``fractions.Fraction``s), which the predicates read
cleared to integers (``integer_coordinates``); no predicate in the package
touches floating point.

A complex is read from the simplices it was built from and nothing else.
Level d is the listed d-simplices and the d-faces of the larger listed
ones, read on first use with no other level closed, so ``bounds`` on an
i-chain reads dimensions i and i + 1 of K' alone.  One table per level
serves both order and membership: ``level(d)`` iterates in canonical order
and answers ``in`` and ``len``.  Level 0 is read from the vertices, sorted
as strings; only the top level, all of whose simplices are listed, is
sorted from its listing, which a file written here already holds in
canonical order.  The maximal simplices are the listed ones that lie in no
larger listed one.  A barycentric subdivision reads its flags
carrier by carrier, with no coface table, and lists only the full flags of
the base's maximal simplices.

Simplices are named here alone: ``simplex_key`` joins a simplex's vertex
ids with commas, function files key their values by it, and the barycenter
of s in K' is the vertex ``b(key)``.  Ids may hold commas, so two simplices
such as ("a", "b") and ("a,b",) can share a key; such a complex cannot be
named, and ``names`` and ``Subdivision.carriers`` refuse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, compress, repeat
from math import comb
from typing import Collection, Iterable, KeysView, Mapping, Optional

from .errors import ComplexError, MapError
from .exactlin import clear_denominators, integer_rank, is_rational_point

Simplex = tuple[str, ...]
Point = tuple[Fraction, ...]


def make_simplex(vertices: Iterable[str]) -> Simplex:
    """Canonicalize a vertex collection into a sorted, duplicate-free tuple."""
    vs = tuple(sorted(vertices))
    if not vs:
        raise ComplexError("a simplex needs at least one vertex")
    if len(set(vs)) != len(vs):
        raise ComplexError(f"duplicate vertex inside simplex {list(vertices)!r}")
    return vs


def simplex_key(s: Simplex) -> str:
    """s's name in files: its vertex ids joined by commas."""
    return ",".join(s)


def _distinct(named: dict[str, Simplex], simplices: Collection[Simplex]) -> dict[str, Simplex]:
    """named, one name per simplex; if it is shorter, ComplexError names the first shared key."""
    if len(named) < len(simplices):
        seen: set[str] = set()
        for key in map(simplex_key, simplices):
            if key in seen:
                raise ComplexError(f"ambiguous simplex key {key!r} in this complex")
            seen.add(key)
    return named


def faces(s: Simplex) -> list[Simplex]:
    """All nonempty faces of s, including s itself."""
    return [f for k in range(1, len(s) + 1) for f in combinations(s, k)]


@dataclass(frozen=True)
class SimplicialComplex:
    """Face closure of the simplices it is built from.

    Level d, the d-simplices, is read as ``level(d)``: one table, kept per
    level, that iterates in canonical order and answers ``in`` and ``len``.
    It is read on first use off the listing alone, as the listed d-simplices
    and the d-faces of the larger listed ones.  The top level is all listed,
    so it is sorted from its listing, and a listing already in canonical
    order costs one pass.  ``vertices``, the vertices of the listed
    simplices in canonical order, are read first and give level 0, and
    ``simplices`` merges the levels in canonical order.  Two complexes
    are equal when their simplices and coordinates are, and hash by their
    vertices.  ``coordinates``, when present, assigns each vertex an exact
    rational point of a common ambient dimension, with every simplex
    affinely independent.
    """

    _listed: Collection[Simplex]
    coordinates: Optional[Mapping[str, Point]] = None
    _levels: dict = field(default_factory=dict, init=False, repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        if self is other:
            return True
        return self.coordinates == other.coordinates and self.simplex_set == other.simplex_set

    def __hash__(self) -> int:
        # equal complexes have equal simplices, so equal vertices
        return hash(self.vertices)

    def _faces_of_larger(self, n: int) -> Iterable[Simplex]:
        """The n-vertex faces of the listed simplices of more than n vertices, with repeats."""
        larger = compress(self._listed, map(n.__lt__, map(len, self._listed)))
        return chain.from_iterable(map(combinations, larger, repeat(n)))

    def level(self, d: int) -> KeysView[Simplex]:
        """The d-simplices in canonical order, as a keys view that answers ``in``; empty outside 0..dim."""
        if d not in self._levels:
            if not 0 <= d <= self.dim:
                return {}.keys()
            listed = compress(self._listed, map((d + 1).__eq__, map(len, self._listed)))
            if d == 0:
                level = zip(self.vertices)
            elif d == self.dim:  # every simplex of the top level is listed
                level = sorted(listed)
            else:
                level = sorted({*listed, *self._faces_of_larger(d + 1)})
            # fromkeys drops a simplex listed twice
            self._levels[d] = dict.fromkeys(level).keys()
        return self._levels[d]

    @cached_property
    def vertices(self) -> tuple[str, ...]:
        """The vertices of the listed simplices in canonical order; level 0 is read from them."""
        return tuple(sorted(set(chain.from_iterable(self._listed))))

    @cached_property
    def simplices(self) -> tuple[Simplex, ...]:
        # timsort merges the sorted levels
        return tuple(sorted(chain.from_iterable(map(self.level, range(self.dim + 1)))))

    def maximal(self) -> list[Simplex]:
        """The listed simplices that lie in no larger listed one, in canonical order.

        Read off the listing, closing no level: a complex listed at one size
        reads nothing but the sizes.
        """
        sizes = set(map(len, self._listed))
        return sorted(set(self._listed).difference(*map(self._faces_of_larger, sizes)))

    def names(self) -> dict[str, Simplex]:
        """simplex_key(s) -> s, over the simplices in canonical order.

        Raises ComplexError naming the first key that two simplices share.
        """
        return _distinct(dict(zip(map(simplex_key, self.simplices), self.simplices)),
                         self.simplices)

    @cached_property
    def simplex_set(self) -> frozenset[Simplex]:
        return frozenset().union(*map(self.level, range(self.dim + 1)))

    @cached_property
    def dim(self) -> int:
        """Max simplex dimension; -1 for the empty complex."""
        return max(map(len, self._listed), default=0) - 1

    @cached_property
    def cofaces(self) -> dict[Simplex, tuple[Simplex, ...]]:
        """simplex -> all simplices containing it (itself included)."""
        out: dict[Simplex, list[Simplex]] = {s: [] for s in self.simplices}
        for t in self.simplices:
            for f in faces(t):
                out[f].append(t)
        return {s: tuple(ts) for s, ts in out.items()}

    @cached_property
    def integer_coordinates(self) -> Optional[tuple[int, dict[str, tuple[int, ...]]]]:
        """(L, {v: L * coordinates[v]}), L the lcm of every coordinate denominator."""
        if self.coordinates is None:
            return None
        scale, ints = clear_denominators(self.coordinates.values())
        return scale, dict(zip(self.coordinates, ints))

    @property
    def ambient_dim(self) -> Optional[int]:
        if self.coordinates is None:
            return None
        return len(next(iter(self.coordinates.values()))) if self.coordinates else 0

    def require(self, s: Simplex) -> Simplex:
        if s not in self.level(len(s) - 1):
            raise ComplexError(f"simplex {list(s)} is not in the complex")
        return s


def _affinely_independent(points: list[tuple[int, ...]]) -> bool:
    p0 = points[0]
    return integer_rank([x - y for x, y in zip(p, p0)] for p in points[1:]) == len(points) - 1


def build_complex(
    vertex_ids: Iterable[str],
    maximal_simplices: Iterable[Iterable[str]],
    coordinates: Optional[Mapping[str, Iterable[Fraction]]] = None,
) -> SimplicialComplex:
    """The complex of the given simplices, checked; its closure waits for first use.

    The complex is its simplices; the vertex list is checked against them:
    the complex needs a simplex, every listed vertex must lie in one, and
    coordinates name listed vertices only.
    With coordinates, only the listed simplices are tested for affine
    independence, on the complex's integer coordinates: every face of an
    independent simplex is independent, and a positive scale changes no rank.
    The sum of 3^|s| over the listed simplices s, which bounds the coface
    table, may not pass 3^15.
    """
    listed = list(vertex_ids)
    vertex_set = set(listed)
    if len(vertex_set) != len(listed):
        raise ComplexError("duplicate vertex ids in vertex list")
    # every occurrence of a vertex becomes the one string in the vertex list;
    # a foreign or unhashable id fails the lookup, and an empty or repeating
    # simplex fails the size checks, after which the loop names the first bad one
    same = dict(zip(vertex_set, vertex_set)).__getitem__
    maximal = list(maximal_simplices)
    try:
        given = list(map(tuple, map(sorted, map(map, repeat(same), maximal))))
        valid = () not in given and list(map(len, given)) == list(map(len, map(set, given)))
    except (KeyError, TypeError):
        valid = False
    if not valid:
        given = []
        for raw in maximal:
            raw = list(raw)
            for v in raw:
                # ids are strings, so anything else is foreign (and may be unhashable)
                if not isinstance(v, str) or v not in vertex_set:
                    raise ComplexError(f"simplex {raw!r} references unknown vertex {v!r}")
            given.append(make_simplex(raw))
    if not given:
        raise ComplexError("a complex needs at least one simplex")
    # the closure of an n-vertex simplex holds 3^n - 2^n (face, coface) pairs
    sizes = list(map(len, given))
    weight = sum(3 ** n * sizes.count(n) for n in set(sizes))
    if weight > 3 ** 15:
        raise ComplexError(f"complex too large: the sum of 3^|s| over its listed simplices s "
                           f"is {weight}, above the cap 3^15 = {3 ** 15}")
    unused = vertex_set.difference(*given)
    if unused:
        raise ComplexError(f"vertices {sorted(unused)} lie in no simplex")
    coords = None
    if coordinates is not None:
        coords = {v: tuple(coordinates[v]) for v in sorted(vertex_set) if v in coordinates}
        missing = sorted(vertex_set.difference(coords))
        if missing:
            raise ComplexError(f"missing coordinates for vertices {missing}")
        unknown = [v for v in coordinates if v not in vertex_set]
        if unknown:
            raise ComplexError(f"coordinates given for vertices {unknown} not in the complex")
        for v, p in coords.items():
            if not is_rational_point(p):
                raise ComplexError(
                    f"coordinates of vertex {v!r} must be ints or Fractions, got {list(p)}"
                )
        dims = {len(p) for p in coords.values()}
        if len(dims) > 1:
            raise ComplexError("vertex coordinates have mixed ambient dimensions")
    k = SimplicialComplex(given, coords)
    if coords is not None:
        ints = k.integer_coordinates[1]
        for s in sorted(given):
            if not _affinely_independent([ints[v] for v in s]):
                raise ComplexError(
                    f"simplex {list(s)} is not affinely independent in the embedding"
                )
    return k


def impure_simplex(k: SimplicialComplex) -> Optional[Simplex]:
    """First simplex, in canonical order, with no top-dimensional coface; None if k is pure."""
    return next(
        (s for s in k.simplices if all(len(t) - 1 < k.dim for t in k.cofaces[s])), None
    )


def is_face_closed(k: SimplicialComplex, simplices: Iterable[Simplex]) -> Optional[Simplex]:
    """The least missing face, in canonical order, if the set is not face-closed in k, else None.

    Raises ComplexError naming the least simplex of the set that is not in k.
    """
    sset = set(simplices)
    foreign = sset - k.simplex_set
    if foreign:
        k.require(min(foreign))
    return min((f for s in sset for f in faces(s) if f not in sset), default=None)


def link(k: SimplicialComplex, s: Simplex) -> SimplicialComplex:
    """Lk(s, k) = {t : t disjoint from s and t+s in k}, with the coordinates of its own vertices.

    Read off ``k.cofaces[s]``: each link simplex is T - s for exactly one
    coface T != s, so no other simplex of k is visited.  The listing is in
    coface order, not canonical order; the link's levels are sorted like any
    complex's.
    """
    k.require(s)
    out = [tuple(v for v in t if v not in s) for t in k.cofaces[s] if t != s]
    coords = k.coordinates
    if coords is not None:
        coords = {v: coords[v] for v in sorted(set(chain.from_iterable(out)))}
    return SimplicialComplex(out, coords)


@dataclass(frozen=True)
class SimplicialMap:
    """Vertex assignment inducing a simplexwise-linear map."""

    domain: SimplicialComplex
    codomain: SimplicialComplex
    vertex_map: Mapping[str, str]

    def image(self, s: Simplex) -> Simplex:
        return tuple(sorted({self.vertex_map[v] for v in s}))


def validate_map(
    domain: SimplicialComplex,
    codomain: SimplicialComplex,
    vertex_assignment: Mapping[str, str],
) -> SimplicialMap:
    """Check that the assignment maps exactly the domain's vertices, simplices to simplices."""
    targets = set(codomain.vertices)
    for v in domain.vertices:
        if v not in vertex_assignment:
            raise MapError(f"vertex {v!r} has no image")
        if vertex_assignment[v] not in targets:
            raise MapError(f"image vertex {vertex_assignment[v]!r} is not in the codomain")
    if len(vertex_assignment) != len(domain.vertices):
        sources = set(domain.vertices)
        extra = sorted(v for v in vertex_assignment if v not in sources)
        raise MapError(f"assigned vertices {extra} are not in the domain")
    f = SimplicialMap(domain, codomain, dict(vertex_assignment))
    for s in domain.simplices:
        if f.image(s) not in codomain.simplex_set:
            raise MapError(
                f"image {list(f.image(s))} of simplex {list(s)} is not a codomain simplex"
            )
    return f


def compose(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    """g after f."""
    if f.codomain != g.domain:
        raise MapError("composition mismatch: codomain of f is not domain of g")
    vm = {v: g.vertex_map[f.vertex_map[v]] for v in f.domain.vertices}
    return SimplicialMap(f.domain, g.codomain, vm)


def _flag_template(n: int, i: int) -> list[tuple[tuple[int, int], ...]]:
    """The i-flags ending at an n-vertex simplex, each face as (size, rank among the faces of its size).

    A flag s_0 < ... < s_i = range(n) is the ordered partition of range(n)
    into the blocks s_j - s_(j-1), so there are Fubini(n) flags over all i.
    Ranks follow ``combinations``, so they index any n-vertex simplex's faces.
    """
    rank = {f: (m, r) for m in range(1, n + 1) for r, f in enumerate(combinations(range(n), m))}
    flags = [(tuple(range(n)),)] if i >= 0 else []
    for _ in range(i):
        flags = [(f,) + flag for flag in flags for f in faces(flag[0])[:-1]]
    return [tuple(map(rank.__getitem__, flag)) for flag in flags]


@dataclass(frozen=True)
class Subdivision:
    """Barycentric subdivision K' of ``base``, derived from the base on first use.

    The barycenter b(s) of each base simplex s is a vertex of K'; a set of
    them spans a simplex iff their carriers form a strict flag in the base,
    whose maximal member carries the simplex.  One dimension of K' is read,
    with the carrier of each of its simplices, without building the rest:
    carrier by carrier, with no coface table.
    """

    base: SimplicialComplex
    _flags: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def carriers(self) -> dict[str, Simplex]:
        """Barycenter name b(simplex_key(s)) -> the base simplex s it stands for.

        Read first by every other member.  The flags ending at s are the
        ordered partitions of s, so |K'| = sum_d |K_d| Fubini(d + 1); above
        2^20 this raises ComplexError before any flag is walked.  So does a
        base in which two simplices share a key, as ``names`` does.
        """
        k = self.base
        fubini = [1]
        for n in range(1, k.dim + 2):
            fubini.append(sum(comb(n, j) * fubini[n - j] for j in range(1, n + 1)))
        size = sum(len(k.level(d)) * fubini[d + 1] for d in range(k.dim + 1))
        if size > 2 ** 20:
            raise ComplexError(f"subdivision too large: it would have {size} simplices, "
                               f"above the cap 2^20 = {2 ** 20}")
        return _distinct({f"b({simplex_key(s)})": s for s in k.simplices}, k.simplices)

    def flags(self, i: int) -> dict[Simplex, Simplex]:
        """i-simplex of K' -> its carrier s_i, over the flags s_0 < ... < s_i; {} outside 0..dim.

        Read carrier by carrier, with no coface table: level by level over
        the base, each face of each carrier is named once, and the i-flags
        ending at it are read off ``_flag_template`` for its size.
        """
        if i not in self._flags:
            name = {s: v for v, s in self.carriers.items()}.__getitem__
            out: dict[Simplex, Simplex] = {}
            for d in range(i, self.base.dim + 1):
                level, template = self.base.level(d), _flag_template(d + 1, i)
                # size m -> the names of the m-faces of each carrier, carrier after carrier
                names = {m: list(map(name, chain.from_iterable(map(combinations, level, repeat(m)))))
                         for m in {m for flag in template for m, _ in flag}}
                for flag in template:
                    faces_at = (names[m][r::comb(d + 1, m)] for m, r in flag)
                    out.update(zip(map(tuple, map(sorted, zip(*faces_at))), level))
            self._flags[i] = out
        return self._flags[i]

    @cached_property
    def complex(self) -> SimplicialComplex:
        """K', each barycenter at the mean of its carrier's integer coordinates.

        K' is listed by its maximal simplices, the full flags of the maximal
        simplices of K: the entries of ``flags(d)`` whose carrier is a
        maximal d-simplex.  It reads its levels on first use, like any
        complex loaded from a file.
        """
        k = self.base
        coords = None
        if k.integer_coordinates is not None:
            scale, ints = k.integer_coordinates
            coords = {
                v: tuple(Fraction(sum(col), scale * len(s)) for col in zip(*(ints[w] for w in s)))
                for v, s in self.carriers.items()
            }
        top = set(k.maximal())
        listed = [f for n in set(map(len, top))
                  for f, s in self.flags(n - 1).items() if len(s) == n and s in top]
        return SimplicialComplex(listed, coords)


def barycentric_subdivision(k: SimplicialComplex) -> Subdivision:
    """Subdivided complex on the strict flags of k, derived lazily from k."""
    return Subdivision(k)

