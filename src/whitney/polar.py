"""Exact simplexwise-linear maps and Euler-singularity (polar) chains.

A map to R^(i+1) is nondegenerate when the image of every i-simplex spans
an affine hyperplane that misses all of its link-vertex images.  The
coefficient of an i-simplex S in the singularity chain Sigma(f) is a(S)
minus the weighted Euler integral of its upper half-link, mod 2: a sum
over the cofaces T = S * U, each adding (-1)^dim U a(T) when U lies wholly
on the upper side.  With a = 1 this is 1 - chi(upper half-link).
Sigma(f) is defined for any constructible function; the function being
Euler is what makes it a cycle, so only the entry points that promise a
class (``euler_singularity_chain`` here, the CLI and ``sw``) test that,
once, on the function they were given.

The singularity chain of the moment map of a barycentric subdivision,
for an Euler function, is a carrier chain: the i-flags S of K' whose
carrier has the function odd.  ``moment_chain`` reads it from the i-flags
alone, building no K' and taking no dual; it is the one carrier reader,
behind ``polar --moment`` and ``sw.sw_representative``, which test the
function for being Euler themselves.  ``moment_map`` under the general
path (``polar_chain``, and ``polar_census`` for half-link reports and
parity checks) is the closed form's oracle.

A generic projection is found by testing seeded candidates until one is
nondegenerate.  Each of its N = 1 + |K_i| + (i + 2)|K_(i+1)| conditions (a
basis of full rank, f(S) spanning a hyperplane, a link vertex w off it) is a
nonzero polynomial of degree <= i + 1 in the basis entries, as S * w is
affinely independent; entries drawn from [-B, B], B = 128 (i + 1) N, make a
candidate fail with probability below 1/256 (Schwartz-Zippel).
``sample_generic_subspace`` decides each candidate by
``polar_chain``, which hands the census's side test (``_side_test``) to
``upper_star_chain``, the one sum of a(T) mod 2 over the upper cofaces,
and builds no report; it is the chain of every given map too, and the
sampler returns the map it accepted with its chain.  ``polar_census``
builds the half-link reports alone, which the CLI adds only under
``--report`` and writes in one pass by ``fileio.dump_half_links``, with no
dict per report; the tests read the census's chain, a(S) - chi_plus mod 2
at each report, as the oracle of ``polar_chain`` and ``moment_chain``.
``_side_test`` raises the one ``DegenerateMapError``, naming the simplex
and the reason.  Chain readers take a as given: only its parity counts.

Geometry is integer from the complex on.  The census needs only the side
of each link vertex relative to the hyperplane through f(S), and a
positive rescaling of the target keeps every side and every primitive
normal, so an ``AffineVertexMap`` holds integer images over one positive
``scale``: rational coordinates are cleared once per complex
(``SimplicialComplex.integer_coordinates``), a projection takes integer
dot products with a basis cleared by one common lcm, and every side is the
sign of an integer.  No float and no Fraction arithmetic enters any
predicate; a report's offset is still the exact rational <normal, f(p_0)>,
built once as ``Fraction(level, scale)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Mapping, Optional, Sequence

from .calculus import RING_Z2, ConstructibleFunction, constant, is_euler_function, reduce_mod2
from .errors import CalculusError, DegenerateMapError, NotEulerError, PolarError
from .exactlin import clear_denominators, integer_normal, is_rational_point, matrix_rank
from .homology import Mod2Chain
from .simplicial import Simplex, SimplicialComplex, Subdivision


@dataclass(frozen=True)
class AffineVertexMap:
    """Vertex images in R^(target_dim): the map sends v to images[v] / scale.

    The images are integers and the scale a positive integer, so rational
    images are cleared once (``exactlin.clear_denominators``) where they
    enter.
    """

    domain: SimplicialComplex
    target_dim: int
    images: Mapping[str, tuple[int, ...]]
    scale: int = 1

    def __post_init__(self):
        if self.target_dim < 1:
            raise PolarError("target dimension must be at least 1")
        if not isinstance(self.scale, int) or self.scale < 1:
            raise PolarError(f"scale must be a positive int, got {self.scale!r}")
        missing = [v for v in self.domain.vertices if v not in self.images]
        if missing:
            raise PolarError(f"missing images for vertices {missing}")
        if len(self.images) != len(self.domain.vertices):
            vertices = set(self.domain.vertices)
            extra = sorted(v for v in self.images if v not in vertices)
            raise PolarError(f"imaged vertices {extra} are not in the domain")
        for v, p in self.images.items():
            if len(p) != self.target_dim:
                raise PolarError(f"image of {v!r} has wrong dimension")
            if not all(isinstance(x, int) for x in p):
                raise PolarError(f"image of {v!r} must be ints, got {list(p)}")


@dataclass(frozen=True)
class HalfLinkCell:
    """Census entry for one link simplex."""

    link_simplex: Simplex
    positive_cell: bool   # open part strictly on the positive side
    negative_cell: bool
    zero_cell: bool       # slice by the hyperplane (vertices on both sides)
    weight: int           # function value on the joined simplex


@dataclass(frozen=True)
class HalfLinkReport:
    simplex: Simplex
    normal: tuple[int, ...]
    offset: Fraction
    cells: tuple[HalfLinkCell, ...]
    chi_plus: int
    chi_minus: int


def _side_test(f: AffineVertexMap, s: Simplex) -> tuple[tuple[int, ...], int, set[str]]:
    """(normal, level, upper link vertices) of s under f.

    The normal is the primitive integer normal of f(s) and the level
    <normal, images[s_0]>; a link vertex w, the new vertex of an
    (i+1)-coface, is upper when <normal, images[w]> exceeds the level.
    Raises DegenerateMapError, naming s and the reason, when f(s) spans no
    hyperplane or a link vertex maps into it (the first such vertex in
    canonical order).
    """
    images = f.images
    normal = integer_normal([images[v] for v in s])
    if normal is None:
        raise DegenerateMapError(
            f"map is degenerate at simplex {list(s)}: its image spans no hyperplane", offender=s
        )
    level = sum(map(mul, normal, images[s[0]]))
    n = len(s) + 1
    upper = set()
    flat = []
    for t in f.domain.cofaces[s]:
        if len(t) == n:
            (w,) = set(t).difference(s)
            h = sum(map(mul, normal, images[w])) - level
            if h > 0:
                upper.add(w)
            elif h == 0:
                flat.append(w)
    if flat:
        raise DegenerateMapError(
            f"map is degenerate at simplex {list(s)}: "
            f"link vertex {min(flat)!r} maps into its hyperplane",
            offender=s,
        )
    return normal, level, upper


def half_link_report(a: ConstructibleFunction, s: Simplex, f: AffineVertexMap) -> HalfLinkReport:
    """Weighted Euler integrals of both half-links of s under f.

    Each link simplex U has an open cell on each side where some vertex
    of U lies, and a hyperplane slice (dim U - 1) when its vertices lie on
    both sides; the report lists these cells, weighted by a(T) on the
    coface T = s * U.  A two-sided U adds its open cell and its slice to
    the integral of each side, and the two cancel, so chi_plus is the sum
    of (-1)^dim U a(T) over the cofaces T of s whose U lies wholly on the
    positive side (chi_minus likewise): read from k.cofaces[s].  Sides
    come from ``_side_test``.  Raises DegenerateMapError when f(s) spans
    no hyperplane or a link vertex of s maps into it.
    """
    k = f.domain
    if a.base != k:
        raise PolarError("function is not based on the map's domain")
    s = k.require(tuple(sorted(s)))
    if len(s) != f.target_dim:
        raise PolarError(
            f"simplex {list(s)} has dimension {len(s) - 1}, expected {f.target_dim - 1}"
        )
    normal, level, upper = _side_test(f, s)
    # (U, T) for each coface T = S * U, sorted into the canonical order of the link
    joins = sorted((tuple(v for v in t if v not in s), t) for t in k.cofaces[s] if t != s)
    cells = []
    chi_plus = 0
    chi_minus = 0
    for u, t in joins:
        pos = not upper.isdisjoint(u)
        neg = not upper.issuperset(u)
        weight = a(t)
        d = len(u) - 1
        if not neg:
            chi_plus += (-1) ** d * weight
        if not pos:
            chi_minus += (-1) ** d * weight
        cells.append(HalfLinkCell(u, pos, neg, pos and neg, weight))
    if a.ring == RING_Z2:
        chi_plus %= 2
        chi_minus %= 2
    return HalfLinkReport(s, normal, Fraction(level, f.scale), tuple(cells), chi_plus, chi_minus)


def is_nondegenerate(f: AffineVertexMap) -> tuple[bool, Optional[Simplex]]:
    """The chain pass of f with the zero function; returns the first offender."""
    try:
        polar_chain(f, constant(f.domain, 0, RING_Z2))
    except DegenerateMapError as e:
        return False, e.offender
    return True, None


def polar_census(f: AffineVertexMap, a: ConstructibleFunction) -> tuple[HalfLinkReport, ...]:
    """Half-link reports of f over every i-simplex, in canonical order.

    A map to R^(i+1) has its singularities on the i-simplices, so i is
    f.target_dim - 1.  Each report tests nondegeneracy and gives chi_plus,
    so a(S) - chi_plus mod 2 is the coefficient of S in Sigma(f), which
    ``polar_chain`` computes without the reports.  Raises
    DegenerateMapError at the first degenerate simplex in canonical order.
    """
    a2 = reduce_mod2(a)
    return tuple(half_link_report(a2, s, f) for s in f.domain.level(f.target_dim - 1))


def upper_star_chain(
    a: ConstructibleFunction, i: int, upper: Callable[[Simplex], set[str]]
) -> Mod2Chain:
    """The i-simplices S where a sums to an odd number over the cofaces inside S + upper(S).

    ``upper(S)`` returns a fresh set of S's upper link vertices, which this
    extends by S.  Mod 2 that sum is a(S) - chi_plus_S(a), as the sign
    (-1)^dim U drops out: ``polar_chain`` takes the upper side from a map's
    side test, ``sw.base_representative`` from a rank-parity rule.  Only the
    parity of a counts.  S runs over K_i in canonical order.
    """
    values, cofaces = a.values, a.base.cofaces
    support = []
    for s in a.base.level(i):
        up = upper(s)
        up.update(s)
        if sum(map(values.__getitem__, filter(up.issuperset, cofaces[s]))) % 2:
            support.append(s)
    return Mod2Chain(i, frozenset(support))


def polar_chain(f: AffineVertexMap, a: ConstructibleFunction) -> Mod2Chain:
    """Singularity chain Sigma(f) of a: a(S) - chi_plus_S(a) mod 2 at each i-simplex S.

    ``upper_star_chain`` with the upper link vertices of the side test of
    S's report (``_side_test``); no cell, report or Fraction is built.  The
    chain is defined for any function a; a being Euler is what makes it a
    cycle, and callers that promise a class test that themselves.  Raises
    DegenerateMapError at the first degenerate simplex in canonical order,
    as the census does.
    """
    if a.base != f.domain:
        raise PolarError("function is not based on the map's domain")
    return upper_star_chain(a, f.target_dim - 1, lambda s: _side_test(f, s)[2])


def euler_singularity_chain(f: AffineVertexMap, a: ConstructibleFunction) -> Mod2Chain:
    """Singularity chain of an Euler function a: a(S) - chi_plus_S(a) mod 2 at each i-simplex.

    A degenerate map is reported before a non-Euler function.
    """
    chain = polar_chain(f, a)
    if not is_euler_function(a):
        raise NotEulerError("singularity chain requires an Euler function")
    return chain


def moment_map(sub: Subdivision, i: int) -> AffineVertexMap:
    """Barycenter of each k-simplex goes to the integer point (k, k^2, ..., k^(i+1))."""
    if not 0 <= i <= sub.base.dim:
        raise PolarError(f"i={i} out of range for a {sub.base.dim}-complex")
    images = {}
    for v in sub.complex.vertices:
        k = len(sub.carriers[v]) - 1
        images[v] = tuple(k ** (j + 1) for j in range(i + 1))
    return AffineVertexMap(sub.complex, i + 1, images)


def moment_chain(sub: Subdivision, a: ConstructibleFunction, i: int) -> Mod2Chain:
    """The i-flags of sub whose carrier has a odd: Sigma of ``moment_map(sub, i)`` for an Euler a.

    A flag S = s_0 < ... < s_i of dimensions k_0 < ... < k_i has census
    normal (c_1, ..., c_(i+1)) of p(t) = prod_j (t - k_j), signed by sigma,
    the sign of its first nonzero entry; a link vertex w is up when
    sigma p(dim carrier(w)) > 0.  First, sigma = (-1)^i: c_1 = (-1)^i e_i(k),
    and e_i > 0 as the k_j are distinct non-negative integers.  So a
    dimension is up iff an odd number of the k_j lie below it: the gap from
    s_j to s_(j+1) for even j, and above s_i for even i.  Last, the cofaces
    T of S with every new vertex up insert one chain into each such gap,
    independently, out of Fubini(n) = 1 mod 2 in a gap of rank n.  So
    a(carrier T) summed over them is a(s_i) for odd i and dual(a)(s_i) for
    even i, and both are a(s_i) when a is Euler: then this chain is
    ``polar_chain(moment_map(sub, i), subdivide_function(sub, a))``.
    Whether a is Euler is not tested here.
    """
    if not 0 <= i <= sub.base.dim:
        raise PolarError(f"i={i} out of range for a {sub.base.dim}-complex")
    if a.base != sub.base:
        raise CalculusError("function is not based on the subdivision's base")
    return Mod2Chain(i, frozenset(s for s, carrier in sub.flags(i).items() if a(carrier) % 2))


def projection_map(
    k: SimplicialComplex, basis: Sequence[Sequence[int | Fraction]]
) -> AffineVertexMap:
    """x -> (<b_1, x>, ..., <b_m, x>) on the vertex coordinates.

    Differs from orthogonal projection onto span(basis) by an invertible
    change of target coordinates, which the mod 2 chain cannot see.  The
    basis is cleared by one common lcm, not row by row: scaling one row
    alone would change the primitive normals of the reports.
    """
    if k.coordinates is None:
        raise PolarError("complex has no coordinates; cannot project")
    n = k.ambient_dim
    basis = [tuple(b) for b in basis]
    for b in basis:
        if len(b) != n:
            raise PolarError("basis vector has wrong ambient dimension")
        if not is_rational_point(b):
            raise PolarError(f"basis vector must be ints or Fractions, got {list(b)}")
    if matrix_rank(basis) != len(basis):
        raise PolarError("basis vectors are linearly dependent")
    scale, ints = clear_denominators(basis)
    return _project(k, ints, scale)


def _project(
    k: SimplicialComplex, basis: Sequence[tuple[int, ...]], scale: int = 1
) -> AffineVertexMap:
    """``projection_map`` for the integer basis / scale, already checked to be independent."""
    coordinate_scale, coords = k.integer_coordinates
    images = {v: tuple(sum(map(mul, b, coords[v])) for b in basis) for v in k.vertices}
    return AffineVertexMap(k, len(basis), images, coordinate_scale * scale)


_MAX_RETRIES = 200


def sample_generic_subspace(
    a: ConstructibleFunction, rank: int, seed: int
) -> tuple[AffineVertexMap, Mod2Chain]:
    """A nondegenerate projection f on a seeded integer basis, and its chain Sigma(f).

    `a` is any function on a complex with coordinates; each candidate map
    projects that complex onto `rank` seeded integer covectors and is
    decided by its `polar_chain`, so the accepted map comes back with its
    singularity chain; its half-link reports, when wanted, are
    ``polar_census(f, a)``.  Whether `a` is Euler is not tested here.  The
    stream is Python's Mersenne Twister seeded with `seed`; identical
    (seed, complex) pairs give identical maps.  Every entry is drawn from
    [-B, B], B = 128 rank N for the N conditions of the module docstring,
    so a candidate fails with probability below 1/256.
    """
    k = a.base
    if k.coordinates is None:
        raise PolarError("complex has no coordinates; cannot sample a subspace")
    n = k.ambient_dim
    if not 1 <= rank <= n:
        raise PolarError(f"rank {rank} out of range for ambient dimension {n}")
    conditions = 1 + len(k.level(rank - 1)) + (rank + 1) * len(k.level(rank))
    bound = 128 * rank * conditions
    rng = random.Random(seed)
    last = None
    for _ in range(_MAX_RETRIES):
        basis = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(rank)]
        if matrix_rank(basis) != rank:
            continue
        f = _project(k, basis)
        try:
            return f, polar_chain(f, a)
        except DegenerateMapError as e:
            last = e
    raise PolarError(f"no nondegenerate basis in {_MAX_RETRIES} tries; last candidate: {last}")
