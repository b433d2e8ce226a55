"""Combinatorial calculus of constructible functions.

A constructible function assigns a value (integer, or 0/1 in mod 2 mode)
to every open simplex of a fixed complex.  The Euler integral, duality
and pushforward are one signed sum of (-1)^dim s * a(s), written once over
the integers and reduced mod 2 once, where the function is built.  They are
cross-checked elsewhere against the link formula and a fiber oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import CalculusError, ComplexError
from .simplicial import Simplex, SimplicialComplex, SimplicialMap, Subdivision, is_face_closed

RING_Z = "Z"
RING_Z2 = "Z2"


@dataclass(frozen=True)
class ConstructibleFunction:
    """Total assignment open simplex -> coefficient in the tagged ring."""

    base: SimplicialComplex
    ring: str
    values: Mapping[Simplex, int]

    def __post_init__(self):
        if self.ring not in (RING_Z, RING_Z2):
            raise CalculusError(f"unknown ring tag {self.ring!r}")
        if self.values.keys() != self.base.simplex_set:
            raise CalculusError("values must cover every simplex exactly once")
        if self.ring == RING_Z2 and any(v not in (0, 1) for v in self.values.values()):
            raise CalculusError("mod 2 values must be 0 or 1")

    def __call__(self, s: Simplex) -> int:
        return self.values[s]


def _function(k: SimplicialComplex, ring: str, vals: Mapping[Simplex, int]) -> ConstructibleFunction:
    """The function with these values, reduced mod 2 in Z2 mode."""
    if ring == RING_Z2:
        vals = {s: v % 2 for s, v in vals.items()}
    return ConstructibleFunction(k, ring, vals)


def constant(k: SimplicialComplex, value: int = 1, ring: str = RING_Z) -> ConstructibleFunction:
    return _function(k, ring, {s: value for s in k.simplices})


def from_values(k: SimplicialComplex, values: Mapping[Simplex, int], ring: str = RING_Z) -> ConstructibleFunction:
    return _function(k, ring, {s: values.get(s, 0) for s in k.simplices})


def indicator(k: SimplicialComplex, closed_subcomplex: Iterable[Simplex], ring: str = RING_Z) -> ConstructibleFunction:
    """Value 1 on the simplices of a face-closed subset, 0 elsewhere."""
    return indicator_sum(k, [(1, closed_subcomplex)], ring)


def indicator_sum(
    k: SimplicialComplex,
    terms: Iterable[tuple[int, Iterable[Simplex]]],
    ring: str = RING_Z,
) -> ConstructibleFunction:
    """Per-simplex expansion of a sum of weighted closed indicators."""
    vals = {s: 0 for s in k.simplices}
    for coeff, closed_subcomplex in terms:
        sub = {tuple(sorted(s)) for s in closed_subcomplex}
        missing = is_face_closed(k, sub)
        if missing is not None:
            raise CalculusError(f"subcomplex is not face-closed: missing face {list(missing)}")
        for s in sub:
            vals[s] += coeff
    return _function(k, ring, vals)


def add(a: ConstructibleFunction, b: ConstructibleFunction) -> ConstructibleFunction:
    """Pointwise sum of two functions on the same complex and ring."""
    if a.base != b.base:
        raise CalculusError("functions live on different complexes")
    if a.ring != b.ring:
        raise CalculusError("functions have different ring tags")
    return _function(a.base, a.ring, {s: a(s) + b(s) for s in a.base.simplices})


def reduce_mod2(a: ConstructibleFunction) -> ConstructibleFunction:
    if a.ring == RING_Z2:
        return a
    return _function(a.base, RING_Z2, a.values)


def _signed(values: Mapping[Simplex, int]) -> dict[Simplex, int]:
    """(-1)^dim s * v on each simplex s: the sign of every sum in the calculus."""
    return {s: v if len(s) % 2 else -v for s, v in values.items()}


def chi(a: ConstructibleFunction) -> int:
    """Euler integral: the signed sum over all open simplices, reduced mod 2 in Z2 mode."""
    total = sum(_signed(a.values).values())
    return total % 2 if a.ring == RING_Z2 else total


def dual(a: ConstructibleFunction) -> ConstructibleFunction:
    """Duality operator: the signed sum over the cofaces of each open simplex, reduced mod 2 in Z2 mode."""
    k = a.base
    cofaces = k.cofaces
    signed = _signed(a.values).__getitem__
    return _function(k, a.ring, {s: sum(map(signed, cofaces[s])) for s in k.simplices})


def pushforward(f: SimplicialMap, a: ConstructibleFunction) -> ConstructibleFunction:
    """Fiberwise Euler integral over a generic point of each codomain simplex.

    The sign of t over its image u, (-1)^(dim t - dim u), is (-1)^dim t * (-1)^dim u:
    the signed values are summed per image and signed once more.
    """
    if a.base != f.domain:
        raise CalculusError("function is not based on the map's domain")
    vals = {s: 0 for s in f.codomain.simplices}
    for t, v in _signed(a.values).items():
        vals[f.image(t)] += v
    return _function(f.codomain, a.ring, _signed(vals))


def pullback(f: SimplicialMap, b: ConstructibleFunction) -> ConstructibleFunction:
    """Composition with the map: value at t is the value at f(t)."""
    if b.base != f.codomain:
        raise CalculusError("function is not based on the map's codomain")
    vals = {t: b(f.image(t)) for t in f.domain.simplices}
    return ConstructibleFunction(f.domain, b.ring, vals)


def fiber_chi_oracle(f: SimplicialMap, q: str) -> int:
    """Euler characteristic of the closed vertex fiber {t : f(t) = {q}}.

    Independent check of the pushforward closed form at vertices.
    """
    if q not in set(f.codomain.vertices):
        raise CalculusError(f"{q!r} is not a vertex of the codomain")
    fiber = [t for t in f.domain.simplices if f.image(t) == (q,)]
    return sum((-1) ** (len(t) - 1) for t in fiber)


def euler_offenders(a: ConstructibleFunction) -> list[Simplex]:
    """Simplices where the duality fixed-point condition fails mod 2: dual(a) - a is odd.

    Mod 2 the signs of ``dual`` drop out, and the cofaces of s hold s itself;
    so s offends exactly when a sums to an odd number over its other cofaces.
    ``dual`` is this closed form's oracle.
    """
    k, value = a.base, a.values.__getitem__
    return [s for s in k.simplices if (sum(map(value, k.cofaces[s])) - value(s)) % 2]


def is_euler_function(a: ConstructibleFunction) -> bool:
    """True iff the mod 2 reduction is fixed by the duality operator."""
    return not euler_offenders(a)


@dataclass(frozen=True)
class EulerSpaceReport:
    is_euler: bool
    offenders: tuple[Simplex, ...]


def is_euler_space(k: SimplicialComplex) -> EulerSpaceReport:
    """Euler-space test: every simplex link has even Euler characteristic.

    By coface parity: t -> t - s maps the cofaces of s (s included) onto the
    simplices of Lk(s) and the empty one, so their number is 1 + chi(Lk(s)),
    and dual(1)(s), mod 2; s offends when it is even.  The general path,
    ``euler_offenders(constant(k, 1, RING_Z2))``, is this closed form's oracle.
    """
    offenders = tuple(s for s in k.simplices if len(k.cofaces[s]) % 2 == 0)
    return EulerSpaceReport(not offenders, offenders)


def subdivide_function(sub: Subdivision, a: ConstructibleFunction) -> ConstructibleFunction:
    """The same function on the subdivided complex, via carriers.

    Each open simplex of the subdivision lies inside the open simplex of
    its carrier, so the carrier pullback represents the identical function
    on the underlying space.
    """
    if a.base != sub.base:
        raise CalculusError("function is not based on the subdivision's base")
    vals = {s: a(carrier) for i in range(sub.base.dim + 1) for s, carrier in sub.flags(i).items()}
    return ConstructibleFunction(sub.complex, a.ring, vals)


def link_dual_oracle(k: SimplicialComplex, closed_subcomplex: Iterable[Simplex], s: Simplex) -> int:
    """(-1)^dim(s) * (1 - chi(Lk(s, X))) for s in the closed set X.

    Independent link-formula evaluation of the dual of an indicator.
    """
    sub = {tuple(sorted(t)) for t in closed_subcomplex}
    s = tuple(sorted(s))
    if s not in sub:
        raise ComplexError(f"simplex {list(s)} is not in the complex")
    # the link by its definition, scanning X; dual() reads cofaces instead
    lk = [t for t in sub if set(s).isdisjoint(t) and tuple(sorted(s + t)) in sub]
    return (-1) ** (len(s) - 1) * (1 - sum((-1) ** (len(t) - 1) for t in lk))
