"""Stiefel chains and Stiefel-Whitney class representatives.

The canonical representative of the i-th class of an Euler function a is
the Euler-singularity chain of the moment map on the barycentric
subdivision, which is the carrier chain of a: the i-flags S with
a(carrier S) odd, read by ``polar.moment_chain`` once a is known to be
Euler.  For the constant function 1 that is the sum of all i-simplices of
the subdivision, the Stiefel chain.  The representative, the Stiefel
chain and sd# read only the i-flags (``Subdivision.flags``).

The last-vertex map pi: K' -> K sends b(s) to the last vertex of s in
the canonical order; it is a simplicial approximation of the identity,
so pi# is an isomorphism in homology, and pi# sd# = id on chains.  So a
cycle c of K' bounds exactly when pi#(c) bounds in K.  Classes on K are
read in closed form: ``base_representative`` is pi# of the representative,
the upper-star sum of ``polar.upper_star_chain`` on the cofaces of K, with
no subdivision and no flag.  ``last_vertex_chain_map`` maps any chain of K'
to K through the carriers.  Every reader takes its function as given, with
any integer values: only their parity counts.
"""

from __future__ import annotations

from bisect import bisect

from .calculus import ConstructibleFunction, is_euler_function, pushforward
from .errors import CalculusError, HomologyError, NotEulerError
from .homology import Mod2Chain, homologous
from .polar import moment_chain, upper_star_chain
from .simplicial import SimplicialComplex, SimplicialMap, Subdivision


def stiefel_chain(sub: Subdivision, i: int) -> Mod2Chain:
    """Sum of all i-simplices of the barycentric subdivision."""
    if not 0 <= i <= sub.base.dim:
        raise HomologyError(f"i={i} out of range for a {sub.base.dim}-complex")
    return Mod2Chain(i, frozenset(sub.flags(i)))


def sw_representative(sub: Subdivision, a: ConstructibleFunction, i: int) -> Mod2Chain:
    """Canonical chain representative of the i-th class of an Euler function.

    The singularity chain of the moment map on the subdivision, read as a
    carrier chain by ``polar.moment_chain``: the i-flags S with
    a(carrier S) odd.  Duality commutes with subdivision, so the function
    is Euler exactly when its subdivision is; it is tested once, here, on
    the base, before the range of i and the base of the function.  Linear
    in the function, and equal to the Stiefel chain when the function is
    identically 1.
    """
    if not is_euler_function(a):
        raise NotEulerError("Stiefel-Whitney representatives require an Euler function")
    if not 0 <= i <= sub.base.dim:
        raise HomologyError(f"i={i} out of range for a {sub.base.dim}-complex")
    return moment_chain(sub, a, i)


def base_representative(k: SimplicialComplex, a: ConstructibleFunction, i: int) -> Mod2Chain:
    """pi# of the i-th representative of an Euler function, read on K itself.

    Equal to ``last_vertex_chain_map(sub, sw_representative(sub, a, i))``
    for the subdivision sub of k, with no subdivision built and no flag
    read.  A flag s_0 < ... < s_i with top sigma maps onto the i-simplex
    t = (t_0 < ... < t_i) exactly when s_j has last vertex t_j.  Such a
    flag is fixed by the step j at which each u in sigma - t enters, and
    that step needs t_j > u; so there are prod_u #{j : t_j > u} of them,
    odd exactly when every u has an odd number of t's vertices above it.
    Call such a u up.  The coefficient of t is then the sum of a(sigma)
    mod 2 over the cofaces sigma of t (t included) whose new vertices
    are all up: ``polar.upper_star_chain`` with this rank-parity rule as
    its upper set (compare Goldstein and Turner, Proc. AMS 58, 1976).  The
    checks and their order are ``sw_representative``'s.
    """
    if not is_euler_function(a):
        raise NotEulerError("Stiefel-Whitney representatives require an Euler function")
    if not 0 <= i <= k.dim:
        raise HomologyError(f"i={i} out of range for a {k.dim}-complex")
    if a.base != k:
        raise CalculusError("function is not based on the complex")
    cofaces = k.cofaces
    n = i + 1
    return upper_star_chain(a, i, lambda t: {
        u for c in cofaces[t] if len(c) == n + 1 for u in c if u not in t and (n - bisect(t, u)) % 2
    })


def subdivision_chain_map(sub: Subdivision, c: Mod2Chain) -> Mod2Chain:
    """sd#: each i-simplex S to the sum of the i-simplices of K' carried by S.

    An i-simplex of K' inside the closed i-simplex S has a flag ending at
    S, so S is its carrier; each i-simplex of K' has exactly one carrier,
    so the image of the chain is the set of i-simplices carried by its
    support.  This is the subdivision chain map.
    """
    level = sub.base.level_set(c.dim)
    if not c.support <= level:
        sub.base.require(min(c.support - level))
    return Mod2Chain(c.dim, frozenset(t for t, s in sub.flags(c.dim).items() if s in c.support))


def _push(c: Mod2Chain, vertex: dict[str, str]) -> Mod2Chain:
    """Images under a vertex map, summed mod 2; a simplex whose image repeats a vertex drops out."""
    out: set = set()
    for s in c.support:
        image = {vertex[v] for v in s}
        if len(image) == len(s):
            out.symmetric_difference_update({tuple(sorted(image))})
    return Mod2Chain(c.dim, frozenset(out))


def last_vertex_chain_map(sub: Subdivision, c: Mod2Chain) -> Mod2Chain:
    """pi#: each i-simplex of K' to the span of the last vertices of its barycenters' carriers.

    The flag s_0 < ... < s_i goes to the i-simplex of K on the last
    vertices of s_0, ..., s_i, a face of s_i, and to 0 when two of them
    are equal.  Within an i-simplex S only the flag {v_0} < {v_0, v_1} <
    ... < S keeps i + 1 distinct last vertices, so pi# sd# = id.
    """
    flags = sub.flags(c.dim)
    foreign = c.support.difference(flags)
    if foreign:
        raise HomologyError(f"chain simplex {list(min(foreign))} is not in the subdivision")
    return _push(c, {v: s[-1] for v, s in sub.carriers.items()})


def verify_pushforward_axiom(f: SimplicialMap, a: ConstructibleFunction, i: int) -> bool:
    """Pushforward compatibility of class representatives, decided in the codomain up to boundaries.

    f' sends b(s) to b(f(s)), so f'#(w_i(a)) ~ w_i(f_* a) in the
    codomain's K' exactly when pi# of both sides are homologous in the
    codomain itself.  On the right that is ``base_representative`` of f_* a.
    On the left, pi f' sends b(s) to the last vertex of f(s); f pi sends it
    to f(last vertex of s), and both land in the simplex f(s), so the two
    vertex maps are contiguous and the left side is f# of
    ``base_representative`` of a.  No subdivision is read.  Each
    representative tests its own function for being Euler; a side that is
    not a cycle fails the axiom.
    """
    fa = pushforward(f, a)
    lhs = _push(base_representative(f.domain, a, i), f.vertex_map)
    if i <= f.codomain.dim:
        rhs = base_representative(f.codomain, fa, i)
    else:
        rhs = Mod2Chain(i, frozenset())
    return homologous(f.codomain, lhs, rhs)
