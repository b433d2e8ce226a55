"""Stiefel chains and Stiefel-Whitney class representatives.

The canonical representative of the i-th class of an Euler function a is
the Euler-singularity chain of the moment map on the barycentric
subdivision, which is the carrier chain of a: the i-flags S with
a(carrier S) odd (``polar.moment_chain`` gives the closed form for any
function).  For the constant function 1 that is the sum of all
i-simplices of the subdivision, the Stiefel chain.  The representative,
the Stiefel chain and sd# read only the i-flags (``Subdivision.flags``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import (
    ConstructibleFunction,
    chi,
    is_euler_function,
    pushforward,
    reduce_mod2,
)
from .errors import CalculusError, HomologyError, NotEulerError
from .homology import Mod2Chain, chain_pushforward, homologous
from .simplicial import SimplicialMap, Subdivision, induced_subdivided_map


def stiefel_chain(sub: Subdivision, i: int) -> Mod2Chain:
    """Sum of all i-simplices of the barycentric subdivision."""
    if not 0 <= i <= sub.base.dim:
        raise HomologyError(f"i={i} out of range for a {sub.base.dim}-complex")
    return Mod2Chain(i, frozenset(sub.flags(i)))


def sw_representative(sub: Subdivision, a: ConstructibleFunction, i: int) -> Mod2Chain:
    """Canonical chain representative of the i-th class of an Euler function.

    The singularity chain of the moment map on the subdivision, read as a
    carrier chain: the i-flags S with a(carrier S) odd.  That is
    ``moment_chain`` at every i, since an Euler a equals its dual mod 2.
    Duality commutes with subdivision, so the function is Euler exactly
    when its subdivision is; it is tested once, here, on the base.  Linear
    in the function, and equal to the Stiefel chain when the function is
    identically 1.
    """
    a2 = reduce_mod2(a)
    if not is_euler_function(a2):
        raise NotEulerError("Stiefel-Whitney representatives require an Euler function")
    if not 0 <= i <= sub.base.dim:
        raise HomologyError(f"i={i} out of range for a {sub.base.dim}-complex")
    if a2.base != sub.base:
        raise CalculusError("function is not based on the subdivision's base")
    return Mod2Chain(i, frozenset(s for s, carrier in sub.flags(i).items() if a2(carrier)))


def subdivision_chain_map(sub: Subdivision, c: Mod2Chain) -> Mod2Chain:
    """sd#: each i-simplex S to the sum of the i-simplices of K' carried by S.

    An i-simplex of K' inside the closed i-simplex S has a flag ending at
    S, so S is its carrier; each i-simplex of K' has exactly one carrier,
    so the image of the chain is the set of i-simplices carried by its
    support.  This is the subdivision chain map.
    """
    for s in c.support:
        sub.base.require(s)
    return Mod2Chain(c.dim, frozenset(t for t, s in sub.flags(c.dim).items() if s in c.support))


@dataclass(frozen=True)
class W0Report:
    degree: int      # sum of coefficients of the 0-dimensional representative, mod 2
    chi_mod2: int    # Euler integral of the function, mod 2


def w0_degree(sub: Subdivision, a: ConstructibleFunction) -> W0Report:
    """Augmentation of the 0-th class, reported next to chi mod 2."""
    rep = sw_representative(sub, a, 0)
    return W0Report(len(rep.support) % 2, chi(reduce_mod2(a)) % 2)


def verify_pushforward_axiom(
    f: SimplicialMap,
    a: ConstructibleFunction,
    i: int,
    sub_dom: Subdivision,
    sub_cod: Subdivision,
) -> bool:
    """Pushforward compatibility of class representatives, decided up to boundaries.

    Each representative tests its own function for being Euler.
    """
    a2 = reduce_mod2(a)
    fa = pushforward(f, a2)
    fp = induced_subdivided_map(f, sub_dom, sub_cod)
    lhs = chain_pushforward(fp, sw_representative(sub_dom, a2, i))
    if i <= f.codomain.dim:
        rhs = sw_representative(sub_cod, fa, i)
    else:
        rhs = Mod2Chain(i, frozenset())
    return homologous(sub_cod.complex, lhs, rhs)
