"""The singularity chain read from the half-link census.

``polar.polar_census`` returns the reports alone; the coefficient of an
i-simplex S in Sigma(f) is a(S) - chi_plus(S) mod 2, read here from each
report.  It shares the side test with ``polar.polar_chain`` but not the
sum over upper cofaces, and the K' census shares nothing with the carrier
reader ``polar.moment_chain``, so it is the oracle of both.
"""

from __future__ import annotations

from whitney import calculus as cal
from whitney import polar
from whitney.homology import Mod2Chain


def census_chain(f: polar.AffineVertexMap, a: cal.ConstructibleFunction) -> Mod2Chain:
    a2 = cal.reduce_mod2(a)
    reports = polar.polar_census(f, a)
    return Mod2Chain(
        f.target_dim - 1,
        frozenset(r.simplex for r in reports if (a2(r.simplex) - r.chi_plus) % 2),
    )
