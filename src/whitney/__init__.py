"""Stiefel-Whitney homology classes of triangulated mod 2 Euler spaces.

Exact rational / GF(2) arithmetic throughout; every construction is
deterministic given its inputs and seeds.
"""

from .calculus import (
    RING_Z,
    RING_Z2,
    ConstructibleFunction,
    EulerSpaceReport,
    add,
    chi,
    constant,
    dual,
    euler_offenders,
    fiber_chi_oracle,
    from_values,
    indicator,
    indicator_sum,
    is_euler_function,
    is_euler_space,
    pullback,
    pushforward,
    reduce_mod2,
    subdivide_function,
)
from .errors import (
    CalculusError,
    ComplexError,
    DegenerateMapError,
    HomologyError,
    InputError,
    MapError,
    NotEulerError,
    PolarError,
    WhitneyError,
)
from .homology import (
    HomologySummary,
    Mod2Chain,
    betti_mod2,
    boundary,
    fundamental_cycle,
    homologous,
    is_boundary,
    is_cycle,
)
from .polar import (
    AffineVertexMap,
    HalfLinkReport,
    euler_singularity_chain,
    half_link_report,
    is_nondegenerate,
    moment_chain,
    moment_map,
    polar_census,
    polar_chain,
    projection_map,
    sample_generic_subspace,
)
from .simplicial import (
    SimplicialComplex,
    SimplicialMap,
    Subdivision,
    barycentric_subdivision,
    build_complex,
    compose,
    link,
    validate_map,
)
from .sw import (
    base_representative,
    last_vertex_chain_map,
    stiefel_chain,
    subdivision_chain_map,
    sw_representative,
    verify_pushforward_axiom,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
