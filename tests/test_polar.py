import random
from fractions import Fraction

import pytest

from whitney import calculus as cal
from whitney import homology as hom
from whitney import polar, sw
from whitney.errors import DegenerateMapError, NotEulerError, PolarError
from whitney.simplicial import barycentric_subdivision
from whitney.verify import random_euler_function


def height_map(k, heights):
    return polar.AffineVertexMap(k, 1, {v: (Fraction(h),) for v, h in heights.items()})


def test_degenerate_height_map_detected(circle):
    f = height_map(circle, {"1": 0, "2": 0, "3": 1})
    ok, offender = polar.is_nondegenerate(f)
    assert not ok and offender in {("1",), ("2",)}
    with pytest.raises(DegenerateMapError):
        polar.euler_singularity_chain(f, cal.constant(circle, 1, cal.RING_Z2))


def test_nondegenerate_height_map_chain(circle):
    f = height_map(circle, {"1": 0, "2": 2, "3": 1})
    c = polar.euler_singularity_chain(f, cal.constant(circle, 1, cal.RING_Z2))
    # min and max of the circle are the only singular vertices of a height map
    assert c.support == {("1",), ("2",)}


def test_half_link_census_values(circle):
    f = height_map(circle, {"1": 0, "2": 2, "3": 1})
    ones = cal.constant(circle, 1, cal.RING_Z2)
    r = polar.half_link_report(ones, ("3",), f)
    assert {c.link_simplex for c in r.cells} == {("1",), ("2",)}
    assert r.chi_plus == 1 and r.chi_minus == 1


def test_half_link_parity_even_spaces(corpus, subdivisions):
    for name in ("s1_3", "boundary_delta3", "rp2_6"):
        k = corpus[name].complex
        sub = subdivisions[name]
        ones = cal.constant(sub.complex, 1)
        for i in range(k.dim + 1):
            f = polar.moment_map(sub, i)
            for s in sub.complex.by_dim[i]:
                r = polar.half_link_report(ones, s, f)
                assert r.chi_plus % 2 == r.chi_minus % 2


def test_half_link_parity_fails_off_euler(subdivisions):
    # on the closed 2-simplex the two sides of a boundary vertex disagree
    sub = subdivisions["delta2"]
    ones = cal.constant(sub.complex, 1)
    f = polar.moment_map(sub, 0)
    r = polar.half_link_report(ones, ("b(1)",), f)
    assert r.chi_plus % 2 != r.chi_minus % 2


def _cell_integral(report, ring):
    """chi_plus, chi_minus read from the cells: open cell (-1)^dim U, slice (-1)^(dim U - 1)."""
    plus = minus = 0
    for cell in report.cells:
        sign = (-1) ** (len(cell.link_simplex) - 1)
        if cell.positive_cell:
            plus += sign * cell.weight
        if cell.negative_cell:
            minus += sign * cell.weight
        if cell.zero_cell:
            plus -= sign * cell.weight
            minus -= sign * cell.weight
    if ring == cal.RING_Z2:
        return plus % 2, minus % 2
    return plus, minus


def test_half_link_integral_matches_cells_on_moment_maps(corpus, subdivisions):
    rng = random.Random(8)
    for name, entry in corpus.items():
        sub = subdivisions[name]
        functions = [cal.constant(sub.complex, 1)]
        if entry.euler:
            functions.append(
                cal.subdivide_function(sub, random_euler_function(rng, entry.complex))
            )
        for a in functions:
            for i in range(entry.complex.dim + 1):
                f = polar.moment_map(sub, i)
                for s in sub.complex.by_dim[i]:
                    r = polar.half_link_report(a, s, f)
                    assert (r.chi_plus, r.chi_minus) == _cell_integral(r, a.ring), (name, i, s)


def test_half_link_integral_matches_cells_on_projections(corpus):
    k = corpus["rp2_6_embedded"].complex
    rng = random.Random(9)
    functions = [cal.constant(k, 1, cal.RING_Z2), random_euler_function(rng, k)]
    for a in functions:
        for rank in range(1, k.dim + 2):
            for seed in range(3):
                _basis, _chain, reports = polar.sample_generic_subspace(a, rank, seed)
                for r in reports:
                    assert (r.chi_plus, r.chi_minus) == _cell_integral(r, cal.RING_Z2)


def test_moment_map_images(subdivisions):
    sub = subdivisions["rp2_6"]
    f = polar.moment_map(sub, 1)
    assert f.point("b(1)") == (Fraction(0), Fraction(0))
    assert f.point("b(1,2)") == (Fraction(1), Fraction(1))
    assert f.point("b(1,2,3)") == (Fraction(2), Fraction(4))


def test_moment_map_nondegenerate_everywhere(corpus, subdivisions):
    for name, entry in corpus.items():
        sub = subdivisions[name]
        for i in range(entry.complex.dim + 1):
            ok, offender = polar.is_nondegenerate(polar.moment_map(sub, i))
            assert ok, (name, i, offender)


def test_singularity_chain_requires_euler_function(subdivisions):
    sub = subdivisions["delta2"]
    with pytest.raises(NotEulerError):
        polar.euler_singularity_chain(
            polar.moment_map(sub, 0), cal.constant(sub.complex, 1, cal.RING_Z2)
        )


def test_degenerate_map_reported_before_non_euler_function(circle):
    f = height_map(circle, {"1": 0, "2": 0, "3": 1})
    edge = cal.indicator(circle, [("1",), ("2",), ("1", "2")], cal.RING_Z2)
    assert not cal.is_euler_function(edge)
    with pytest.raises(DegenerateMapError) as e:
        polar.euler_singularity_chain(f, edge)
    # the first offender in canonical order, not just any
    assert e.value.offender == ("1",)
    assert str(e.value) == "map is degenerate at simplex ['1']"


def test_projection_map_requires_coordinates(corpus):
    with pytest.raises(PolarError):
        polar.projection_map(corpus["torus_7"].complex, [(Fraction(1),)])


def test_projection_chain_on_circle(circle):
    basis = [(Fraction(2), Fraction(1))]
    c = polar.euler_singularity_chain(
        polar.projection_map(circle, basis), cal.constant(circle, 1, cal.RING_Z2)
    )
    assert c.support == {("1",), ("2",)}


def test_sample_generic_subspace_deterministic(corpus):
    k = corpus["rp2_6_embedded"].complex
    ones = cal.constant(k, 1, cal.RING_Z2)
    b1, c1, r1 = polar.sample_generic_subspace(ones, 2, seed=11)
    b2, c2, r2 = polar.sample_generic_subspace(ones, 2, seed=11)
    assert (b1, c1, r1) == (b2, c2, r2)
    ok, _ = polar.is_nondegenerate(polar.projection_map(k, b1))
    assert ok


def test_sampler_chain_matches_chain_of_its_basis(corpus):
    k = corpus["rp2_6_embedded"].complex
    ones = cal.constant(k, 1, cal.RING_Z2)
    for i in range(k.dim + 1):
        basis, chain, reports = polar.sample_generic_subspace(ones, i + 1, seed=3)
        f = polar.projection_map(k, basis)
        assert chain == polar.euler_singularity_chain(f, ones)
        assert [r.simplex for r in reports] == list(k.by_dim[i])


def test_projection_chain_homologous_to_stiefel(corpus, subdivisions):
    k = corpus["boundary_delta3"].complex
    sub = subdivisions["boundary_delta3"]
    ones = cal.constant(k, 1, cal.RING_Z2)
    for i in range(k.dim + 1):
        _basis, sig, _reports = polar.sample_generic_subspace(ones, i + 1, seed=5 + i)
        assert hom.homologous(
            sub.complex,
            sw.subdivision_chain_map(sub, sig),
            sw.stiefel_chain(sub, i),
        )
