import random
from fractions import Fraction
from itertools import combinations

import fraction_oracle
import pytest
from census_oracle import census_chain
from relabelling import flag_keys, fresh_ids, relabel, relabel_function
from hypothesis import given, settings
from hypothesis import strategies as st

from whitney import calculus as cal
from whitney import homology as hom
from whitney import exactlin, fileio, polar, simplicial, sw
from whitney.errors import (
    CalculusError,
    ComplexError,
    DegenerateMapError,
    NotEulerError,
    PolarError,
)
from whitney.simplicial import barycentric_subdivision, build_complex, link
from whitney.verify import random_euler_function, random_function


def height_map(k, heights):
    return polar.AffineVertexMap(k, 1, {v: (h,) for v, h in heights.items()})


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
            for s in sub.complex.level(i):
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
                for s in sub.complex.level(i):
                    r = polar.half_link_report(a, s, f)
                    assert (r.chi_plus, r.chi_minus) == _cell_integral(r, a.ring), (name, i, s)


def test_half_link_integral_matches_cells_on_projections(corpus):
    k = corpus["rp2_6_embedded"].complex
    rng = random.Random(9)
    functions = [cal.constant(k, 1, cal.RING_Z2), random_euler_function(rng, k)]
    for a in functions:
        for rank in range(1, k.dim + 2):
            for seed in range(3):
                f, _chain = polar.sample_generic_subspace(a, rank, seed)
                for r in polar.polar_census(f, a):
                    assert (r.chi_plus, r.chi_minus) == _cell_integral(r, cal.RING_Z2)


def test_moment_map_images(subdivisions):
    sub = subdivisions["rp2_6"]
    f = polar.moment_map(sub, 1)
    assert f.images["b(1)"] == (Fraction(0), Fraction(0))
    assert f.images["b(1,2)"] == (Fraction(1), Fraction(1))
    assert f.images["b(1,2,3)"] == (Fraction(2), Fraction(4))
    assert all(type(x) is int for p in f.images.values() for x in p)


def test_float_image_rejected(circle):
    with pytest.raises(PolarError, match=r"image of '1' must be ints, got \[0\.5\]"):
        polar.AffineVertexMap(circle, 1, {"1": (0.5,), "2": (1,), "3": (2,)})
    with pytest.raises(PolarError, match=r"image of '1' must be ints, got \[Fraction\(1, 2\)\]"):
        polar.AffineVertexMap(circle, 1, {"1": (Fraction(1, 2),), "2": (1,), "3": (2,)})
    with pytest.raises(PolarError, match=r"scale must be a positive int, got 0"):
        polar.AffineVertexMap(circle, 1, {"1": (0,), "2": (1,), "3": (2,)}, 0)


def test_image_of_vertex_outside_domain_rejected(circle):
    with pytest.raises(PolarError, match=r"imaged vertices \['zzz'\] are not in the domain"):
        polar.AffineVertexMap(circle, 1, {"1": (0,), "2": (1,), "3": (2,), "zzz": (7,)})
    with pytest.raises(PolarError, match=r"missing images for vertices \['3'\]"):
        polar.AffineVertexMap(circle, 1, {"1": (0,), "2": (1,), "zzz": (7,)})


def test_moment_map_nondegenerate_everywhere(corpus, subdivisions):
    for name, entry in corpus.items():
        sub = subdivisions[name]
        for i in range(entry.complex.dim + 1):
            ok, offender = polar.is_nondegenerate(polar.moment_map(sub, i))
            assert ok, (name, i, offender)


def _z_lift(rng, a):
    """A Z-valued function with the same mod 2 reduction as a."""
    return cal.from_values(a.base, {s: x + 2 * rng.randint(-1, 1) for s, x in a.values.items()})


def _census_cases(corpus, subdivisions):
    """sd of every corpus space, sd^2 of four of them, and sd of two 3-dimensional complexes."""
    cases = [(name, subdivisions[name]) for name in corpus] + [
        (f"sd1 {name}", barycentric_subdivision(subdivisions[name].complex))
        for name in ("torus_7", "rp2_6", "wedge_spheres", "pinched_torus")
    ]
    # no bundled space has dimension 3: the boundary of a 4-simplex and a closed 3-simplex
    five = [str(v) for v in range(5)]
    return cases + [(name, barycentric_subdivision(k)) for name, k in (
        ("boundary of the 4-simplex", build_complex(five, combinations(five, 4))),
        ("closed 3-simplex", build_complex(five[:4], [five[:4]])),
    )]


def _carrier_chain(sub, a, i):
    """Sigma of ``moment_map(sub, i)`` for any a: the i-flags with b(carrier) odd.

    b is a mod 2 at odd i and dual(a) mod 2 at even i (``polar.moment_chain``
    gives the proof); ``moment_chain`` reads a at every i, which is b when a
    is Euler.
    """
    b = cal.reduce_mod2(a) if i % 2 else cal.dual(cal.reduce_mod2(a))
    return hom.Mod2Chain(i, frozenset(s for s, carrier in sub.flags(i).items() if b(carrier)))


def test_moment_chain_matches_census_oracle(corpus, subdivisions):
    rng = random.Random(41)
    cases = _census_cases(corpus, subdivisions)
    euler = set()
    for name, sub in cases:
        k = sub.base
        functions = [cal.constant(k, 1)] + [random_function(rng, k) for _ in range(3)]
        functions += [_z_lift(rng, random_euler_function(rng, k)) for _ in range(2)]
        for a in functions:
            is_euler = cal.is_euler_function(a)
            euler.add(is_euler)
            for i in range(k.dim + 1):
                oracle = census_chain(polar.moment_map(sub, i), cal.subdivide_function(sub, a))
                assert _carrier_chain(sub, a, i) == oracle, (name, i)
                if is_euler or i % 2:
                    assert polar.moment_chain(sub, a, i) == oracle, (name, i)
    assert euler == {True, False}
    assert max(sub.base.dim for _name, sub in cases) == 3


def test_representative_matches_moment_chain_and_census(corpus, subdivisions):
    # sw_representative reads the carriers through moment_chain; the K' census is their oracle
    rng = random.Random(43)
    cases = [(name, sub) for name, sub in _census_cases(corpus, subdivisions)
             if cal.is_euler_space(sub.base).is_euler]
    assert {name for name, _sub in cases} >= {"sd1 torus_7", "boundary of the 4-simplex"}
    for name, sub in cases:
        k = sub.base
        for a in [_z_lift(rng, random_euler_function(rng, k)) for _ in range(2)]:
            for i in range(k.dim + 1):
                rep = sw.sw_representative(sub, a, i)
                oracle = census_chain(polar.moment_map(sub, i), cal.subdivide_function(sub, a))
                assert rep == polar.moment_chain(sub, a, i) == oracle, (name, i)


def test_moment_chain_errors_match_the_census_path(corpus, subdivisions):
    sub = subdivisions["rp2_6"]
    ones = cal.constant(sub.base, 1)
    for bad in (-1, 3):
        with pytest.raises(PolarError) as expected:
            polar.moment_map(sub, bad)
        with pytest.raises(PolarError) as e:
            polar.moment_chain(sub, ones, bad)
        assert str(e.value) == str(expected.value)
    for foreign in (cal.constant(corpus["torus_7"].complex, 1), cal.constant(sub.complex, 1)):
        with pytest.raises(CalculusError) as expected:
            cal.subdivide_function(sub, foreign)
        with pytest.raises(CalculusError) as e:
            polar.moment_chain(sub, foreign, 1)
        assert str(e.value) == str(expected.value)
        with pytest.raises(CalculusError) as e:
            sw.sw_representative(sub, foreign, 1)
        assert str(e.value) == str(expected.value)


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
    assert str(e.value) == (
        "map is degenerate at simplex ['1']: link vertex '2' maps into its hyperplane"
    )


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
    f1, c1 = polar.sample_generic_subspace(ones, 2, seed=11)
    f2, c2 = polar.sample_generic_subspace(ones, 2, seed=11)
    assert (f1.images, f1.scale, c1) == (f2.images, f2.scale, c2)
    assert f1.domain == k and f1.target_dim == 2
    ok, _ = polar.is_nondegenerate(f1)
    assert ok


def test_sampler_chain_matches_chain_of_its_basis(corpus):
    k = corpus["rp2_6_embedded"].complex
    ones = cal.constant(k, 1, cal.RING_Z2)
    for i in range(k.dim + 1):
        f, chain = polar.sample_generic_subspace(ones, i + 1, seed=3)
        assert chain == census_chain(f, ones)
        assert [r.simplex for r in polar.polar_census(f, ones)] == list(k.level(i))


def test_projection_chain_homologous_to_stiefel(corpus, subdivisions):
    k = corpus["boundary_delta3"].complex
    sub = subdivisions["boundary_delta3"]
    ones = cal.constant(k, 1, cal.RING_Z2)
    for i in range(k.dim + 1):
        _f, sig = polar.sample_generic_subspace(ones, i + 1, seed=5 + i)
        assert hom.homologous(
            sub.complex,
            sw.subdivision_chain_map(sub, sig),
            sw.stiefel_chain(sub, i),
        )


def test_sampler_rank_tests_each_candidate_once(corpus, monkeypatch):
    k = corpus["rp2_6_embedded"].complex
    ones = cal.constant(k, 1, cal.RING_Z2)
    calls = []
    rank = polar.matrix_rank
    monkeypatch.setattr(polar, "matrix_rank", lambda rows: calls.append(rows) or rank(rows))
    for seed in range(5):
        polar.sample_generic_subspace(ones, 2, seed)
    assert len(calls) == 5


def test_sampler_candidates_fail_rarely(subdivisions, monkeypatch):
    # entries come from one range where a candidate fails with probability below 1/256
    k = subdivisions["rp2_6_embedded"].complex
    ones = cal.constant(k, 1, cal.RING_Z2)
    candidates = []
    project = polar._project
    monkeypatch.setattr(polar, "_project", lambda k, b: candidates.append(b) or project(k, b))
    for seed in range(20):
        polar.sample_generic_subspace(ones, 1, seed)
    assert 20 <= len(candidates) <= 22


def _chain_functions(rng, k):
    """a = 1, random Euler and random functions on k, each in Z2 and lifted to Z."""
    z2 = [cal.constant(k, 1, cal.RING_Z2), random_euler_function(rng, k),
          cal.reduce_mod2(random_function(rng, k))]
    return z2 + [_z_lift(rng, a) for a in z2]


def test_upper_star_chain_with_no_link_vertex_and_every_link_vertex_upper(corpus):
    # with none upper, S alone is summed: a(S); with all upper, every coface: dual(a)(S) mod 2
    rng = random.Random(59)
    for name, entry in corpus.items():
        k = entry.complex
        for a in _chain_functions(rng, k) + [random_function(rng, k)]:
            d = cal.dual(a)
            for i in range(k.dim + 1):
                level = k.level(i)
                none = polar.upper_star_chain(a, i, lambda s: set())
                every = polar.upper_star_chain(
                    a, i, lambda s: set().union(*k.cofaces[s]).difference(s))
                assert none == hom.Mod2Chain(i, frozenset(s for s in level if a(s) % 2)), name
                assert every == hom.Mod2Chain(i, frozenset(s for s in level if d(s) % 2)), name


def test_polar_chain_matches_census_on_moment_maps(corpus, subdivisions):
    rng = random.Random(47)
    euler = set()
    for name, entry in corpus.items():
        if not entry.euler:
            continue
        sub = subdivisions[name]
        for a in _chain_functions(rng, entry.complex):
            euler.add(cal.is_euler_function(a))
            a_prime = cal.subdivide_function(sub, a)
            for i in range(entry.complex.dim + 1):
                f = polar.moment_map(sub, i)
                assert polar.polar_chain(f, a_prime) == census_chain(f, a_prime), (name, i)
    assert euler == {True, False}


def test_polar_chain_matches_census_on_sampled_projections(corpus):
    rng = random.Random(53)
    rings = set()
    for name, entry in corpus.items():
        k = entry.complex
        if k.coordinates is None:
            continue
        for a in _chain_functions(rng, k):
            rings.add(a.ring)
            for rank in range(1, min(k.dim + 1, k.ambient_dim) + 1):
                f, chain = polar.sample_generic_subspace(a, rank, rng.randrange(10 ** 6))
                assert chain == polar.polar_chain(f, a) == census_chain(f, a), (name, rank)
    assert rings == {cal.RING_Z, cal.RING_Z2}


def _collapsing_basis(k, edge, rank):
    """``rank`` integer covectors vanishing on the direction of the edge."""
    u, w = edge
    d = [y - x for x, y in zip(k.coordinates[u], k.coordinates[w])]
    j = next(j for j, x in enumerate(d) if x != 0)
    # e_m d_j - e_j d_m for m != j: independent, and each is orthogonal to d
    rows = []
    for m in (m for m in range(len(d)) if m != j):
        row = [0] * len(d)
        row[m], row[j] = d[j], -d[m]
        rows.append(row)
    return rows[:rank]


def test_polar_chain_and_census_agree_on_degenerate_maps(corpus, circle):
    rng = random.Random(59)
    maps = [height_map(circle, {v: 0 for v in circle.vertices}),
            polar.AffineVertexMap(circle, 2, {v: (1, 1) for v in circle.vertices})]
    for name in ("rp2_6_embedded", "wedge_spheres", "boundary_delta3"):
        k = corpus[name].complex
        maps += [polar.projection_map(k, _collapsing_basis(k, edge, rank))
                 for edge in (k.level(1)[0], k.level(1)[-1]) for rank in (1, 2)]
    offenders = set()
    reasons = set()
    for f in maps:
        for a in _chain_functions(rng, f.domain):
            with pytest.raises(DegenerateMapError) as expected:
                polar.polar_census(f, a)
            with pytest.raises(DegenerateMapError) as e:
                polar.polar_chain(f, a)
            assert e.value.offender == expected.value.offender
            assert str(e.value) == str(expected.value)
            with pytest.raises(DegenerateMapError) as e:
                polar.half_link_report(a, expected.value.offender, f)
            assert str(e.value) == str(expected.value)
            offenders.add(e.value.offender)
            reasons.add(str(e.value).split(": ")[1].split()[0])
        assert polar.is_nondegenerate(f) == (False, expected.value.offender)
    # both reasons: a flat image ("its image spans no hyperplane") and a flat link vertex
    assert reasons == {"its", "link"}
    # offenders in both dimensions, and not only each complex's first simplex
    assert {len(s) for s in offenders} == {1, 2} and len(offenders) > 2


def test_half_link_report_sorts_the_simplex(circle):
    f = polar.AffineVertexMap(circle, 2, {"1": (0, 0), "2": (1, 0), "3": (0, 1)})
    ones = cal.constant(circle, 1, cal.RING_Z2)
    assert polar.half_link_report(ones, ("2", "1"), f) == polar.half_link_report(ones, ("1", "2"), f)


def test_half_link_report_checks_membership_before_arithmetic(corpus, monkeypatch):
    k = corpus["s1_6"].complex
    f = polar.AffineVertexMap(k, 2, {v: (int(v), int(v) ** 2) for v in k.vertices})
    calls = []
    normal = polar.integer_normal
    monkeypatch.setattr(polar, "integer_normal", lambda pts: calls.append(pts) or normal(pts))
    with pytest.raises(ComplexError, match=r"simplex \['1', '3'\] is not in the complex"):
        polar.half_link_report(cal.constant(k, 1, cal.RING_Z2), ("3", "1"), f)
    assert calls == []


def _check_against_fraction_oracle(f, a):
    """Compare every i-simplex's report with the Fraction oracle on f's images / scale.

    Returns the number of nondegenerate simplices compared."""
    images = {v: tuple(Fraction(x, f.scale) for x in p) for v, p in f.images.items()}
    compared = 0
    for s in f.domain.level(f.target_dim - 1):
        plane = fraction_oracle.affine_hyperplane([images[v] for v in s])
        sides = None
        if plane is not None:
            normal, offset = plane
            sides = {}
            for (w,) in link(f.domain, s).level(0):
                h = fraction_oracle.dot(normal, images[w]) - offset
                sides[w] = (h > 0) - (h < 0)
        if sides is None or 0 in sides.values():
            with pytest.raises(DegenerateMapError):
                polar.half_link_report(a, s, f)
            continue
        r = polar.half_link_report(a, s, f)
        assert (r.normal, r.offset) == (normal, offset)
        assert {c.link_simplex[0]: 1 if c.positive_cell else -1
                for c in r.cells if len(c.link_simplex) == 1} == sides
        compared += 1
    return compared


def test_integer_census_matches_fraction_oracle_on_moment_maps(corpus, subdivisions):
    for name, entry in corpus.items():
        sub = subdivisions[name]
        ones = cal.constant(sub.complex, 1)
        for i in range(entry.complex.dim + 1):
            f = polar.moment_map(sub, i)
            assert f.scale == 1
            assert _check_against_fraction_oracle(f, ones) == len(sub.complex.level(i))


def test_integer_census_matches_fraction_oracle_on_projections(corpus):
    rng = random.Random(17)
    compared = 0
    for name in ("rp2_6_embedded", "wedge_spheres"):
        k = corpus[name].complex
        ones = cal.constant(k, 1)
        for rank in (1, 2, 3):
            for _ in range(4):
                basis = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(k.ambient_dim))
                         for _ in range(rank)]
                if exactlin.matrix_rank(basis) == rank:
                    compared += _check_against_fraction_oracle(polar.projection_map(k, basis), ones)
    assert compared > 0


def test_integer_census_matches_fraction_oracle_on_rational_map(corpus):
    k = corpus["rp2_6"].complex
    ones = cal.constant(k, 1)
    rng = random.Random(5)
    for m in (1, 2, 3):
        images = {v: [f"{rng.randint(-9, 9)}/{rng.choice((1, 2, 3, 7))}" for _ in range(m)]
                  for v in k.vertices}
        f = fileio.affine_map_from_dict({"target_dim": m, "images": images}, k)
        assert f.scale > 1
        assert _check_against_fraction_oracle(f, ones) > 0


def test_census_runs_without_fraction_geometry(corpus, subdivisions, monkeypatch):
    sub = subdivisions["rp2_6"]
    k = corpus["rp2_6_embedded"].complex
    basis = [(1, 3, 9, 27, 81), (1, -2, 5, -7, 11)]

    def censuses():
        # fresh complexes, so their integer coordinates and K' barycenters are built on every call
        k0 = simplicial.SimplicialComplex(k.vertices, k.simplices, k.coordinates)
        k1 = barycentric_subdivision(k0).complex
        return (
            polar.polar_census(polar.moment_map(sub, 1), cal.constant(sub.complex, 1, cal.RING_Z2)),
            polar.polar_census(polar.projection_map(k0, basis), cal.constant(k0, 1, cal.RING_Z2)),
            [polar.sample_generic_subspace(cal.constant(k1, 1, cal.RING_Z2), rank, 0)
             for rank in (1, 2, 3)],
        )

    expected = censuses()

    def refuse(*args):
        raise AssertionError("Fraction geometry called from the census")

    monkeypatch.setattr(exactlin, "affine_hyperplane", refuse)
    # a Fraction of two ints (a report's offset, a barycenter) is allowed; arithmetic is not
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(Fraction, name, refuse)
    assert censuses() == expected


def _check_against_link_oracle(f, a):
    """Every i-simplex's cells against simplicial.link: its simplices in order, weights a(S + U)."""
    k = f.domain
    for s in k.level(f.target_dim - 1):
        lk = link(k, s).simplices
        r = polar.half_link_report(a, s, f)
        assert [c.link_simplex for c in r.cells] == list(lk)
        assert [c.weight for c in r.cells] == [a(tuple(sorted(s + u))) for u in lk]
    return len(k.level(f.target_dim - 1))


def test_coface_census_matches_link_oracle_on_moment_maps(corpus, subdivisions):
    rng = random.Random(29)
    for name, entry in corpus.items():
        sub = subdivisions[name]
        a = random_function(rng, sub.complex)
        for i in range(entry.complex.dim + 1):
            assert _check_against_link_oracle(polar.moment_map(sub, i), a) > 0


def test_coface_census_matches_link_oracle_on_projections(corpus):
    rng = random.Random(31)
    for name in ("rp2_6_embedded", "wedge_spheres"):
        k = corpus[name].complex
        a = random_function(rng, k)
        for rank in range(1, k.dim + 2):
            for seed in range(3):
                f, _chain = polar.sample_generic_subspace(a, rank, seed)
                assert _check_against_link_oracle(f, a) > 0


def test_degenerate_census_names_the_first_link_vertex(corpus):
    # heights in {0, 1, 2}: many vertices share their height with a link vertex
    rng = random.Random(37)
    degenerate = 0
    for entry in corpus.values():
        k = entry.complex
        a = random_function(rng, k)
        f = height_map(k, {v: rng.randint(0, 2) for v in k.vertices})
        for s in k.level(0):
            flat = [w for (w,) in link(k, s).level(0) if f.images[w] == f.images[s[0]]]
            if not flat:
                continue
            with pytest.raises(DegenerateMapError) as e:
                polar.half_link_report(a, s, f)
            assert str(e.value) == (f"map is degenerate at simplex {list(s)}: "
                                    f"link vertex {flat[0]!r} maps into its hyperplane")
            assert e.value.offender == s
            degenerate += 1
    assert degenerate > 0


def test_census_builds_no_link_complex(corpus, subdivisions, monkeypatch):
    sub = subdivisions["rp2_6"]
    k = corpus["rp2_6_embedded"].complex
    f, _chain = polar.sample_generic_subspace(cal.constant(k, 1, cal.RING_Z2), 2, 3)
    cases = [
        (polar.moment_map(sub, 1), cal.constant(sub.complex, 1, cal.RING_Z2)),
        (f, cal.constant(k, 1, cal.RING_Z2)),
    ]
    expected = [polar.polar_census(f, a) for f, a in cases]

    def refuse(*args):
        raise AssertionError("link complex built by the census")

    monkeypatch.setattr(simplicial, "link", refuse)
    monkeypatch.setattr(polar, "link", refuse, raising=False)
    assert [polar.polar_census(f, a) for f, a in cases] == expected


def test_projection_basis_must_be_ints_or_fractions(corpus):
    k = corpus["s1_6"].complex
    with pytest.raises(PolarError, match=r"basis vector must be ints or Fractions, got \[0\.1, 1\]"):
        polar.projection_map(k, [(0.1, 1)])
    assert polar.projection_map(k, [(2, 1)]) == polar.projection_map(k, [(Fraction(2), Fraction(1))])
    f, _chain = polar.sample_generic_subspace(cal.constant(k, 1, cal.RING_Z2), 2, 0)
    assert all(type(x) is int for p in f.images.values() for x in p) and type(f.scale) is int


def _assert_same_census(f, a, f2, a2, key, key2):
    """Chains and per-simplex reports agree once simplices are compared through key/key2."""
    chain, chain2 = census_chain(f, a), census_chain(f2, a2)
    assert {key(s) for s in chain.support} == {key2(s) for s in chain2.support}
    reports = polar.polar_census(f, a)
    by_key = {key2(r.simplex): r for r in polar.polar_census(f2, a2)}
    assert len(by_key) == len(reports)
    for r in reports:
        r2 = by_key[key(r.simplex)]
        assert (r2.chi_plus, r2.chi_minus) == (r.chi_plus, r.chi_minus)
        assert sorted(c.weight for c in r2.cells) == sorted(c.weight for c in r.cells)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(["rp2_6_embedded", "wedge_spheres"]), seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_projection_census_invariant_under_relabelling(corpus, name, seed, data):
    k = corpus[name].complex
    new = fresh_ids(data, k)
    k2 = relabel(k, new)
    a = random_function(random.Random(seed), k)
    a2 = relabel_function(a, k2, new)
    for rank in range(1, k.dim + 2):
        # relabelling changes no candidate's geometry, so both accept the same basis
        f, _chain = polar.sample_generic_subspace(a, rank, seed)
        f2, _chain2 = polar.sample_generic_subspace(a2, rank, seed)
        assert {new[v]: p for v, p in f.images.items()} == f2.images and f.scale == f2.scale
        _assert_same_census(f, a, f2, a2, lambda s: tuple(sorted(new[v] for v in s)), lambda s: s)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2 ** 16), data=st.data())
def test_moment_census_invariant_under_relabelling(corpus, subdivisions, seed, data):
    k = corpus["rp2_6"].complex
    new = fresh_ids(data, k)
    k2 = relabel(k, new)
    sub, sub2 = subdivisions["rp2_6"], barycentric_subdivision(k2)
    a = random_function(random.Random(seed), k)
    a_prime = cal.subdivide_function(sub, a)
    a2_prime = cal.subdivide_function(sub2, relabel_function(a, k2, new))
    flag, flag2 = flag_keys(sub, sub2, new)
    for i in range(k.dim + 1):
        _assert_same_census(
            polar.moment_map(sub, i), a_prime, polar.moment_map(sub2, i), a2_prime, flag, flag2
        )


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(["rp2_6", "torus_7", "wedge_spheres"]), seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_sw_representative_invariant_under_relabelling(corpus, subdivisions, name, seed, data):
    k = corpus[name].complex
    new = fresh_ids(data, k)
    k2 = relabel(k, new)
    sub, sub2 = subdivisions[name], barycentric_subdivision(k2)
    a = random_euler_function(random.Random(seed), k)
    a2 = relabel_function(a, k2, new)
    flag, flag2 = flag_keys(sub, sub2, new)
    for i in range(k.dim + 1):
        rep = sw.sw_representative(sub, a, i)
        rep2 = sw.sw_representative(sub2, a2, i)
        assert {flag(s) for s in rep.support} == {flag2(s) for s in rep2.support}
        stiefel = sw.stiefel_chain(sub, i).support
        assert {flag(s) for s in stiefel} == {flag2(s) for s in sw.stiefel_chain(sub2, i).support}
