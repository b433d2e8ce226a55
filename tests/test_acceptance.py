"""Acceptance gate: one numbered exact/property check per release criterion.

Each criterion records a single pass/fail line (rendered in the terminal
summary by conftest) and asserts.  Criteria about class representatives
range over the Euler members of the corpus, since the chains involved are
only defined for Euler functions; see the repository notes for details.
"""

import random

import pytest

from census_oracle import census_chain
from conftest import NON_EULER_SPACES
from whitney import calculus as cal
from whitney import homology as hom
from whitney import polar, sw, verify
from whitney.simplicial import barycentric_subdivision

RESULTS = []


def criterion(number, description, ok):
    RESULTS.append(f"criterion {number:2d} [{'pass' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number}: {description}"


def euler_entries(corpus):
    return [e for e in corpus.values() if e.euler]


def test_criterion_01_stiefel_cycle_property(corpus, subdivisions):
    ok = all(
        hom.is_cycle(subdivisions[e.name].complex, sw.stiefel_chain(subdivisions[e.name], i))
        for e in euler_entries(corpus)
        for i in range(e.complex.dim + 1)
    )
    negative = not hom.is_cycle(
        subdivisions["delta2"].complex, sw.stiefel_chain(subdivisions["delta2"], 1)
    )
    criterion(1, "Stiefel chains cycle on Euler spaces; delta2 negative control", ok and negative)


def test_criterion_02_moment_map_identity(corpus, subdivisions):
    # the closed form (sw_representative) and the general census path each give s_i
    ok = all(
        sw.sw_representative(
            subdivisions[e.name], cal.constant(e.complex, 1, cal.RING_Z2), i
        ).support
        == census_chain(
            polar.moment_map(subdivisions[e.name], i),
            cal.constant(subdivisions[e.name].complex, 1, cal.RING_Z2),
        ).support
        == sw.stiefel_chain(subdivisions[e.name], i).support
        for e in euler_entries(corpus)
        for i in range(e.complex.dim + 1)
    )
    criterion(2, "moment-map singularity chain equals the Stiefel chain exactly", ok)


def test_criterion_03_calculus_identities(corpus):
    report = verify.run_calculus_suite(seed=0, trials=1000, corpus=corpus)
    wanted = [
        "involution: dual(dual(a)) = a",
        "chi(dual(a)) = chi(a)",
        "chi(f_* a) = chi(a)",
        "dual . f_* = f_* . dual",
        "(g.f)_* = g_* . f_*",
    ]
    ok = all(
        report.prop(name).trials >= 1000 and report.prop(name).failures == 0
        for name in wanted
    ) and report.ok
    criterion(3, "calculus identities on >=1000 seeded random instances each", ok)


def test_criterion_04_classical_manifold_values(corpus, subdivisions):
    rp2_sub = subdivisions["rp2_6"]
    w1_rp2 = not hom.is_boundary(rp2_sub.complex, sw.stiefel_chain(rp2_sub, 1))[0]
    fc = hom.fundamental_cycle(corpus["rp2_6"].complex)
    w2_rp2 = (
        sw.stiefel_chain(rp2_sub, 2).support == sw.subdivision_chain_map(rp2_sub, fc).support
        and not hom.is_boundary(rp2_sub.complex, sw.stiefel_chain(rp2_sub, 2))[0]
    )
    w1_zero = all(
        hom.is_boundary(subdivisions[n].complex, sw.stiefel_chain(subdivisions[n], 1))[0]
        for n in ("torus_7", "boundary_delta3")
    )
    criterion(4, "w1(RP2) nonzero, s2(RP2) fundamental, w1 zero on torus and sphere",
              w1_rp2 and w2_rp2 and w1_zero)


def test_criterion_05_degree_law(corpus, subdivisions):
    expected = {"rp2_6": 1, "torus_7": 0, "pinched_torus": 1}
    rng = random.Random(2024)
    ok = True
    random_count = 0
    for e in euler_entries(corpus):
        sub = subdivisions[e.name]
        ones = cal.constant(e.complex, 1, cal.RING_Z2)
        degree = len(sw.sw_representative(sub, ones, 0).support) % 2
        ok = ok and degree == cal.chi(ones) % 2
        if e.name in expected:
            ok = ok and degree == expected[e.name]
        for _ in range(10):
            a = verify.random_euler_function(rng, e.complex)
            ok = ok and len(sw.sw_representative(sub, a, 0).support) % 2 == cal.chi(a) % 2
            random_count += 1
    criterion(5, f"w0 degree = chi mod 2 (constant and {random_count} random Euler fns)",
              ok and random_count >= 100)


def test_criterion_06_top_class(corpus, subdivisions):
    ok = all(
        sw.subdivision_chain_map(subdivisions[e.name], hom.fundamental_cycle(e.complex)).support
        == sw.stiefel_chain(subdivisions[e.name], e.complex.dim).support
        for e in euler_entries(corpus)
        if e.pure
    )
    criterion(6, "top Stiefel chain is the subdivided mod 2 fundamental cycle", ok)


def test_criterion_07_half_link_parity(corpus, subdivisions):
    ok = True
    for e in euler_entries(corpus):
        sub = subdivisions[e.name]
        ones = cal.constant(sub.complex, 1)
        for i in range(e.complex.dim + 1):
            f = polar.moment_map(sub, i)
            for s in sub.complex.level(i):
                r = polar.half_link_report(ones, s, f)
                ok = ok and r.chi_plus % 2 == r.chi_minus % 2
        if e.complex.coordinates is not None:
            ones_k = cal.constant(e.complex, 1)
            for i in range(e.complex.dim + 1):
                f, _chain = polar.sample_generic_subspace(ones_k, i + 1, seed=100 + i)
                for r in polar.polar_census(f, ones_k):
                    ok = ok and r.chi_plus % 2 == r.chi_minus % 2
    criterion(7, "half-link parity chi+ = chi- mod 2 at every simplex", ok)


def test_criterion_08_projection_independence(corpus, subdivisions):
    k = corpus["rp2_6_embedded"].complex
    sub = subdivisions["rp2_6_embedded"]
    ones = cal.constant(k, 1, cal.RING_Z2)
    rng = random.Random(5150)
    ok = True
    for rank in range(1, k.dim + 2):
        i = rank - 1
        s_i = sw.stiefel_chain(sub, i)
        chains = []
        for _ in range(11):
            _f, chain = polar.sample_generic_subspace(
                ones, rank, seed=rng.randrange(10 ** 9)
            )
            chains.append(chain)
        for c in chains:
            ok = ok and hom.homologous(
                sub.complex, sw.subdivision_chain_map(sub, c), s_i
            )
        for c1, c2 in zip(chains, chains[1:]):
            ok = ok and hom.homologous(k, c1, c2)
    criterion(8, "polar chains of >=10 generic plane pairs per rank agree and match s_i", ok)


def test_criterion_09_pushforward_axiom(map_suite):
    rng = random.Random(77)
    ok = True
    random_count = 0
    for m in map_suite:
        k = m.map.domain
        ones = cal.constant(k, 1, cal.RING_Z2)
        fns = [ones] if cal.is_euler_function(ones) else []
        randoms = [verify.random_euler_function(rng, k) for _ in range(20)]
        random_count += len(randoms)
        for a in fns + randoms:
            for i in range(k.dim + 1):
                ok = ok and sw.verify_pushforward_axiom(m.map, a, i)
    criterion(9, f"pushforward axiom over the map suite ({random_count} random Euler fns)",
              ok and random_count >= 100)


def test_criterion_10_subdivision_invariance(corpus, subdivisions):
    ok = True
    for e in euler_entries(corpus):
        sub1 = subdivisions[e.name]
        sub2 = barycentric_subdivision(sub1.complex)
        for i in range(e.complex.dim + 1):
            diff = (
                sw.subdivision_chain_map(sub2, sw.stiefel_chain(sub1, i))
                + sw.stiefel_chain(sub2, i)
            )
            ok = ok and hom.is_cycle(sub2.complex, diff)
            ok = ok and hom.is_boundary(sub2.complex, diff)[0]
    criterion(10, "sd#(s_i(K)) is homologous to s_i(K') inside K''", ok)


def test_criterion_11_euler_space_census(corpus):
    ok = NON_EULER_SPACES < set(corpus)
    for e in corpus.values():
        report = cal.is_euler_space(e.complex)
        ok = ok and report.is_euler == (e.name not in NON_EULER_SPACES) == e.euler
        if not report.is_euler:
            ok = ok and bool(report.offenders)
    bowtie = cal.is_euler_space(corpus["bowtie"].complex)
    ok = ok and ("3",) not in bowtie.offenders and ("1",) in bowtie.offenders
    criterion(11, "Euler-space census matches documentation, offenders named", ok)
