import random
import sys
from pathlib import Path

import pytest
import subdivision_oracle

from whitney import calculus as cal
from whitney import cli
from whitney import homology as hom
from whitney import sw
from whitney.errors import HomologyError, NotEulerError
from whitney.simplicial import Subdivision, barycentric_subdivision, faces

CORPUS = Path(__file__).resolve().parents[1] / "src" / "whitney" / "corpus"


def test_stiefel_chain_counts(subdivisions):
    sub = subdivisions["rp2_6"]
    assert len(sw.stiefel_chain(sub, 0).support) == 31
    assert len(sw.stiefel_chain(sub, 1).support) == 90
    assert len(sw.stiefel_chain(sub, 2).support) == 60


def test_stiefel_chain_out_of_range(subdivisions):
    with pytest.raises(HomologyError):
        sw.stiefel_chain(subdivisions["s1_3"], 2)


def test_stiefel_chains_are_cycles_on_euler_spaces(corpus, subdivisions):
    for name, entry in corpus.items():
        if not entry.euler:
            continue
        sub = subdivisions[name]
        for i in range(entry.complex.dim + 1):
            assert hom.is_cycle(sub.complex, sw.stiefel_chain(sub, i)), (name, i)


def test_stiefel_chain_negative_control(subdivisions):
    sub = subdivisions["delta2"]
    assert not hom.is_cycle(sub.complex, sw.stiefel_chain(sub, 1))


def test_representative_of_one_is_stiefel_chain(corpus, subdivisions):
    for name, entry in corpus.items():
        if not entry.euler:
            continue
        sub = subdivisions[name]
        ones = cal.constant(entry.complex, 1, cal.RING_Z2)
        for i in range(entry.complex.dim + 1):
            assert (
                sw.sw_representative(sub, ones, i).support
                == sw.stiefel_chain(sub, i).support
            ), (name, i)


def test_representative_rejects_non_euler(corpus, subdivisions):
    with pytest.raises(NotEulerError):
        sw.sw_representative(
            subdivisions["delta2"], cal.constant(corpus["delta2"].complex, 1, cal.RING_Z2), 0
        )


def test_representative_takes_one_dual_at_every_i(monkeypatch, corpus, subdivisions):
    # one Euler test, the coface sum behind dual; the chain itself is read off the carriers
    calls, real = [], cal.euler_offenders

    def counted(a):
        calls.append(a)
        return real(a)

    for module in [m for n, m in sys.modules.items() if n.startswith("whitney")]:
        if getattr(module, "euler_offenders", None) is real:
            monkeypatch.setattr(module, "euler_offenders", counted)
    for name in ("rp2_6", "torus_7", "wedge_spheres"):
        sub = subdivisions[name]
        ones = cal.constant(corpus[name].complex, 1, cal.RING_Z2)
        for i in range(sub.base.dim + 1):
            calls.clear()
            sw.sw_representative(sub, ones, i)
            assert len(calls) == 1, (name, i)


def test_representative_linear_in_function(corpus, subdivisions):
    k = corpus["rp2_6"].complex
    sub = subdivisions["rp2_6"]
    beta = cal.reduce_mod2(cal.indicator(k, faces(("1", "2", "3")), cal.RING_Z2))
    a = cal.add(beta, cal.dual(beta))
    ones = cal.constant(k, 1, cal.RING_Z2)
    both = cal.add(a, ones)
    for i in range(3):
        assert (
            sw.sw_representative(sub, both, i).support
            == (sw.sw_representative(sub, a, i) + sw.sw_representative(sub, ones, i)).support
        )


def test_w1_nonzero_on_projective_plane(subdivisions):
    sub = subdivisions["rp2_6"]
    bounds, _ = hom.is_boundary(sub.complex, sw.stiefel_chain(sub, 1))
    assert not bounds


def test_w1_zero_on_orientable_surfaces(subdivisions):
    for name in ("torus_7", "boundary_delta3"):
        sub = subdivisions[name]
        bounds, witness = hom.is_boundary(sub.complex, sw.stiefel_chain(sub, 1))
        assert bounds, name
        assert hom.boundary(sub.complex, witness).support == sw.stiefel_chain(sub, 1).support


def test_top_class_is_subdivided_fundamental_cycle(corpus, subdivisions):
    for name, entry in corpus.items():
        if not (entry.euler and entry.pure):
            continue
        sub = subdivisions[name]
        fc = hom.fundamental_cycle(entry.complex)
        assert (
            sw.subdivision_chain_map(sub, fc).support
            == sw.stiefel_chain(sub, entry.complex.dim).support
        ), name


def test_w0_degree_matches_chi(corpus, subdivisions):
    expected = {"rp2_6": 1, "torus_7": 0, "pinched_torus": 1, "boundary_delta3": 0}
    for name, entry in corpus.items():
        if not entry.euler:
            continue
        ones = cal.constant(entry.complex, 1, cal.RING_Z2)
        degree = len(sw.sw_representative(subdivisions[name], ones, 0).support) % 2
        assert degree == cal.chi(ones) % 2, name
        if name in expected:
            assert degree == expected[name], name


def test_subdivision_chain_map_is_chain_map(corpus, subdivisions):
    k = corpus["rp2_6"].complex
    sub = subdivisions["rp2_6"]
    c = hom.chain(1, [["1", "2"], ["2", "3"]])
    assert (
        sw.subdivision_chain_map(sub, hom.boundary(k, c)).support
        == hom.boundary(sub.complex, sw.subdivision_chain_map(sub, c)).support
    )


def _carried_scan(sub, c):
    """{t in K'_i : the closed simplex of some S in c holds every vertex carrier of t}."""
    support = [set(s) for s in c.support]
    return {
        t
        for t in sub.complex.simplices
        if len(t) - 1 == c.dim
        and any(all(set(sub.carriers[v]) <= s for v in t) for s in support)
    }


def test_subdivision_chain_map_matches_carrier_scan(corpus, subdivisions):
    # K -> K' and K' -> K'' of every corpus space, full and random supports
    rng = random.Random(4)
    for name, entry in corpus.items():
        sub1 = subdivisions[name]
        for sub in (sub1, barycentric_subdivision(sub1.complex)):
            for i in range(sub.base.dim + 1):
                full = sub.base.level(i)
                supports = [full] + [
                    [s for s in full if rng.random() < 0.3] for _ in range(3)
                ]
                for support in supports:
                    c = hom.Mod2Chain(i, frozenset(support))
                    assert sw.subdivision_chain_map(sub, c).support == _carried_scan(sub, c), (
                        name, i, len(support)
                    )


def test_one_dimension_of_k_prime_builds_no_subdivided_complex(tmp_path, monkeypatch, corpus):
    # stiefel without --fn and sd# read the flags of one dimension of the base
    rng = random.Random(12)
    bases = [(name, k) for name, e in corpus.items()
             for k in (e.complex, subdivision_oracle.barycentric_subdivision(e.complex)[0])]
    chains = [(k, hom.Mod2Chain(i, frozenset(s for s in k.level(i) if rng.random() < p)))
              for _name, k in bases for i in range(k.dim + 1) for p in (1, 0.4)]

    def outputs(tag):
        written = []
        for name, e in corpus.items():
            for i in range(e.complex.dim + 1):
                out = tmp_path / f"{tag}_{name}_{i}.json"
                argv = ["stiefel", "--complex", CORPUS / f"{name}.json", "--dim", i, "--out", out]
                assert cli.main([str(a) for a in argv]) == 0
                written.append(out.read_bytes())
        return written, [sw.subdivision_chain_map(Subdivision(k), c) for k, c in chains]

    expected = outputs("before")

    def no_complex(self):
        raise AssertionError("built the subdivided complex")

    monkeypatch.setattr(Subdivision, "complex", property(no_complex))
    assert outputs("after") == expected


def test_pushforward_axiom_double_cover(map_suite):
    cover = next(m for m in map_suite if m.name == "double_cover").map
    ones = cal.constant(cover.domain, 1, cal.RING_Z2)
    for i in range(2):
        assert sw.verify_pushforward_axiom(cover, ones, i)


def test_pushforward_axiom_rejects_non_euler_function(map_suite):
    # the domain representative tests the function
    cover = next(m for m in map_suite if m.name == "double_cover").map
    edge = cal.indicator(cover.domain, faces(("0", "1")), cal.RING_Z2)
    with pytest.raises(NotEulerError, match="require an Euler function"):
        sw.verify_pushforward_axiom(cover, edge, 0)
