"""pi#, the chain map of the last-vertex map pi: K' -> K, and the checks decided through it.

pi# sd# = id on chains and pi# is an isomorphism in homology, so a cycle
of K' bounds exactly when its image under pi# bounds in K.  These tests
check both facts against sd# and against elimination one level up, and
that ``verify`` no longer builds the complex it used to eliminate over.
"""

import random
from functools import cached_property

import pytest

import subdivision_oracle
from relabelling import reverse_order
from whitney import calculus as cal
from whitney import homology as hom
from whitney import polar, sw, verify
from whitney.corpus import CorpusEntry
from whitney.errors import HomologyError
from whitney.simplicial import Subdivision, barycentric_subdivision, build_complex

EULER_SD1 = ("torus_7", "rp2_6")


def _random_chains(rng, k, i, count=3, p=0.4):
    full = k.level(i)
    return [hom.Mod2Chain(i, frozenset(full))] + [
        hom.Mod2Chain(i, frozenset(s for s in full if rng.random() < p)) for _ in range(count)
    ]


def _bounds(k, c):
    return hom.is_boundary(k, c)[0]


def _euler(corpus):
    return [e for e in corpus.values() if e.euler]


def test_pi_after_sd_is_the_identity(corpus, subdivisions):
    # K' -> K on every corpus space, K'' -> K' on the Euler spaces
    rng = random.Random(18)
    for name, entry in corpus.items():
        sub1 = subdivisions[name]
        subs = [sub1] + ([barycentric_subdivision(sub1.complex)] if entry.euler else [])
        for sub in subs:
            for i in range(sub.base.dim + 1):
                for c in _random_chains(rng, sub.base, i):
                    back = sw.last_vertex_chain_map(sub, sw.subdivision_chain_map(sub, c))
                    assert back == c, (name, i, len(c.support))


def test_pi_is_a_chain_map(corpus, subdivisions):
    rng = random.Random(19)
    for name, entry in corpus.items():
        sub = subdivisions[name]
        kp = sub.complex
        for i in range(1, kp.dim + 1):
            for c in _random_chains(rng, kp, i):
                assert hom.boundary(entry.complex, sw.last_vertex_chain_map(sub, c)) == (
                    sw.last_vertex_chain_map(sub, hom.boundary(kp, c))
                ), (name, i)


def test_pi_lands_on_the_last_vertices():
    sub = Subdivision(build_complex(["a", "b", "c"], [["a", "b", "c"]]))
    up = ("b(a)", "b(a,b)", "b(a,b,c)")      # last vertices a, b, c
    down = ("b(a,b)", "b(a,b,c)", "b(b)")    # last vertices b, b, c: dropped
    edge = ("b(a,b)", "b(c)")                # not a flag, so not in K'
    assert sw.last_vertex_chain_map(sub, hom.Mod2Chain(2, frozenset({up, down}))) == (
        hom.Mod2Chain(2, frozenset({("a", "b", "c")}))
    )
    with pytest.raises(HomologyError, match="not in the subdivision"):
        sw.last_vertex_chain_map(sub, hom.Mod2Chain(1, frozenset({edge})))


def test_verdicts_agree_on_stiefel_chains(corpus, subdivisions):
    # every s_i of every Euler space in K', and s_i of K'' for sd1 of two surfaces
    verdicts = set()
    for entry in _euler(corpus):
        sub1 = subdivisions[entry.name]
        subs = [sub1] + ([barycentric_subdivision(sub1.complex)] if entry.name in EULER_SD1 else [])
        for sub in subs:
            for i in range(sub.base.dim + 1):
                s_i = sw.stiefel_chain(sub, i)
                verdict = _bounds(sub.complex, s_i)
                assert _bounds(sub.base, sw.last_vertex_chain_map(sub, s_i)) == verdict, (
                    entry.name, len(sub.base.level_set(0)), i)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_verdicts_agree_on_moment_chains(corpus, subdivisions):
    rng = random.Random(20)
    verdicts = set()
    for entry in _euler(corpus):
        sub = subdivisions[entry.name]
        ones = cal.constant(entry.complex, 1, cal.RING_Z2)
        for _ in range(3):
            beta = verify.random_euler_function(rng, entry.complex)
            # beta alone has mostly bounding classes; beta + 1 carries the space's own
            for a in (beta, cal.add(beta, ones)):
                for i in range(entry.complex.dim + 1):
                    c = polar.moment_chain(sub, a, i)
                    verdict = _bounds(sub.complex, c)
                    assert _bounds(entry.complex, sw.last_vertex_chain_map(sub, c)) == verdict, (
                        entry.name, i)
                    verdicts.add(verdict)
    assert verdicts == {True, False}


def test_verdicts_agree_on_random_cycles(corpus, subdivisions):
    # s_i + boundary(x) for random (i+1)-chains x of K', compared with s_i and on their own
    rng = random.Random(21)
    verdicts = set()
    for entry in _euler(corpus):
        sub = subdivisions[entry.name]
        kp, k = sub.complex, entry.complex
        for i in range(k.dim):
            s_i = sw.stiefel_chain(sub, i)
            for x in _random_chains(rng, kp, i + 1, count=4)[1:]:
                c = s_i + hom.boundary(kp, x)
                pc = sw.last_vertex_chain_map(sub, c)
                verdict = _bounds(kp, c)
                assert _bounds(k, pc) == verdict, (entry.name, i)
                assert hom.homologous(k, pc, sw.last_vertex_chain_map(sub, s_i))
                verdicts.add(verdict)
    assert verdicts == {True, False}


def _verdicts(k):
    """Every verdict taken through pi: w_i = 0 in K, and subdivision invariance in K'."""
    sub1 = barycentric_subdivision(k)
    sub2 = barycentric_subdivision(sub1.complex)
    out = []
    for i in range(k.dim + 1):
        s1, s2 = sw.stiefel_chain(sub1, i), sw.stiefel_chain(sub2, i)
        out.append(_bounds(k, sw.last_vertex_chain_map(sub1, s1)))
        out.append(_bounds(sub1.complex, sw.last_vertex_chain_map(sub2, s2)))
        out.append(_bounds(sub1.complex, s1 + sw.last_vertex_chain_map(sub2, s2)))
    return out


def test_verdicts_survive_reversing_the_vertex_order(corpus):
    for entry in _euler(corpus):
        if len(entry.complex.level_set(0)) > 1:
            assert _verdicts(reverse_order(entry.complex)) == _verdicts(entry.complex), entry.name


def test_suites_survive_reversing_the_vertex_order(corpus):
    names = ("rp2_6_embedded", "torus_7", "wedge_circles")
    flipped = {n: CorpusEntry(n, reverse_order(corpus[n].complex), True, True) for n in names}
    axioms = verify.run_axioms_suite(5, 4, flipped)
    polar_report = verify.run_polar_suite(5, 4, flipped)
    for report in (axioms, polar_report):
        assert report.ok, [(p.name, p.counterexample) for p in report.properties if p.failures]
    assert axioms.prop("subdivision invariance of the Stiefel class").trials == 8
    # two planes a rank on the two embedded spaces
    assert polar_report.prop("projection chain is homologous to the Stiefel chain").trials == 10


def test_pushforward_axiom_matches_the_oracle_one_level_up(map_suite):
    # f'#(w_i(a)) ~ w_i(f_* a), decided in the codomain's K' by elimination
    rng = random.Random(22)
    for m in map_suite:
        f = m.map
        fp = subdivision_oracle.induced_subdivided_map(f)
        sd, sc = Subdivision(f.domain), Subdivision(f.codomain)
        ones = cal.constant(f.domain, 1, cal.RING_Z2)
        fns = ([ones] if cal.is_euler_function(ones) else [])
        fns += [verify.random_euler_function(rng, f.domain) for _ in range(4)]
        for a in fns:
            fa = cal.pushforward(f, a)
            for i in range(f.domain.dim + 1):
                lhs = subdivision_oracle.chain_pushforward(fp, sw.sw_representative(sd, a, i))
                rhs = (sw.sw_representative(sc, fa, i) if i <= f.codomain.dim
                       else hom.Mod2Chain(i, frozenset()))
                expected = hom.homologous(fp.codomain, lhs, rhs)
                assert sw.verify_pushforward_axiom(f, a, i) == expected, (m.name, i)


def _guard_complex(monkeypatch, refuse):
    """Make ``Subdivision.complex`` raise when ``refuse(sub, built)``; built lists those made."""
    real, built = Subdivision.complex.func, []

    def guarded(self):
        if refuse(self, built):
            raise AssertionError(f"built the subdivision of a {self.base.dim}-complex")
        built.append(real(self))
        return built[-1]

    prop = cached_property(guarded)
    prop.__set_name__(Subdivision, "complex")
    monkeypatch.setattr(Subdivision, "complex", prop)


def test_axioms_suite_builds_no_second_subdivision(monkeypatch, corpus):
    expected = verify.run_axioms_suite(3, 6, corpus)
    # K'' is the subdivision of a complex that is itself a built K'
    _guard_complex(monkeypatch, lambda sub, built: any(sub.base is k for k in built))
    again = verify.run_axioms_suite(3, 6, corpus)
    assert [(p.name, p.trials, p.failures) for p in again.properties] == [
        (p.name, p.trials, p.failures) for p in expected.properties
    ]


def test_axioms_suite_subdivides_only_the_euler_corpus_spaces(monkeypatch, corpus):
    # K' and K'' of each Euler space for subdivision invariance; nothing for the map suite
    bases, real = [], verify.barycentric_subdivision
    monkeypatch.setattr(verify, "barycentric_subdivision", lambda k: bases.append(k) or real(k))
    assert verify.run_axioms_suite(3, 6, corpus).ok
    assert len(bases) == 2 * sum(e.euler for e in corpus.values())


def test_polar_suite_reads_the_stiefel_class_on_k(monkeypatch, corpus):
    def refuse(*args):
        raise AssertionError("mapped a chain of K' down to K")

    monkeypatch.setattr(sw, "last_vertex_chain_map", refuse)
    report = verify.run_polar_suite(2, 10, corpus)
    assert report.ok and report.prop("projection chain is homologous to the Stiefel chain").trials


def test_pushforward_axiom_builds_no_subdivided_complex(monkeypatch, map_suite):
    # both sides are read on the base complexes: not even one dimension of K' is walked
    def no_flags(self, i):
        raise AssertionError(f"read the {i}-flags of a subdivision")

    monkeypatch.setattr(Subdivision, "flags", no_flags)
    _guard_complex(monkeypatch, lambda sub, built: True)
    for m in map_suite:
        f = m.map
        ones = cal.constant(f.domain, 1, cal.RING_Z2)
        if cal.is_euler_function(ones):
            for i in range(f.domain.dim + 1):
                assert sw.verify_pushforward_axiom(f, ones, i), (m.name, i)


@pytest.mark.parametrize("i, collapsing", [(0, False), (1, False), (1, True), (2, False),
                                           (2, True)])
def test_axioms_suite_fails_without_one_flag_of_k_double_prime(monkeypatch, corpus, i, collapsing):
    # drop one i-simplex of K'' from s_i(K''); when pi# drops it too, only the cycle test sees it
    real = sw.stiefel_chain

    def mutated(sub, dim):
        c = real(sub, dim)
        if dim != i or not sub.base.vertices[0].startswith("b("):
            return c
        last = {v: s[-1] for v, s in sub.carriers.items()}
        drop = next(s for s in sorted(c.support)
                    if (len({last[v] for v in s}) < len(s)) == collapsing)
        return hom.Mod2Chain(dim, c.support - {drop})

    monkeypatch.setattr(sw, "stiefel_chain", mutated)
    report = verify.run_axioms_suite(1, 1, {"boundary_delta3": corpus["boundary_delta3"]})
    prop = report.prop("subdivision invariance of the Stiefel class")
    assert prop.trials == 3 and prop.failures == 1
    assert prop.counterexample == {"complex": "boundary_delta3", "i": i}
