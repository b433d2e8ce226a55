"""``sw.base_representative``: class representatives read on K in closed form.

R_i(a) is pi# of the carrier chain of a on K', summed from the cofaces of
K.  These tests check it against three oracles that share no code with
it: pi# after the flag walk (``last_vertex_chain_map`` of
``sw_representative``), one level up and under relabelling; the polar
chain of the vertex-rank moment curve on K; and known answers, among them
the 4-sphere and four complex curves, two of them singular.  They also check that ``verify`` turns a representative
that is not a cycle into a failed trial.
"""

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relabelling import fresh_ids, relabel, relabel_function, rename, reverse_order
from whitney import calculus as cal
from whitney import cli, polar, sw, verify
from whitney import homology as hom
from whitney.errors import CalculusError, HomologyError, NotEulerError
from whitney.simplicial import Subdivision, build_complex


def _oracle(k, a, i):
    sub = Subdivision(k)
    return sw.last_vertex_chain_map(sub, sw.sw_representative(sub, a, i))


def _functions(rng, k, euler_space):
    """The constant function on an Euler space, then three random Euler functions."""
    ones = [cal.constant(k, 1, cal.RING_Z2)] if euler_space else []
    return ones + [verify.random_euler_function(rng, k) for _ in range(3)]


def _sphere4():
    """S^4 as the boundary of the 5-simplex: 62 simplices."""
    return build_complex([str(v) for v in range(6)], combinations([str(v) for v in range(6)], 5))


def test_matches_pi_of_the_flag_representative(corpus):
    rng = random.Random(31)
    cases = 0
    for name, entry in corpus.items():
        k = entry.complex
        for a in _functions(rng, k, entry.euler):
            for i in range(k.dim + 1):
                assert sw.base_representative(k, a, i) == _oracle(k, a, i), (name, i)
                cases += 1
    assert cases > 150


def test_matches_pi_one_level_up(corpus, subdivisions):
    # on K' of every Euler space, with K' in canonical and in reversed vertex order
    rng = random.Random(32)
    for name, entry in corpus.items():
        if not entry.euler:
            continue
        kp = subdivisions[name].complex
        for k in (kp, reverse_order(kp)):
            for a in [cal.constant(k, 1, cal.RING_Z2), verify.random_euler_function(rng, k)]:
                for i in range(k.dim + 1):
                    assert sw.base_representative(k, a, i) == _oracle(k, a, i), (name, i)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2 ** 16), data=st.data())
def test_relabelling_keeps_the_oracle_and_the_class(corpus, seed, data):
    k = corpus[data.draw(st.sampled_from(sorted(corpus)))].complex
    i = data.draw(st.integers(0, k.dim))
    new = fresh_ids(data, k)
    k2 = relabel(k, new)
    a = verify.random_euler_function(random.Random(seed), k)
    a2 = relabel_function(a, k2, new)
    r2 = sw.base_representative(k2, a2, i)
    assert r2 == _oracle(k2, a2, i)
    # the closed form reads the vertex order, so the chain may move; its class may not
    r = sw.base_representative(k, a, i)
    renamed = hom.Mod2Chain(i, frozenset(rename(s, new) for s in r.support))
    assert hom.homologous(k2, renamed, r2)


def _moment_curve(k, i):
    """v -> (r, r^2, ..., r^(i+1)), r the index of v in the canonical vertex order."""
    return polar.AffineVertexMap(
        k, i + 1, {v: tuple(r ** (j + 1) for j in range(i + 1)) for r, v in enumerate(k.vertices)}
    )


def test_equals_the_polar_chain_of_the_moment_curve(corpus, subdivisions):
    # for an Euler function both half-links give the same chain, whatever the normal's sign
    rng = random.Random(33)
    small = {"s1_3", "boundary_delta3", "rp2_6", "wedge_circles"}
    spaces = [(n, e.complex) for n, e in corpus.items()]
    spaces += [(n + "'", subdivisions[n].complex) for n in sorted(small)]
    cases = 0
    for name, k in spaces:
        for a in _functions(rng, k, cal.is_euler_space(k).is_euler):
            for i in range(k.dim + 1):
                expected = polar.polar_chain(_moment_curve(k, i), cal.reduce_mod2(a))
                assert sw.base_representative(k, a, i) == expected, (name, i)
                cases += 1
    assert cases > 150


def _signed_euler_function(rng, k):
    """3 beta - D beta over Z for a random mod 2 beta: Euler, with values outside {0, 1}."""
    beta = cal.from_values(k, cal.reduce_mod2(verify.random_function(rng, k)).values)
    d = cal.dual(beta)
    return cal.from_values(k, {s: 3 * beta(s) - d(s) for s in k.simplices})


def test_class_readers_take_the_function_as_given(corpus, subdivisions, map_suite):
    # only the parity of a counts: each reader gives on a what it gives on a mod 2
    rng = random.Random(34)
    values = set()
    for name, entry in corpus.items():
        k, sub = entry.complex, subdivisions[name]
        a = _signed_euler_function(rng, k)
        a2 = cal.reduce_mod2(a)
        values.update(a.values.values())
        a_prime, a2_prime = cal.subdivide_function(sub, a), cal.subdivide_function(sub, a2)
        for i in range(k.dim + 1):
            assert sw.sw_representative(sub, a, i) == sw.sw_representative(sub, a2, i), (name, i)
            assert sw.base_representative(k, a, i) == sw.base_representative(k, a2, i), (name, i)
            assert polar.moment_chain(sub, a, i) == polar.moment_chain(sub, a2, i), (name, i)
            for f, b, b2 in ((_moment_curve(k, i), a, a2),
                             (polar.moment_map(sub, i), a_prime, a2_prime)):
                assert polar.polar_chain(f, b) == polar.polar_chain(f, b2), (name, i)
    assert min(values) < 0 and max(values) > 1
    for m in map_suite:
        for a in [_signed_euler_function(rng, m.map.domain) for _ in range(3)]:
            for i in range(m.map.domain.dim + 1):
                assert sw.verify_pushforward_axiom(m.map, a, i), (m.name, i)
                assert sw.verify_pushforward_axiom(m.map, cal.reduce_mod2(a), i), (m.name, i)


def test_top_class_of_one_is_the_fundamental_cycle(corpus):
    # pi# sd# = id, and the top Stiefel chain is sd# of the fundamental cycle
    for name, entry in corpus.items():
        if entry.euler and entry.pure:
            k = entry.complex
            ones = cal.constant(k, 1, cal.RING_Z2)
            assert sw.base_representative(k, ones, k.dim) == hom.fundamental_cycle(k), name


def test_classes_of_the_four_sphere():
    k = _sphere4()
    assert len(k.simplices) == 62 and cal.is_euler_space(k).is_euler
    ones = cal.constant(k, 1, cal.RING_Z2)
    for i in range(4):
        rep = sw.base_representative(k, ones, i)
        assert hom.is_cycle(k, rep) and hom.is_boundary(k, rep)[0], i
    assert sw.base_representative(k, ones, 4) == hom.fundamental_cycle(k)


@pytest.mark.parametrize("name, euler_characteristic", [
    ("pinched_torus", 1), ("wedge_spheres", 3), ("torus_7", 0), ("boundary_delta3", 2)])
def test_classes_of_complex_curves(corpus, name, euler_characteristic):
    # on a complex variety w_2k is c_k mod 2 and the odd classes vanish (PAPER.md); the
    # nodal cubic and two lines meeting in a point are singular curves
    k = corpus[name].complex
    assert cal.chi(cal.constant(k, 1, cal.RING_Z)) == euler_characteristic
    ones = cal.constant(k, 1, cal.RING_Z2)
    assert hom.is_boundary(k, sw.base_representative(k, ones, 1))[0]
    point = hom.Mod2Chain(0, frozenset(k.level(0)[:euler_characteristic % 2]))
    assert hom.homologous(k, sw.base_representative(k, ones, 0), point)


def test_checks_in_the_order_of_sw_representative(corpus):
    delta2, s1 = corpus["delta2"].complex, corpus["s1_3"].complex
    not_euler = cal.constant(delta2, 1, cal.RING_Z2)
    euler = cal.constant(s1, 1, cal.RING_Z2)
    with pytest.raises(NotEulerError):
        sw.base_representative(s1, not_euler, 9)
    with pytest.raises(HomologyError, match="out of range"):
        sw.base_representative(delta2, euler, 9)
    with pytest.raises(CalculusError, match="not based on the complex"):
        sw.base_representative(corpus["s1_6"].complex, euler, 0)


def test_verify_fails_a_trial_when_a_representative_is_not_a_cycle(tmp_path, monkeypatch):
    # dropping one simplex of a nonzero 1-cycle leaves two odd endpoints
    real = sw.base_representative

    def broken(k, a, i):
        c = real(k, a, i)
        if i != 1 or not c:
            return c
        return hom.Mod2Chain(1, c.support - {min(c.support)})

    monkeypatch.setattr(sw, "base_representative", broken)
    monkeypatch.chdir(tmp_path)
    for suite in ("axioms", "polar", "stiefel"):
        assert cli.main(["verify", "--suite", suite, "--seed", "1", "--trials", "4"]) == 1, suite
        written = json.loads((tmp_path / f"counterexample_{suite}_1.json").read_text())
        assert written["i"] == 1, suite
