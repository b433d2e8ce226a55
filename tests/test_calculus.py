import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NON_EULER_SPACES
from relabelling import fresh_ids, relabel, relabel_function
from whitney import calculus as cal
from whitney.errors import CalculusError, ComplexError
from whitney.simplicial import SimplicialComplex, barycentric_subdivision, build_complex, faces
from whitney.verify import random_closed_subcomplex, random_function


def closed(k, *simplices):
    out = set()
    for s in simplices:
        out.update(faces(tuple(sorted(s))))
    return cal.indicator(k, out)


def product(a, b):
    return cal.from_values(a.base, {s: a(s) * b(s) for s in a.base.simplices})


def test_chi_matches_alternating_count(corpus):
    for entry in corpus.values():
        k = entry.complex
        assert cal.chi(cal.constant(k, 1)) == sum(
            (-1) ** (len(s) - 1) for s in k.simplices
        )


def test_chi_is_additive(rp2):
    a = closed(rp2, ("1", "2", "3"))
    b = closed(rp2, ("1", "3", "4"))
    both = cal.add(a, b)
    assert cal.chi(both) == cal.chi(a) + cal.chi(b)


def test_dual_of_closed_simplex_indicator(corpus):
    # D(1_B) = (-1)^k (1_B - 1_dB) for a closed k-simplex B
    k = corpus["delta2"].complex
    d = cal.dual(cal.constant(k, 1))
    assert d(("1", "2", "3")) == 1
    assert d(("1", "2")) == 0
    assert d(("1",)) == 0


def test_dual_on_circle_is_negation(circle):
    d = cal.dual(cal.constant(circle, 1))
    for s in circle.simplices:
        assert d(s) == -1


def test_dual_matches_link_formula(corpus):
    for name in ("bowtie", "rp2_6", "cone_s1_3"):
        k = corpus[name].complex
        sub = set(k.simplices)
        d = cal.dual(cal.constant(k, 1))
        for s in k.simplices:
            assert d(s) == cal.link_dual_oracle(k, sub, s)


def test_duality_is_involution(rp2):
    a = closed(rp2, ("1", "2", "3"), ("2", "4"))
    assert cal.dual(cal.dual(a)).values == a.values


def test_pushforward_fold_values(map_suite):
    fold = next(m for m in map_suite if m.name == "fold").map
    fa = cal.pushforward(fold, cal.constant(fold.domain, 1))
    assert fa(("p",)) == 2
    assert fa(("q",)) == 2
    assert fa(("p", "q")) == 4
    assert cal.chi(fa) == 0


def test_pushforward_preserves_chi(map_suite):
    for m in map_suite:
        a = cal.constant(m.map.domain, 1)
        assert cal.chi(cal.pushforward(m.map, a)) == cal.chi(a)


def test_pushforward_matches_fiber_oracle(map_suite):
    for m in map_suite:
        fa = cal.pushforward(m.map, cal.constant(m.map.domain, 1))
        for q in m.map.codomain.vertices:
            assert fa((q,)) == cal.fiber_chi_oracle(m.map, q)


def test_pullback_values(map_suite):
    cover = next(m for m in map_suite if m.name == "double_cover").map
    b = closed(cover.codomain, ("1", "2"))
    pb = cal.pullback(cover, b)
    assert pb(("0",)) == 1 and pb(("0", "1")) == 1
    assert pb(("2",)) == 0


def test_projection_formula_chi(map_suite):
    # chi(f_*(a) * b) = chi(a * f^* b)
    cover = next(m for m in map_suite if m.name == "double_cover").map
    a = closed(cover.domain, ("0", "1"), ("3",))
    b = closed(cover.codomain, ("1", "2"))
    lhs = cal.chi(product(cal.pushforward(cover, a), b))
    rhs = cal.chi(product(a, cal.pullback(cover, b)))
    assert lhs == rhs


def test_euler_space_census(corpus):
    assert NON_EULER_SPACES < set(corpus)
    for entry in corpus.values():
        report = cal.is_euler_space(entry.complex)
        assert report.is_euler == (entry.name not in NON_EULER_SPACES) == entry.euler, entry.name
        if not report.is_euler:
            assert report.offenders


def test_euler_space_matches_general_path(corpus, subdivisions):
    """The coface-parity closed form against euler_offenders of the constant 1 mod 2."""
    rng = random.Random(15)
    spaces = [e.complex for e in corpus.values()] + [s.complex for s in subdivisions.values()]
    for kp in [s.complex for s in subdivisions.values()] * 25:
        sub = random_closed_subcomplex(rng, kp)
        if sub:
            spaces.append(SimplicialComplex(kp.vertices, tuple(sorted(sub))))
    assert len(spaces) >= 2 * len(corpus) + 300
    for k in spaces:
        oracle = tuple(cal.euler_offenders(cal.constant(k, 1, cal.RING_Z2)))
        assert cal.is_euler_space(k) == cal.EulerSpaceReport(not oracle, oracle)
    assert {cal.is_euler_space(k).is_euler for k in spaces} == {True, False}


def _offenders_by_dual(a):
    d = cal.dual(a)
    return [s for s in a.base.simplices if (d(s) - a(s)) % 2]


def test_euler_offenders_match_the_dual(corpus, subdivisions):
    """The coface-sum closed form against dual(a) - a odd, its definition."""
    rng = random.Random(34)
    spaces = [e.complex for e in corpus.values()] + [s.complex for s in subdivisions.values()]
    found = set()
    for k in spaces:
        for ring in (cal.RING_Z, cal.RING_Z2):
            for value in (1, 2, 3):
                a = cal.constant(k, value, ring)
                assert cal.euler_offenders(a) == _offenders_by_dual(a)
            for _ in range(3):
                a = cal.from_values(k, {s: rng.randint(-3, 3) for s in k.simplices}, ring)
                offenders = cal.euler_offenders(a)
                assert offenders == _offenders_by_dual(a)
                found.add(bool(offenders))
    assert found == {True, False}


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data(), ring=st.sampled_from([cal.RING_Z, cal.RING_Z2]))
def test_euler_offenders_match_the_dual_on_any_function(corpus, data, ring):
    k = corpus[data.draw(st.sampled_from(sorted(corpus)))].complex
    values = data.draw(st.lists(st.integers(-4, 4), min_size=len(k.simplices),
                                max_size=len(k.simplices)))
    a = cal.from_values(k, dict(zip(k.simplices, values)), ring)
    assert cal.euler_offenders(a) == _offenders_by_dual(a)


def test_euler_space_builds_no_function(corpus, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("is_euler_space built a constructible function")

    monkeypatch.setattr(cal.ConstructibleFunction, "__post_init__", refuse)
    assert not cal.is_euler_space(corpus["bowtie"].complex).is_euler
    assert cal.is_euler_space(corpus["rp2_6"].complex).is_euler


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2 ** 16), ring=st.sampled_from([cal.RING_Z, cal.RING_Z2]),
       data=st.data())
def test_dual_commutes_with_relabelling(corpus, seed, ring, data):
    k = corpus[data.draw(st.sampled_from(sorted(corpus)))].complex
    new = fresh_ids(data, k)
    k2 = relabel(k, new)
    a = random_function(random.Random(seed), k, ring)
    assert cal.dual(relabel_function(a, k2, new)) == relabel_function(cal.dual(a), k2, new)


def test_bowtie_offenders(corpus):
    report = cal.is_euler_space(corpus["bowtie"].complex)
    assert not report.is_euler
    # the joint vertex is fine; boundary simplices are the offenders
    assert ("3",) not in report.offenders
    assert ("1",) in report.offenders


def test_euler_function_generator(rp2):
    beta = closed(rp2, ("1", "2", "3"))
    beta2 = cal.reduce_mod2(beta)
    alpha = cal.add(beta2, cal.dual(beta2))
    assert cal.is_euler_function(alpha)
    assert not cal.is_euler_function(beta2)  # a closed triangle is not Euler


def test_constant_one_euler_iff_space(corpus):
    for entry in corpus.values():
        ones = cal.constant(entry.complex, 1, cal.RING_Z2)
        assert cal.is_euler_function(ones) == entry.euler


def test_function_must_cover_every_simplex_exactly(circle):
    ones = cal.constant(circle, 1)
    missing = {s: v for s, v in ones.values.items() if s != ("1", "2")}
    for values in (missing, {**ones.values, ("1", "2", "3"): 1}, {**missing, ("9",): 1}):
        for ring in (cal.RING_Z, cal.RING_Z2):
            with pytest.raises(CalculusError, match="values must cover every simplex exactly once"):
                cal.ConstructibleFunction(circle, ring, values)


def test_mod2_dual_is_the_reduced_signed_sum(corpus, map_suite):
    # one signed sum over Z: mod 2 the signs vanish, so reducing first or last agrees
    rng = random.Random(61)

    def any_function(k):
        return cal.from_values(k, {s: rng.randint(-3, 3) for s in k.simplices})

    for entry in corpus.values():
        for _ in range(3):
            a = any_function(entry.complex)
            a2 = cal.reduce_mod2(a)
            assert cal.dual(a2) == cal.reduce_mod2(cal.dual(a)), entry.name
            assert cal.chi(a2) == cal.chi(a) % 2, entry.name
            assert cal.euler_offenders(a) == cal.euler_offenders(a2), entry.name
    for m in map_suite:
        for _ in range(3):
            a = any_function(m.map.domain)
            assert cal.pushforward(m.map, cal.reduce_mod2(a)) == cal.reduce_mod2(
                cal.pushforward(m.map, a)
            ), m.name


def test_ring_mismatch_rejected(circle):
    a = cal.constant(circle, 1, cal.RING_Z)
    b = cal.constant(circle, 1, cal.RING_Z2)
    with pytest.raises(CalculusError, match="different ring tags"):
        cal.add(a, b)
    with pytest.raises(CalculusError, match="different complexes"):
        cal.add(a, cal.constant(barycentric_subdivision(circle).complex, 1))


def test_indicator_sum_checks_each_term(corpus, rp2):
    # the least missing face of the first bad term is named, whatever the input order
    message = r"subcomplex is not face-closed: missing face \['1'\]"
    with pytest.raises(CalculusError, match=message):
        cal.indicator(rp2, [("3", "2"), ("2", "1")])
    with pytest.raises(CalculusError, match=message):
        cal.indicator_sum(rp2, [(2, [("2", "1"), ("2",)])], cal.RING_Z2)
    with pytest.raises(ComplexError, match=r"simplex \['9'\] is not in the complex"):
        cal.indicator(rp2, [("9",)])
    bad_late = [("1", "2")]  # missing ['1'] and ['2']
    bad_first = [("4", "5"), ("5",)]  # missing ['4'] only
    with pytest.raises(CalculusError, match=r"missing face \['4'\]"):
        cal.indicator_sum(rp2, [(1, faces(("1", "2", "3"))), (3, bad_first), (-1, bad_late)])
    with pytest.raises(CalculusError, match=r"missing face \['4'\]"):
        cal.indicator_sum(rp2, [(3, bad_first), (1, [("9",)])])
    # a valid sum is the pointwise sum of its terms' indicators
    rng = random.Random(29)
    for entry in corpus.values():
        k = entry.complex
        terms = [(rng.randint(-3, 3), random_closed_subcomplex(rng, k)) for _ in range(3)]
        expected = {s: sum(c for c, sub in terms if s in sub) for s in k.simplices}
        for ring in (cal.RING_Z, cal.RING_Z2):
            assert cal.indicator_sum(k, terms, ring) == cal.from_values(k, expected, ring), entry.name


def test_mod2_values_normalized(circle):
    a = cal.from_values(circle, {("1",): 3}, cal.RING_Z2)
    assert a(("1",)) == 1


def test_subdivide_function_preserves_chi(rp2):
    sub = barycentric_subdivision(rp2)
    a = closed(rp2, ("1", "2", "3"), ("4", "5"))
    ap = cal.subdivide_function(sub, a)
    assert cal.chi(ap) == cal.chi(a)
    # open-cell values are constant on cells of the carrier
    assert ap(("b(1,2,3)",)) == a(("1", "2", "3"))
    assert ap(("b(1)",)) == a(("1",))


def test_chi_of_known_spaces(corpus):
    cases = {"rp2_6": 1, "torus_7": 0, "boundary_delta3": 2, "pinched_torus": 1}
    for name, expected in cases.items():
        assert cal.chi(cal.constant(corpus[name].complex, 1)) == expected


def test_duality_commutes_with_subdivision(corpus, subdivisions):
    # the fact that lets an Euler test on K decide the function on K'
    rng = random.Random(12)
    cases = non_euler = 0
    for name, entry in corpus.items():
        sub = subdivisions[name]
        for ring in (cal.RING_Z, cal.RING_Z2):
            functions = [cal.constant(entry.complex, 1, ring)]
            functions += [random_function(rng, entry.complex, ring) for _ in range(3)]
            for a in functions:
                assert cal.dual(cal.subdivide_function(sub, a)) == cal.subdivide_function(
                    sub, cal.dual(a)
                ), (name, ring)
                cases += 1
                non_euler += not cal.is_euler_function(a)
    assert cases == 8 * len(corpus) and non_euler > cases // 3
