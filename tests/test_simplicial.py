import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subdivision_oracle
from closure_oracle import EagerComplex
from relabelling import relabel
from whitney import calculus as cal
from whitney import cli, fileio, simplicial
from whitney.errors import ComplexError, InputError, MapError
from whitney.simplicial import (
    SimplicialComplex,
    Subdivision,
    barycentric_subdivision,
    build_complex,
    compose,
    faces,
    impure_simplex,
    link,
    validate_map,
)
from whitney.verify import random_closed_subcomplex


def test_face_closure():
    k = build_complex(["1", "2", "3"], [["1", "2", "3"]])
    assert len(k.simplices) == 7
    assert ("1", "3") in k.simplex_set
    assert k.dim == 2


def _assert_closes_as_eager(k, listed, what):
    """k agrees with the eager closure of its listed simplices; its levels are read bottom up first."""
    eager = EagerComplex(listed)
    assert [len(k.level(d)) for d in range(-1, eager.dim + 3)] == \
        [eager.n_simplices(d) for d in range(-1, eager.dim + 3)], what
    assert k.dim == eager.dim, what
    assert {d: tuple(k.level(d)) for d in range(k.dim + 1)} == eager.by_dim, what
    assert k.simplices == eager.simplices, what
    assert k.simplex_set == eager.simplex_set, what
    assert k.cofaces == eager.cofaces, what
    whole = SimplicialComplex(eager.simplices, k.coordinates)
    assert k == whole and whole == k, what
    assert hash(k) == hash(whole), what
    top = eager.by_dim[eager.dim][-1]
    assert k != SimplicialComplex([s for s in eager.simplices if s != top], k.coordinates), what


def test_levels_match_the_eager_closure_on_the_corpus(corpus):
    for name, entry in corpus.items():
        data = fileio.load_json(Path(simplicial.__file__).parent / "corpus" / f"{name}.json")
        k = fileio.complex_from_dict(data)
        _assert_closes_as_eager(k, data["maximal_simplices"], name)
        # relabelled so that the canonical vertex order is reversed
        new = {v: f"v{len(k.vertices) - 1 - j:03d}" for j, v in enumerate(k.vertices)}
        _assert_closes_as_eager(relabel(k, new), [[new[v] for v in s]
                                                  for s in data["maximal_simplices"]],
                                (name, "relabelled"))
        sub = Subdivision(entry.complex)
        flags = [s for i in range(entry.complex.dim + 1) for s in sub.flags(i)]
        _assert_closes_as_eager(sub.complex, flags, (name, "sd1"))
        sd1 = fileio.complex_to_dict(sub.complex)
        _assert_closes_as_eager(fileio.complex_from_dict(sd1), sd1["maximal_simplices"],
                                (name, "sd1 from its maximal simplices"))


@pytest.mark.parametrize("listed", [
    [["1", "2", "3"], ["3", "4"]],
    [["1", "2", "3"], ["1", "2"], ["2"]],
    [["1", "2", "3"], ["4"]],
    [["1"]],
    [["1", "2", "3"], ["3", "4"], ["3", "2", "1"]],
], ids=["dangling-edge", "face-beside-coface", "lone-vertex", "point", "top-listed-twice"])
def test_levels_match_the_eager_closure_on_impure_listings(listed):
    vertices = sorted({v for s in listed for v in s})
    _assert_closes_as_eager(build_complex(vertices, listed), listed, listed)
    # read top down this time: the top level first, then one below it
    k = build_complex(vertices, listed)
    eager = EagerComplex(listed)
    assert len(k.level(k.dim)) == eager.n_simplices(eager.dim)
    assert tuple(k.level(k.dim - 1)) == eager.by_dim.get(eager.dim - 1, ())
    assert k.simplices == eager.simplices


def _read_off_listings(corpus, subdivisions):
    """(complex, its listing, what): corpus spaces, their K', vertex links, and restricted K'.

    The restricted complexes are drawn as the polar suite draws them: links of
    two vertices of K', then closed subcomplexes of K'; each lists every simplex.
    """
    rng = random.Random(3)
    for name, entry in corpus.items():
        k, kp = entry.complex, subdivisions[name].complex
        yield k, k.maximal(), name
        yield kp, kp.maximal(), (name, "sd1")
        cofaces = EagerComplex(k.maximal()).cofaces
        for (v,) in k.level(0):
            yield link(k, (v,)), [tuple(w for w in t if w != v)
                                  for t in cofaces[(v,)] if t != (v,)], (name, "link", v)
        subs = [set(link(kp, (v,)).simplices)
                for v in rng.sample(kp.vertices, min(2, len(kp.vertices)))]
        subs += [random_closed_subcomplex(rng, kp) for _ in range(3)]
        for sub in filter(None, subs):
            yield SimplicialComplex(sub), sub, (name, "restricted")


def test_vertices_are_level_zero_of_the_listing(corpus, subdivisions):
    """A complex's vertices are those of its listed simplices, in canonical order, and no more."""
    for k, listed, what in _read_off_listings(corpus, subdivisions):
        eager = EagerComplex(listed)
        fresh = SimplicialComplex(listed, k.coordinates)
        # read before any level, and after
        assert fresh.vertices == tuple(v for (v,) in fresh.level(0)), what
        assert k.vertices == tuple(v for (v,) in k.level(0)) == fresh.vertices, what
        assert fresh.vertices == tuple(sorted({v for s in listed for v in s})), what
        assert [tuple(k.level(d)) for d in range(-1, k.dim + 2)] == \
            [eager.by_dim.get(d, ()) for d in range(-1, eager.dim + 2)], what


def test_a_level_is_read_without_another(corpus, subdivisions):
    """On a fresh complex, level d is read off the listing: no other level is closed."""
    for k, listed, what in _read_off_listings(corpus, subdivisions):
        for d in range(-1, k.dim + 2):
            fresh = SimplicialComplex(listed, k.coordinates)
            assert tuple(fresh.level(d)) == tuple(k.level(d)), (what, d)
            assert list(fresh._levels) == ([d] if 0 <= d <= k.dim else []), (what, d)


def test_maximal_matches_the_eager_closure_on_the_corpus(corpus):
    for name, entry in corpus.items():
        data = fileio.load_json(Path(simplicial.__file__).parent / "corpus" / f"{name}.json")
        # read on a fresh complex, before any level is closed, and on a closed one
        fresh, closed = fileio.complex_from_dict(data), entry.complex
        closed.simplices
        eager = EagerComplex(data["maximal_simplices"])
        assert fresh.maximal() == closed.maximal() == eager.maximal, name
        prime = Subdivision(fileio.complex_from_dict(data)).complex
        assert prime.maximal() == EagerComplex(subdivision_oracle.barycentric_subdivision(
            entry.complex)[0].simplices).maximal, name


# ids whose barycenter names sort unlike their tuples, and ids with commas, whose
# keys may equal those of other simplices: ("a", "b") and ("a,b",) are both "a,b"
IDS = ["a", "b", "c", "1", "1!", "10", "a b", "\u00e9", "z", "a,b", ",", "b,"]


@st.composite
def _listings(draw):
    """Simplices on up to four vertices, in any order, with faces of listed ones and repeats."""
    listed = draw(st.lists(st.lists(st.sampled_from(IDS), min_size=1, max_size=4, unique=True),
                           min_size=1, max_size=6))
    # a subset of a listed simplex, in any order: a face of it, or the simplex again
    again = st.sampled_from(listed).flatmap(
        lambda s: st.lists(st.sampled_from(s), min_size=1, max_size=len(s), unique=True))
    return draw(st.permutations(listed + draw(st.lists(again, max_size=4))))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(listed=_listings())
@example(listed=[["a", "b", "c"], ["c", "b", "a"], ["a", "b"], ["b"], ["z"]])
# three listed edges, one a repeat, against three in level 1: the count alone would take the listing
@example(listed=[["a", "b"], ["b", "c"], ["a", "b"], ["a", "b", "c"]])
# the whole of levels 1 and 0 listed, with repeats, so more often than they have simplices
@example(listed=[["b", "a"], ["a", "b"], ["a"], ["b"], ["b"]])
@example(listed=[["a", "b", "a,b"]])
def test_maximal_and_the_subdivision_listing_match_the_oracles_on_impure_listings(listed):
    vertices, eager = sorted({v for s in listed for v in s}), EagerComplex(listed)
    dims = range(-1, eager.dim + 2)
    # each level read first, on a fresh complex, then again after ``simplices`` merged them
    assert [tuple(build_complex(vertices, listed).level(d)) for d in dims] == \
        [eager.by_dim.get(d, ()) for d in dims]
    k = build_complex(vertices, listed)
    assert k.simplices == eager.simplices
    assert [tuple(k.level(d)) for d in dims] == [eager.by_dim.get(d, ()) for d in dims]
    k = build_complex(vertices, listed)
    assert k.maximal() == eager.maximal
    assert k._levels == {}, "maximal() closed a level"
    assert k.vertices == tuple(v for (v,) in k.level(0)) == tuple(vertices)
    simplices = eager.simplices
    if len({",".join(s) for s in simplices}) < len(simplices):
        # two simplices share a key, so two barycenters would share a name
        with pytest.raises(ComplexError, match="ambiguous simplex key"):
            Subdivision(k).carriers
        return
    # K' lists exactly the full flags of K's maximal simplices, which are its maximal simplices
    prime = subdivision_oracle.barycentric_subdivision(k)[0]
    sub = Subdivision(k)
    top = EagerComplex(prime.simplices).maximal
    assert sorted(sub.complex._listed) == top == sub.complex.maximal()
    assert sub.complex == prime and sub.complex.simplices == prime.simplices


def test_names_key_each_simplex_in_canonical_order(corpus, subdivisions):
    for name, entry in corpus.items():
        for k in (entry.complex, subdivisions[name].complex):
            names = k.names()
            assert list(names.values()) == list(k.simplices), name
            assert list(names) == [",".join(s) for s in k.simplices], name
        assert subdivisions[name].carriers == {f"b({key})": s
                                               for key, s in entry.complex.names().items()}


def test_a_complex_whose_keys_collide_cannot_be_named():
    message = "ambiguous simplex key 'a,b' in this complex"
    k = build_complex(["a", "b", "a,b"], [["a", "b", "a,b"]])
    with pytest.raises(ComplexError) as e:
        k.names()
    assert str(e.value) == message
    with pytest.raises(ComplexError) as e:
        Subdivision(k).carriers
    assert str(e.value) == message
    # the size cap is read first
    big = ["a", "b", "a,b"] + [f"v{j}" for j in range(7)]
    with pytest.raises(ComplexError, match="subdivision too large"):
        Subdivision(build_complex(big, [big])).carriers


def test_duplicate_vertex_rejected():
    with pytest.raises((InputError, ComplexError)):
        build_complex(["a", "a"], [["a"]])


def test_degenerate_simplex_rejected():
    with pytest.raises((InputError, ComplexError)):
        build_complex(["a", "b"], [["a", "a"]])


def test_unknown_vertex_rejected():
    with pytest.raises((InputError, ComplexError)):
        build_complex(["a"], [["a", "b"]])


@pytest.mark.parametrize("maximal, message", [
    ([["a", "b"], ["c", "z", "b"], ["a", "a"]], "simplex ['c', 'z', 'b'] references unknown vertex 'z'"),
    ([["a", "b"], ["b", "c", "b"], ["z"]], "duplicate vertex inside simplex ['b', 'c', 'b']"),
    ([["a", "b"], [], ["a", "a"]], "a simplex needs at least one vertex"),
    ([["a", "b"], ["c", ["b"]]], "simplex ['c', ['b']] references unknown vertex ['b']"),
])
def test_the_first_bad_simplex_is_named(maximal, message):
    with pytest.raises(ComplexError) as e:
        build_complex(["a", "b", "c"], iter(maximal))
    assert str(e.value) == message


def test_affinely_dependent_coordinates_rejected():
    coords = {
        "1": (Fraction(0), Fraction(0)),
        "2": (Fraction(1), Fraction(1)),
        "3": (Fraction(2), Fraction(2)),
    }
    with pytest.raises((InputError, ComplexError)):
        build_complex(["1", "2", "3"], [["1", "2", "3"]], coords)


def test_integer_coordinates_are_exact():
    # int / int division would decide this triangle in floats and call it collinear
    a, b = 76370604, 999613466
    points = {"0": (0, 0), "1": (a, b), "2": (a * 10**11, b * 10**11 + 1)}
    for coords in (points, {v: tuple(map(Fraction, p)) for v, p in points.items()}):
        k = build_complex(["0", "1", "2"], [["0", "1", "2"]], coords)
        assert len(k.level(2)) == 1


def test_float_coordinates_rejected():
    with pytest.raises(ComplexError, match=r"vertex '0' must be ints or Fractions, got \[0.5\]"):
        build_complex(["0", "1"], [["0", "1"]], {"0": (0.5,), "1": (1,)})


def test_affine_independence_tested_once_per_listed_simplex(monkeypatch, corpus, subdivisions):
    tested = []
    real = simplicial._affinely_independent

    def counting(points):
        tested.append(len(points))
        return real(points)

    monkeypatch.setattr(simplicial, "_affinely_independent", counting)
    for k in (corpus["rp2_6_embedded"].complex, subdivisions["rp2_6_embedded"].complex):
        data = fileio.complex_to_dict(k)
        tested.clear()
        again = fileio.complex_from_dict(data)
        assert again.simplices == k.simplices
        assert len(tested) == len(data["maximal_simplices"]) < len(k.simplices)


def test_impure_simplex_agrees_with_index(corpus):
    # every bundled space is pure-dimensional, and its entry says so
    for entry in corpus.values():
        assert impure_simplex(entry.complex) is None and entry.pure, entry.name
    k = build_complex(["1", "2", "3", "4", "5"], [["1", "2", "3"], ["3", "4"], ["5"]])
    assert impure_simplex(k) == ("3", "4")


def _chi(k):
    return cal.chi(cal.constant(k, 1))


def test_link(sphere, corpus, subdivisions):
    lk = link(sphere, ("1",))
    # link of a vertex in the 2-sphere boundary is a triangle circle
    assert _chi(lk) == 0
    assert lk.dim == 1
    # link reads cofaces; check it against a scan of the definition
    for name, entry in corpus.items():
        for k in (entry.complex, subdivisions[name].complex):
            for s in k.simplices:
                scan = tuple(
                    t for t in k.simplices
                    if set(s).isdisjoint(t) and tuple(sorted(s + t)) in k.simplex_set
                )
                lk = link(k, s)
                assert lk.simplices == scan, (name, s)
                # the link's own vertices, each with its point in k
                vertices = tuple(t[0] for t in scan if len(t) == 1)
                assert lk.vertices == vertices, (name, s)
                assert lk.coordinates == (None if k.coordinates is None else
                                          {v: k.coordinates[v] for v in vertices}), (name, s)


def test_euler_characteristic(corpus):
    assert _chi(corpus["rp2_6"].complex) == 1
    assert _chi(corpus["torus_7"].complex) == 0
    assert _chi(corpus["boundary_delta3"].complex) == 2
    assert _chi(corpus["pinched_torus"].complex) == 1


def test_subdivision_counts(circle):
    sub = barycentric_subdivision(circle)
    # 3 + 3 vertices, each edge split in two
    assert len(sub.complex.level(0)) == 6
    assert len(sub.complex.level(1)) == 6
    assert _chi(sub.complex) == _chi(circle)


def test_subdivision_carriers(sphere):
    sub = barycentric_subdivision(sphere)
    for i in range(sphere.dim + 1):
        for s, carrier in sub.flags(i).items():
            flag = sorted((sub.carriers[v] for v in s), key=len)
            assert len(flag) == len(s)
            for small, big in zip(flag, flag[1:]):
                assert set(small) < set(big)
            assert flag[-1] == carrier
            assert carrier in sphere.simplex_set


def test_subdivision_coordinates(circle):
    sub = barycentric_subdivision(circle)
    coords = sub.complex.coordinates
    mid = coords["b(1,2)"]
    assert mid == tuple(
        (a + b) / 2 for a, b in zip(coords["b(1)"], coords["b(2)"])
    )


def _oracle_cases(corpus):
    """Every corpus space, sd1 of each, and sd2 of torus_7 and rp2_6_embedded (coordinates)."""
    for name, entry in corpus.items():
        k = entry.complex
        for level in range(3 if name in ("torus_7", "rp2_6_embedded") else 2):
            prime, carriers = subdivision_oracle.barycentric_subdivision(k)
            yield (name, level), k, prime, carriers
            k = prime


def test_subdivision_matches_face_poset_oracle(corpus):
    for case, k, prime, carriers in _oracle_cases(corpus):
        sub = Subdivision(k)
        # one dimension at a time, before K' exists, and one past the top
        for i in range(k.dim + 2):
            assert tuple(sorted(sub.flags(i))) == tuple(prime.level(i)), (case, i)
            # each flag's carrier is its largest vertex carrier
            assert all(c == max((carriers[v] for v in s), key=len)
                       for s, c in sub.flags(i).items()), (case, i)
        assert sub.carriers == carriers, case
        # K' lists the full flags of K's maximal simplices, and no other simplex
        top = set(EagerComplex(k.simplices).maximal)
        carrier = {f: max((carriers[v] for v in f), key=len) for f in prime.simplices}
        full = [f for f, s in carrier.items() if len(f) == len(s) and s in top]
        assert sorted(sub.complex._listed) == full, case
        assert sub.complex == prime, case
        assert sub.complex.simplices == prime.simplices, case
        assert list(sub.complex.coordinates or ()) == list(prime.coordinates or ()), case
        assert barycentric_subdivision(k).complex == prime, case


def test_subdivide_reads_no_closed_level_of_k_prime(tmp_path, monkeypatch):
    # K' of a complex listed at its top is listed at its top: writing it merges no level
    argv = ["subdivide", "--complex", Path(simplicial.__file__).parent / "corpus" / "torus_7.json"]
    assert cli.main([str(a) for a in argv + ["--out", tmp_path / "before.json"]]) == 0

    def refuse(name):
        read = getattr(SimplicialComplex, name)

        def get(k):
            if k.vertices[0].startswith("b("):
                raise AssertionError(f"{name} read on K'")
            return read.__get__(k, SimplicialComplex)
        return property(get)

    for name in ("simplices", "simplex_set"):
        monkeypatch.setattr(SimplicialComplex, name, refuse(name))
    assert cli.main([str(a) for a in argv + ["--out", tmp_path / "after.json"]]) == 0
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()


@pytest.mark.parametrize("n", [4, 5, 6])
def test_flags_match_the_oracle_on_carriers_of_four_to_six_vertices(n):
    # ids whose barycenter names sort unlike their tuples: ("1", "2") < ("1!",), but "b(1!)" < "b(1,2)"
    ids = ["1", "1!", "10", "2", "a b", "\u00e9"][:n]
    # an n-vertex simplex, with a triangle on two of its vertices and a new one beside it
    k = build_complex(ids + ["z"], [ids, [ids[0], ids[-1], "z"]])
    prime, carriers = subdivision_oracle.barycentric_subdivision(k)
    sub = Subdivision(k)
    for i in range(-1, n + 1):
        flags = sub.flags(i)
        assert tuple(sorted(flags)) == tuple(prime.level(i)), (n, i)
        assert all(c == max((carriers[v] for v in s), key=len) for s, c in flags.items()), (n, i)
    assert sub.flags(-1) == {} == sub.flags(k.dim + 1)


def test_subdivision_is_a_function_of_its_base(circle):
    assert barycentric_subdivision(circle) == Subdivision(circle)
    assert Subdivision(circle).flags(-1) == {}
    with pytest.raises(TypeError):
        Subdivision(circle, barycentric_subdivision(circle).complex)


def test_validate_map_rejects_non_simplicial(circle, sphere):
    with pytest.raises(MapError):
        validate_map(sphere, circle, {"1": "1", "2": "2", "3": "3", "4": "1"})


def test_validate_map_requires_total_vertex_map(circle):
    with pytest.raises(MapError):
        validate_map(circle, circle, {"1": "1", "2": "2"})


def test_validate_map_rejects_vertices_outside_the_domain(circle):
    with pytest.raises(MapError, match=r"assigned vertices \['zzz'\] are not in the domain"):
        validate_map(circle, circle, {"1": "1", "2": "2", "3": "3", "zzz": "1"})


def test_compose(map_suite):
    by_name = {m.name: m for m in map_suite}
    gf = compose(by_name["collapse_s1_3"].map, by_name["double_cover"].map)
    assert all(gf.vertex_map[v] == "p" for v in gf.domain.vertices)


def test_compose_refuses_maps_that_do_not_meet(map_suite):
    by_name = {m.name: m for m in map_suite}
    with pytest.raises(MapError, match="composition mismatch: codomain of f is not domain of g"):
        compose(by_name["double_cover"].map, by_name["collapse_s1_3"].map)


def test_induced_subdivided_map(map_suite):
    # the pushforward axiom's oracle one level up, now kept in the tests
    by_name = {m.name: m for m in map_suite}
    f = by_name["double_cover"].map
    sd = barycentric_subdivision(f.domain)
    sc = barycentric_subdivision(f.codomain)
    fp = subdivision_oracle.induced_subdivided_map(f)
    # the subdivided map sends barycenters to barycenters of image simplices
    assert fp.vertex_map["b(0,1)"] == "b(1,2)"
    assert fp.vertex_map["b(3)"] == "b(1)"
    validate_map(sd.complex, sc.complex, fp.vertex_map)


def test_faces_enumeration():
    fs = faces(("a", "b", "c"))
    assert len(fs) == 7
    assert ("a",) in fs and ("a", "b", "c") in fs
