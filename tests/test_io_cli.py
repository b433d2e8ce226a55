import copy
import dataclasses
import enum
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from census_oracle import census_chain
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from whitney import calculus as cal
from whitney import cli, exactlin, fileio, polar, simplicial, sw
from whitney.corpus import load_corpus
from whitney.errors import ComplexError, DegenerateMapError, HomologyError, InputError, PolarError
from whitney.homology import Mod2Chain, boundary, fundamental_cycle, is_boundary
from whitney.simplicial import SimplicialComplex, Subdivision, build_complex, impure_simplex
from whitney.verify import random_euler_function, random_function

CORPUS = Path(__file__).resolve().parents[1] / "src" / "whitney" / "corpus"


def run(argv, capsys=None):
    code = cli.main([str(a) for a in argv])
    if capsys is None:
        return code
    return code, capsys.readouterr()


def test_parse_rational():
    assert fileio.parse_rational("3/4") == Fraction(3, 4)
    assert fileio.parse_rational("-2") == Fraction(-2)
    assert fileio.parse_rational("-6/4") == Fraction(-3, 2)
    # the format allows "p/q" alone: no trailing newline, no digits outside ASCII, and no
    # more digits than int() converts
    for bad in ("1/0", "1.5", "a", "1/-2", "", "1/2\n", "2\n", "\u0663/4", "3/\u0664",
                "9" * 5000 + "/1", "1/" + "7" * 5000):
        with pytest.raises(InputError):
            fileio.parse_rational(bad)


def test_format_rational_roundtrip():
    for x in (Fraction(3, 4), Fraction(-7), Fraction(0)):
        assert fileio.parse_rational(fileio.format_rational(x)) == x


def test_complex_roundtrip(tmp_path):
    data = fileio.load_json(CORPUS / "rp2_6_embedded.json")
    k = fileio.complex_from_dict(data)
    again = fileio.complex_from_dict(fileio.complex_to_dict(k))
    assert again.simplices == k.simplices
    assert again.coordinates == k.coordinates


def test_function_file_with_terms(circle):
    data = {"ring": "Z", "terms": [{"coeff": 2, "closed_support": [["1", "2"]]}]}
    a = fileio.function_from_dict(data, circle)
    assert a(("1",)) == 2 and a(("1", "2")) == 2 and a(("3",)) == 0


def test_function_file_with_values(circle):
    data = {"ring": "Z2", "values": {"1": 1, "1,2": 1}}
    a = fileio.function_from_dict(data, circle)
    assert a(("1",)) == 1 and a(("1", "2")) == 1 and a(("2",)) == 0


def test_function_values_on_subdivision_names(subdivisions):
    # barycenter vertex ids contain commas; keys must still resolve
    kp = subdivisions["s1_3"].complex
    data = {"ring": "Z2", "values": {"b(1,2)": 1, "b(1),b(1,2)": 1}}
    a = fileio.function_from_dict(data, kp)
    assert a(("b(1,2)",)) == 1
    assert a(("b(1)", "b(1,2)")) == 1


def test_function_file_unknown_key(circle):
    with pytest.raises(InputError):
        fileio.function_from_dict({"ring": "Z", "values": {"9": 1}}, circle)


def test_chain_file_membership_check(circle):
    with pytest.raises(InputError):
        fileio.chain_from_dict({"dim": 1, "simplices": [["1", "9"]]}, circle)


def test_chi_cli(capsys):
    code, out = run(["chi", "--complex", CORPUS / "rp2_6.json"], capsys)
    assert code == 0 and out.out.strip() == "1"


def test_homology_cli_json(capsys):
    code, out = run(
        ["homology", "--complex", CORPUS / "torus_7.json", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out.out)["betti_mod2"] == [1, 2, 1]


def test_euler_check_cli(capsys):
    code, out = run(
        ["euler-check", "--complex", CORPUS / "bowtie.json", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out.out)
    assert payload["euler"] is False
    assert ["3"] not in payload["offenders"]
    assert payload["offenders"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_euler_check_without_fn_equals_all_ones_fn(tmp_path, capsys, corpus, fmt):
    fn = tmp_path / "ones.json"
    for name in corpus:
        path = CORPUS / f"{name}.json"
        fileio.dump_json(fileio.function_to_dict(cal.constant(corpus[name].complex, 1)), fn)
        plain = run(["euler-check", "--complex", path, "--format", fmt], capsys)
        ones = run(["euler-check", "--complex", path, "--fn", fn, "--format", fmt], capsys)
        assert plain == ones, name


def test_stiefel_bounds_pipeline(tmp_path, capsys):
    sub_path = tmp_path / "sub.json"
    chain_path = tmp_path / "s1.json"
    assert run(["subdivide", "--complex", CORPUS / "rp2_6.json", "--out", sub_path]) == 0
    assert run(
        ["stiefel", "--complex", CORPUS / "rp2_6.json", "--dim", 1, "--out", chain_path]
    ) == 0
    payload = json.loads(chain_path.read_text())
    assert payload["construction"] == "stiefel" and payload["i"] == 1
    code, out = run(
        ["bounds", "--complex", sub_path, "--chain", chain_path, "--format", "json"],
        capsys,
    )
    assert code == 0 and json.loads(out.out)["bounds"] is False


def test_stiefel_output_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        run(["stiefel", "--complex", CORPUS / "torus_7.json", "--dim", 1, "--out", p])
    assert p1.read_bytes() == p2.read_bytes()


def test_polar_random_plane_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code = run(
            ["polar", "--complex", CORPUS / "s1_6.json", "--dim", 0,
             "--random-plane", "--seed", 42, "--out", p]
        )
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text())["seed"] == 42


@pytest.mark.parametrize("complex_name, mode, construction, cells", [
    pytest.param("s1_3.json", "--moment", "moment", 6, id="moment"),
    pytest.param("rp2_6_embedded.json", "--project", "projection", 15, id="project"),
    pytest.param("rp2_6_embedded.json", "--random-plane", "projection", 15, id="random-plane"),
])
def test_polar_with_report(tmp_path, complex_name, mode, construction, cells):
    out = tmp_path / "c.json"
    report = tmp_path / "hl.json"
    argv = ["polar", "--complex", CORPUS / complex_name, "--dim", 1, mode]
    if mode == "--project":
        basis = tmp_path / "basis.json"
        basis.write_text(json.dumps(
            {"ambient_dim": 5, "vectors": [["1", "2", "4", "8", "16"], ["1", "3", "9", "27", "81"]]}
        ))
        argv.append(basis)
    code = run(argv + ["--out", out, "--report", report])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["construction"] == construction
    half_links = json.loads(report.read_text())["half_links"]
    assert len(half_links) == cells
    # a = 1: the chain is the set of S with 1 - chi_plus(S) odd
    assert payload["simplices"] == [
        r["simplex"] for r in half_links if (1 - r["chi_plus"]) % 2
    ]


@pytest.mark.parametrize("i, simplices", [(0, 6), (1, 15), (2, 10)])
def test_polar_random_plane_report_census_each_simplex_once(tmp_path, monkeypatch, i, simplices):
    real_report = polar.half_link_report
    calls = []
    monkeypatch.setattr(
        polar, "half_link_report", lambda a, s, f: calls.append(s) or real_report(a, s, f)
    )
    code = run(
        ["polar", "--complex", CORPUS / "rp2_6_embedded.json", "--dim", i,
         "--random-plane", "--seed", 3, "--out", tmp_path / "c.json",
         "--report", tmp_path / "hl.json"]
    )
    assert code == 0
    assert len(calls) == simplices


def test_push_pull_cli(tmp_path, capsys):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"ring": "Z", "terms": [{"coeff": 1, "closed_support": [["1", "2"]]}]}))
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"vertex_map": {"0": "1", "1": "2", "2": "3", "3": "1", "4": "2", "5": "3"}}))
    out = tmp_path / "out.json"
    code = run(
        ["pull", "--domain", CORPUS / "s1_6.json", "--codomain", CORPUS / "s1_3.json",
         "--map", mp, "--fn", fn, "--out", out]
    )
    assert code == 0
    values = json.loads(out.read_text())["values"]
    assert values["0"] == 1 and values["0,1"] == 1


def test_push_cli(tmp_path):
    # the constant 1 along the double cover of the circle: two points over each point
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"ring": "Z", "terms": [{"coeff": 1, "closed_support": [
        ["0", "1"], ["1", "2"], ["2", "3"], ["3", "4"], ["4", "5"], ["0", "5"]]}]}))
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"vertex_map": {str(v): str(v % 3 + 1) for v in range(6)}}))
    out = tmp_path / "out.json"
    code = run(
        ["push", "--domain", CORPUS / "s1_6.json", "--codomain", CORPUS / "s1_3.json",
         "--map", mp, "--fn", fn, "--out", out]
    )
    assert code == 0
    circle = fileio.load_complex(CORPUS / "s1_3.json")
    assert json.loads(out.read_text()) == {
        "ring": "Z", "values": {",".join(s): 2 for s in circle.simplices}
    }


def test_dual_cli(tmp_path):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"ring": "Z", "values": {"1": 1}}))
    out = tmp_path / "dual.json"
    assert run(["dual", "--complex", CORPUS / "s1_3.json", "--fn", fn, "--out", out]) == 0
    # a vertex of a circle is its own dual: its link is two points
    assert json.loads(out.read_text()) == {"ring": "Z", "values": {"1": 1}}


def test_subdivide_manifest_cli(tmp_path, circle):
    out, manifest = tmp_path / "sd.json", tmp_path / "carriers.json"
    code = run(["subdivide", "--complex", CORPUS / "s1_3.json", "--out", out,
                "--manifest", manifest])
    assert code == 0
    assert json.loads(manifest.read_text()) == {
        "carriers": {f"b({','.join(s)})": list(s) for s in circle.simplices}
    }
    assert fileio.load_complex(out) == Subdivision(circle).complex


def test_bounds_witness_cli(tmp_path, capsys):
    # s_1 of the torus bounds on its subdivision; the witness w has boundary s_1
    sd, chain, witness = tmp_path / "sd.json", tmp_path / "s1.json", tmp_path / "w.json"
    torus = CORPUS / "torus_7.json"
    assert run(["subdivide", "--complex", torus, "--out", sd]) == 0
    assert run(["stiefel", "--complex", torus, "--dim", 1, "--out", chain]) == 0
    code, out = run(["bounds", "--complex", sd, "--chain", chain, "--witness", witness,
                     "--format", "json"], capsys)
    assert code == 0 and json.loads(out.out) == {"bounds": True}
    k = fileio.load_complex(sd)
    c = fileio.chain_from_dict(fileio.load_json(chain), k)
    w = fileio.chain_from_dict(fileio.load_json(witness), k)
    assert w.dim == 2 and w.support
    assert boundary(k, w) == c


def test_bounds_checks_no_witness_target_for_a_chain_that_does_not_bound(tmp_path, capsys):
    # the triangle cycle bounds in the closed triangle (see _output_argv), not in the circle
    chain = tmp_path / "c.json"
    chain.write_text(json.dumps({"dim": 1, "simplices": [["1", "2"], ["1", "3"], ["2", "3"]]}))
    code, out = run(["bounds", "--complex", CORPUS / "s1_3.json", "--chain", chain,
                     "--witness", tmp_path / "nowhere" / "w.json"], capsys)
    assert (code, out.out, out.err) == (0, "bounds: False\n", "")
    assert list(tmp_path.iterdir()) == [chain]


def test_bounds_closes_only_the_levels_it_reads(tmp_path, monkeypatch, capsys):
    # K' of the torus is 2-dimensional: s_2 reads level 2 alone, s_1 levels 1 and 2
    torus, kp = CORPUS / "torus_7.json", tmp_path / "kp.json"
    assert run(["subdivide", "--complex", torus, "--out", kp]) == 0
    argv, verdicts = {}, {}
    for i in (1, 2):
        chain = tmp_path / f"s{i}.json"
        assert run(["stiefel", "--complex", torus, "--dim", i, "--out", chain]) == 0
        argv[i] = ["bounds", "--complex", kp, "--chain", chain, "--witness", tmp_path / "w.json"]
        verdicts[i] = run(argv[i], capsys), (tmp_path / "w.json").read_bytes() if i == 1 else None
    assert verdicts[1][0][1].out == "bounds: True\n" and verdicts[2][0][1].out == "bounds: False\n"

    def refuse(*args):
        raise AssertionError("bounds read the whole complex")

    for name in ("simplices", "simplex_set", "cofaces"):
        monkeypatch.setattr(SimplicialComplex, name, property(refuse))
    level_set, lowest = SimplicialComplex.level_set, {}

    def guarded(k, d):
        if d < lowest["i"]:
            raise AssertionError(f"level {d} closed for an {lowest['i']}-chain")
        return level_set(k, d)

    monkeypatch.setattr(SimplicialComplex, "level_set", guarded)
    for i in (2, 1):
        lowest["i"] = i
        k = fileio.load_complex(kp)
        c = fileio.chain_from_dict(fileio.load_json(tmp_path / f"s{i}.json"), k)
        assert is_boundary(k, c)[0] is (i == 1)
        assert sorted(k._sets) == list(range(i, 3))
        # the sorted levels are i, the rows, and i + 1, the columns; level 3 of this 2-complex
        # is empty, so at i = 2 nothing is sorted
        assert sorted(k._sorted) == ([i, i + 1] if i < 2 else [])
        w = tmp_path / "w.json"
        w.unlink(missing_ok=True)
        assert (run(argv[i], capsys), w.read_bytes() if i == 1 else None) == verdicts[i]


# nested deeper than the recursion limit, and an integer past int()'s digit limit
@pytest.mark.parametrize("text", [
    '{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}",
    '{"vertices": ["1"], "maximal_simplices": [["1"]], "n": ' + "9" * 5000 + "}",
], ids=["deep", "long-integer"])
def test_unparseable_json_is_an_input_error_that_names_the_file(tmp_path, capsys, text):
    path = tmp_path / "k.json"
    path.write_text(text)
    code, out = run(["validate", path], capsys)
    assert (code, out.out) == (1, "")
    assert json.loads(out.err)["error"].startswith(f"cannot parse {path}: ")
    code, out = run(["chi", "--complex", path], capsys)
    assert code == 2 and out.err.startswith(f"error: cannot parse {path}: ")



def test_over_long_integer_names_the_file_and_the_digit_limit(tmp_path, capsys):
    # Python's own message would tell a CLI user to call sys.set_int_max_str_digits
    path = tmp_path / "k.json"
    path.write_text('{"vertices": ["1"], "maximal_simplices": [["1"]], "n": ' + "9" * 5000 + "}")
    code, out = run(["chi", "--complex", path], capsys)
    limit = sys.get_int_max_str_digits()
    assert (code, out.out) == (2, "")
    assert out.err == f"error: cannot parse {path}: an integer has more than {limit} digits\n"


def test_complex_above_the_size_cap_is_refused_before_any_closure(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a level was closed")

    monkeypatch.setattr(SimplicialComplex, "level_set", refuse)
    ids = [f"v{j:02d}" for j in range(40)]
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"vertices": ids, "maximal_simplices": [ids]}))
    code, out = run(["euler-check", "--complex", path], capsys)
    assert (code, out.out) == (3, "")
    assert out.err == (f"error: complex too large: the sum of 3^|s| over its listed simplices s "
                       f"is {3 ** 40}, above the cap 3^15 = 14348907\n")
    # a 15-vertex simplex weighs the cap itself, and one more vertex passes it
    assert build_complex(ids[:15], [ids[:15]]).dim == 14
    with pytest.raises(ComplexError, match=f"is {3 ** 15 + 3}, above the cap"):
        build_complex(ids[:16], [ids[:15], ids[15:16]])


def test_subdivision_above_the_size_cap_is_refused_before_any_flag(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a flag was walked")

    monkeypatch.setattr(SimplicialComplex, "cofaces", property(refuse))
    ids = [f"v{j}" for j in range(10)]
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"vertices": ids, "maximal_simplices": [ids]}))
    # 2 Fubini(10) - 1 simplices: the ordered partitions of every face
    message = ("error: subdivision too large: it would have 204495125 simplices, "
               "above the cap 2^20 = 1048576\n")
    with monkeypatch.context() as flagless:
        flagless.setattr(simplicial, "_flag_template", refuse)
        for argv in (["subdivide", "--out", tmp_path / "sd.json"],
                     ["stiefel", "--dim", 0, "--out", tmp_path / "s0.json"]):
            code, out = run([argv[0], "--complex", path, *argv[1:]], capsys)
            assert (code, out.out, out.err) == (3, "", message), argv[0]
        # an 8-vertex simplex does not pass either
        with pytest.raises(ComplexError, match="would have 1091669 simplices"):
            Subdivision(build_complex(ids[:8], [ids[:8]])).flags(0)
    assert not list(tmp_path.glob("s*.json"))
    # a 7-vertex simplex passes with 94,585 simplices in K'
    path.write_text(json.dumps({"vertices": ids[:7], "maximal_simplices": [ids[:7]]}))
    assert run(["stiefel", "--complex", path, "--dim", 0, "--out", tmp_path / "s0.json"]) == 0
    assert len(json.loads((tmp_path / "s0.json").read_text())["simplices"]) == 2 ** 7 - 1


def test_subdivide_and_stiefel_read_no_coface_table(tmp_path, monkeypatch):
    # flags are read carrier by carrier: with cofaces refused, the same bytes come out
    torus = CORPUS / "torus_7.json"
    argvs = [["subdivide", "--complex", torus, "--out"]]
    argvs += [["stiefel", "--complex", torus, "--dim", i, "--out"] for i in (1, 2)]

    def outputs(tag):
        paths = [tmp_path / f"{tag}{j}.json" for j in range(len(argvs))]
        assert [run(argv + [path]) for argv, path in zip(argvs, paths)] == [0] * len(argvs)
        return [path.read_bytes() for path in paths]

    before = outputs("before")

    def refuse(self):
        raise AssertionError("a coface table was read")

    monkeypatch.setattr(SimplicialComplex, "cofaces", property(refuse))
    assert outputs("after") == before


def test_over_long_rational_is_malformed(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"target_dim": 1, "images": {
        "1": ["9" * 5000 + "/1"], "2": ["1/2"], "3": ["2"]}}))
    code, out = run(["polar", "--complex", CORPUS / "s1_3.json", "--dim", 0, "--map", path,
                     "--out", tmp_path / "c.json"], capsys)
    assert (code, out.out) == (2, "")
    assert out.err == "error: malformed rational of 5002 characters: too many digits\n"


def test_validate_cli(tmp_path, capsys):
    good = CORPUS / "s1_3.json"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": ["a"], "maximal_simplices": [["a", "b"]]}))
    code, out = run(["validate", good], capsys)
    assert code == 0 and "ok:" in out.out
    assert run(["validate", bad]) == 1


def test_validate_basis_affine_map_and_unknown_files(tmp_path, capsys):
    basis, affine, unknown = (tmp_path / f"{n}.json" for n in ("basis", "affine", "unknown"))
    basis.write_text(json.dumps({"ambient_dim": 2, "vectors": [["1", "1/2"]]}))
    affine.write_text(json.dumps(
        {"target_dim": 1, "images": {"1": ["0"], "2": ["1/2"], "3": ["2"]}}))
    unknown.write_text(json.dumps({"colour": "blue"}))
    code, out = run(["validate", basis, affine, "--complex", CORPUS / "s1_3.json"], capsys)
    assert code == 0
    assert out.out == f"ok: {basis} (basis)\nok: {affine} (affine_map)\n"
    code, out = run(["validate", affine, unknown], capsys)
    assert code == 1 and out.out == ""
    assert [json.loads(line) for line in out.err.splitlines()] == [
        {"file": str(affine), "error": "affine map file needs --complex for validation"},
        {"file": str(unknown), "error": f"{unknown}: unrecognized file type"},
    ]


@pytest.mark.parametrize("data, args, error", [
    ({"dim": 1, "simplices": [["1", "1"]]}, [],
     "chain file: duplicate vertex inside simplex ['1', '1']"),
    ({"dim": 0, "simplices": [[]]}, [], "chain file: a simplex needs at least one vertex"),
    ({"ring": "Z", "terms": [{"coeff": 1, "closed_support": [["1", "1"]]}]},
     ["--complex", CORPUS / "s1_3.json"],
     "function file: duplicate vertex inside simplex ['1', '1']"),
], ids=["chain-repeated-vertex", "chain-empty-simplex", "fn-repeated-vertex"])
def test_validate_reads_each_simplex_through_make_simplex(tmp_path, capsys, data, args, error):
    # each simplex of a chain or function file is read by make_simplex, with or without --complex
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code, streams = run(["validate", path] + args, capsys)
    assert code == 1 and streams.out == ""
    assert json.loads(streams.err) == {"file": str(path), "error": error}


@pytest.mark.parametrize("simplices, message", [
    ([["1", "2"], ["2", "1"]], "chain file: simplex ['1', '2'] is listed twice"),
    ([["1", "2"], ["3"]], "chain file: simplex ['3'] has dimension 0, chain has 1"),
    ([["1", "2"], ["3", "1", "3"]], "chain file: duplicate vertex inside simplex ['3', '1', '3']"),
    ([["1", "2"], []], "chain file: a simplex needs at least one vertex"),
    ([["2", "1"], ["4", "1"]], "chain simplex ['1', '4'] is not in the complex"),
])
def test_chain_file_names_its_bad_simplex(circle, simplices, message):
    with pytest.raises(InputError) as e:
        fileio.chain_from_dict({"dim": 1, "simplices": simplices}, circle)
    assert str(e.value) == message


# inputs with more than one bad entry; the parent named a different one under some of the seeds
HASH_SEED_CASES = [
    ("bounds", {"dim": 1, "simplices": [["1", "4"], ["2", "5"], ["3", "6"]]},
     "error: chain simplex ['1', '4'] is not in the complex"),
    ("bounds", {"dim": 1, "simplices": [["1"], ["2"]]},
     "error: chain file: simplex ['1'] has dimension 0, chain has 1"),
    ("chi", {"ring": "Z", "terms": [{"coeff": 1, "closed_support": [["1", "9"]]}]},
     "error: function file: simplex ['1', '9'] is not in the complex"),
]


def test_error_messages_do_not_depend_on_the_hash_seed(tmp_path):
    # a file names its first bad entry in file order, a set its least in canonical order
    argvs = []
    for j, (command, data, _message) in enumerate(HASH_SEED_CASES):
        path = tmp_path / f"{j}.json"
        path.write_text(json.dumps(data))
        flag = "--chain" if command == "bounds" else "--fn"
        argvs.append([command, "--complex", str(CORPUS / "s1_3.json"), flag, str(path)])
    script = ("import json, sys\nfrom whitney import cli\n"
              "for argv in json.loads(sys.argv[1]):\n    cli.main(argv)\n")
    expected = "".join(f"{message}\n" for _command, _data, message in HASH_SEED_CASES)
    src = str(Path(cli.__file__).resolve().parents[1])
    for seed in (0, 1, 4, 6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.stderr == expected, seed


def test_parsed_complexes_and_chains_share_the_complexs_objects():
    # json.loads makes a new string for every occurrence of an id
    k = fileio.complex_from_dict(json.loads((CORPUS / "torus_7.json").read_text()))
    vertex = dict(zip(k.vertices, k.vertices))
    assert all(v is vertex[v] for s in k.simplices for v in s)
    edges = dict(zip(k.level(1), k.level(1)))
    data = json.loads(json.dumps({"dim": 1, "simplices": [list(reversed(s)) for s in k.level(1)[::3]]}))
    c = fileio.chain_from_dict(data, k)
    assert len(c.support) == len(data["simplices"])
    assert all(s is edges[s] for s in c.support)


EXTRA_VERTEX_MAP = {"vertex_map": {"1": "1", "2": "2", "3": "3", "zzz": "1"}}


def test_push_rejects_map_of_vertex_outside_domain(tmp_path, capsys):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"ring": "Z", "values": {"1": 1}}))
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps(EXTRA_VERTEX_MAP))
    out = tmp_path / "out.json"
    code, streams = run(["push", "--domain", CORPUS / "s1_3.json", "--codomain",
                         CORPUS / "s1_3.json", "--map", mp, "--fn", fn, "--out", out], capsys)
    assert (code, streams.err) == (3, "error: assigned vertices ['zzz'] are not in the domain\n")
    assert not out.exists()


def test_validate_rejects_map_of_vertex_outside_domain(tmp_path, capsys):
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps(EXTRA_VERTEX_MAP))
    code, streams = run(["validate", mp, "--domain", CORPUS / "s1_3.json",
                         "--codomain", CORPUS / "s1_3.json"], capsys)
    assert code == 1 and streams.out == ""
    assert json.loads(streams.err) == {
        "file": str(mp), "error": "assigned vertices ['zzz'] are not in the domain"
    }


@pytest.mark.parametrize("given", ["--domain", "--codomain"])
def test_validate_needs_domain_and_codomain_together(tmp_path, capsys, given):
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"vertex_map": {"1": "9", "2": "2", "3": "3"}}))
    code, streams = run(["validate", mp, given, CORPUS / "s1_3.json"], capsys)
    assert (code, streams.out) == (2, "")
    assert streams.err == "error: --domain and --codomain must be given together\n"


def test_validate_loads_domain_and_codomain_once(tmp_path, monkeypatch, capsys):
    maps = [tmp_path / f"map{j}.json" for j in range(3)]
    for mp in maps:
        mp.write_text(json.dumps({"vertex_map": {"1": "2", "2": "3", "3": "1"}}))
    loaded = []
    load = fileio.load_complex
    monkeypatch.setattr(fileio, "load_complex", lambda path: loaded.append(path) or load(path))
    circle = CORPUS / "s1_3.json"
    code, streams = run(["validate", *maps, "--domain", circle, "--codomain", circle], capsys)
    assert (code, streams.err) == (0, "")
    assert streams.out == "".join(f"ok: {mp} (map)\n" for mp in maps)
    assert loaded == [str(circle), str(circle)]


def test_validate_unreadable_domain_exits_before_any_file(tmp_path, capsys):
    maps = [tmp_path / f"map{j}.json" for j in range(3)]
    for mp in maps:
        mp.write_text(json.dumps({"vertex_map": {"1": "2", "2": "3", "3": "1"}}))
    missing = tmp_path / "nope.json"
    code, streams = run(["validate", *maps, "--domain", missing,
                         "--codomain", CORPUS / "s1_3.json"], capsys)
    assert (code, streams.out) == (2, "")
    assert streams.err.startswith(f"error: cannot read {missing}: ")
    assert streams.err.count("\n") == 1


def test_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["chi", "--complex", missing]) == 2
    # degenerate projection: plane chosen parallel to an edge
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"ambient_dim": 2, "vectors": [["1", "0"]]}))
    code = run(
        ["polar", "--complex", CORPUS / "square.json", "--dim", 0,
         "--project", basis, "--out", tmp_path / "c.json"]
    )
    assert code == 6


def test_project_rejects_dependent_basis(tmp_path, capsys):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"ambient_dim": 5, "vectors": [
        ["1", "2", "0", "-1", "3"], ["2", "4", "0", "-2", "6"]]}))
    code, out = run(
        ["polar", "--complex", CORPUS / "rp2_6_embedded.json", "--dim", 1,
         "--project", basis, "--out", tmp_path / "c.json"], capsys
    )
    assert code == 6
    assert out.err == "error: basis vectors are linearly dependent\n"


@pytest.mark.parametrize("data, message", [
    pytest.param(
        {"vertices": ["1", "2", "3"], "maximal_simplices": [["1", "2", "3"]],
         "coordinates": {"1": ["0", "0"], "2": ["1", "1"], "3": ["2", "2"]}},
        "simplex ['1', '2', '3'] is not affinely independent in the embedding",
        id="collinear"),
    pytest.param(
        {"vertices": ["a", "b", "c", "d"], "maximal_simplices": [["c", "d"], ["a", "b", "c"]],
         "coordinates": {"a": ["0", "0"], "b": ["0", "0"], "c": ["1", "0"], "d": ["1", "0"]}},
        "simplex ['a', 'b', 'c'] is not affinely independent in the embedding",
        id="coincident"),
    pytest.param(
        {"vertices": ["a", "b"], "maximal_simplices": [[1, "a"]]},
        "simplex [1, 'a'] references unknown vertex 1",
        id="foreign-id"),
    pytest.param(
        {"vertices": ["a", "b"], "maximal_simplices": [["a"]]},
        "vertices ['b'] lie in no simplex",
        id="unused-vertex"),
    pytest.param(
        {"vertices": [], "maximal_simplices": []},
        "a complex needs at least one simplex",
        id="no-simplex"),
    pytest.param(
        {"vertices": ["a"], "maximal_simplices": [["a"]],
         "coordinates": {"a": ["0"], "z": ["1"]}},
        "coordinates given for vertices ['z'] not in the complex",
        id="foreign-coordinates"),
])
def test_rejected_complex_exit_code(tmp_path, capsys, data, message):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(data))
    code, out = run(["chi", "--complex", path], capsys)
    assert code == 3
    assert out.err == f"error: {message}\n"


@pytest.mark.parametrize("suite", ["calculus", "stiefel"])
def test_verify_rejects_a_complex_with_no_simplex(tmp_path, capsys, suite):
    (tmp_path / "empty.json").write_text(json.dumps({"vertices": [], "maximal_simplices": []}))
    code, out = run(["verify", "--suite", suite, "--trials", 4, "--complexes", tmp_path], capsys)
    assert (code, out.out) == (3, "")
    assert out.err == "error: empty.json: a complex needs at least one simplex\n"


def _labelled_directory(tmp_path, k, labels):
    """A corpus directory whose index.json gives k the name "k" and the labels of the old format."""
    fileio.dump_json(fileio.complex_to_dict(k), tmp_path / "k.json")
    index = {"complexes": [{"name": "k", "file": "k.json", "description": "", **labels}]}
    (tmp_path / "index.json").write_text(json.dumps(index))
    return tmp_path


CLOSED_TRIANGLE = build_complex(["1", "2", "3"], [["1", "2", "3"]])
# S^2 v S^1: the boundary of a tetrahedron and a triangle circle share vertex 1
S2_WEDGE_S1 = build_complex(
    ["1", "2", "3", "4", "5", "6"],
    [["1", "2", "3"], ["1", "2", "4"], ["1", "3", "4"], ["2", "3", "4"],
     ["1", "5"], ["5", "6"], ["1", "6"]],
)


@pytest.mark.parametrize("k, labels, suites", [
    # a non-Euler space gives stiefel and polar nothing to check, whatever its labels say
    pytest.param(CLOSED_TRIANGLE, {"euler": True, "pure": True},
                 {"calculus": 0, "stiefel": 2, "polar": 2, "axioms": 0},
                 id="closed-triangle-labelled-euler"),
    pytest.param(S2_WEDGE_S1, {"euler": True, "pure": True}, {"stiefel": 0},
                 id="s2-wedge-s1-labelled-pure"),
    pytest.param(S2_WEDGE_S1, {"euler": "no", "pure": 7}, {"stiefel": 0},
                 id="labels-of-any-type"),
])
def test_index_labels_are_ignored(tmp_path, monkeypatch, capsys, k, labels, suites):
    spaces = _labelled_directory(tmp_path, k, labels)
    monkeypatch.chdir(tmp_path)  # where a failing suite would write its counterexample
    entry = load_corpus(spaces)["k"]
    assert (entry.euler, entry.pure) == (cal.is_euler_space(k).is_euler,
                                         impure_simplex(k) is None)
    for suite, expected in suites.items():
        code, out = run(["verify", "--suite", suite, "--seed", 1, "--trials", 4,
                         "--complexes", spaces], capsys)
        if expected:
            assert (code, out.out, out.err) == (
                2, "", f"error: suite {suite} has nothing to check in {spaces}\n")
        else:
            assert (code, out.err) == (0, ""), suite
            assert f"suite {suite}: ok (seed 1)" in out.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["index.json", "k.json"]


@pytest.mark.parametrize("suite, space", [("polar", "delta2"), ("stiefel", "interval")])
def test_a_suite_that_checks_nothing_is_an_input_error(tmp_path, capsys, suite, space):
    (tmp_path / f"{space}.json").write_bytes((CORPUS / f"{space}.json").read_bytes())
    code, out = run(["verify", "--suite", suite, "--complexes", tmp_path], capsys)
    assert (code, out.out, out.err) == (
        2, "", f"error: suite {suite} has nothing to check in {tmp_path}\n")


def test_repeated_index_name_is_an_input_error(tmp_path, capsys):
    # entries are keyed by name: a repeated name would drop the Euler s1_3 without a word
    (tmp_path / "index.json").write_text(json.dumps({"complexes": [
        {"name": "a", "file": "s1_3.json"}, {"name": "a", "file": "delta2.json"}]}))
    for space in ("s1_3", "delta2"):
        (tmp_path / f"{space}.json").write_bytes((CORPUS / f"{space}.json").read_bytes())
    with pytest.raises(InputError, match="corpus index: name 'a' appears twice"):
        load_corpus(tmp_path)
    code, out = run(["verify", "--suite", "polar", "--complexes", tmp_path], capsys)
    assert (code, out.out, out.err) == (2, "", "error: corpus index: name 'a' appears twice\n")


@pytest.mark.parametrize("suite", ["calculus", "stiefel", "polar", "axioms"])
@pytest.mark.parametrize("indexed", [True, False], ids=["empty-index", "no-complex-files"])
def test_verify_on_a_directory_with_no_complex(tmp_path, capsys, suite, indexed):
    if indexed:
        (tmp_path / "index.json").write_text(json.dumps({"complexes": []}))
    else:
        (tmp_path / "notes.json").write_text(json.dumps({"ring": "Z", "values": {}}))
    code, out = run(["verify", "--suite", suite, "--complexes", tmp_path], capsys)
    assert (code, out.out, out.err) == (2, "", f"error: no complexes found in {tmp_path}\n")


@pytest.mark.parametrize("content, code, message", [
    pytest.param({"vertices": [], "maximal_simplices": []}, 3,
                 "error: empty.json: a complex needs at least one simplex\n", id="no-simplex"),
    pytest.param({"vertices": 5, "maximal_simplices": []}, 2,
                 "error: empty.json: complex file: 'vertices' must be a list, got 5\n",
                 id="malformed-complex"),
    # load_json's own message names the path; it gets no second prefix
    pytest.param(None, 2, "error: cannot read {}: ", id="missing-file"),
])
def test_indexed_corpus_error_names_the_file_once(tmp_path, capsys, content, code, message):
    path = tmp_path / "empty.json"
    if content is not None:
        path.write_text(json.dumps(content))
    (tmp_path / "index.json").write_text(
        json.dumps({"complexes": [{"name": "e", "file": "empty.json"}]}))
    result, out = run(["verify", "--suite", "calculus", "--complexes", tmp_path], capsys)
    assert result == code
    assert out.err.startswith(message.format(path)) and out.err.count("\n") == 1


def _output_argv(flag, target, tmp_path):
    """A command that succeeds up to writing ``target`` through ``flag``."""
    s1, out = CORPUS / "s1_3.json", tmp_path / "out.json"
    if flag == "--witness":
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps({"dim": 1, "simplices": [["1", "2"], ["1", "3"], ["2", "3"]]}))
        return ["bounds", "--complex", CORPUS / "delta2.json", "--chain", chain, flag, target]
    return {
        "--out": ["stiefel", "--complex", s1, "--dim", 0, flag, target],
        "--report": ["polar", "--complex", s1, "--dim", 0, "--moment", "--out", out, flag, target],
        "--manifest": ["subdivide", "--complex", s1, "--out", out, flag, target],
    }[flag]


@pytest.mark.parametrize("flag", ["--out", "--report", "--witness", "--manifest"])
@pytest.mark.parametrize("target", ["missing-dir", "a-dir"])
def test_unwritable_output_is_an_input_error(tmp_path, capsys, flag, target):
    path = tmp_path / "nowhere" / "x.json" if target == "missing-dir" else tmp_path
    code, out = run(_output_argv(flag, path, tmp_path), capsys)
    assert (code, out.out) == (2, "")  # bounds checks its witness target before it prints
    assert out.err.startswith(f"error: cannot write {path}: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--report", "--manifest"])
@pytest.mark.parametrize("target", ["missing-dir", "a-dir"])
def test_a_command_writes_all_of_its_files_or_none(tmp_path, capsys, flag, target):
    """--out is writable, the second target is not: nothing is written, and the error is the write's."""
    path = tmp_path / "nowhere" / "x.json" if target == "missing-dir" else tmp_path / "a-dir"
    if target == "a-dir":
        path.mkdir()
    code, out = run(_output_argv(flag, path, tmp_path), capsys)
    assert code == 2
    with pytest.raises(OSError) as write:
        path.write_text("")
    assert out.err == f"error: cannot write {path}: {write.value}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if target == "missing-dir" else ["a-dir"])


def test_stiefel_suite_on_indexless_impure_directory(tmp_path, capsys):
    k = S2_WEDGE_S1
    fileio.dump_json(fileio.complex_to_dict(k), tmp_path / "s2_wedge_s1.json")
    entry = load_corpus(tmp_path)["s2_wedge_s1"]
    assert entry.euler and not entry.pure
    assert impure_simplex(k) == ("1", "5")
    with pytest.raises(HomologyError, match=r"not pure-dimensional: \['1', '5'\] has no top coface"):
        fundamental_cycle(k)
    code, out = run(
        ["verify", "--suite", "stiefel", "--seed", 0, "--trials", 4, "--complexes", tmp_path],
        capsys,
    )
    assert code == 0, out.err
    assert "suite stiefel: ok (seed 0)" in out.out


def test_degenerate_map_exit_code_beats_non_euler_function(tmp_path, capsys):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"ambient_dim": 2, "vectors": [["1", "0"]]}))
    fn = tmp_path / "edge.json"
    fn.write_text(json.dumps(
        {"ring": "Z2", "terms": [{"coeff": 1, "closed_support": [["a", "b"]]}]}
    ))
    code, out = run(
        ["polar", "--complex", CORPUS / "square.json", "--dim", 0,
         "--project", basis, "--fn", fn, "--out", tmp_path / "c.json"], capsys
    )
    assert code == 6
    assert out.err == ("error: map is degenerate at simplex ['a']: "
                       "link vertex 'd' maps into its hyperplane\n")


@pytest.mark.parametrize("complex_name, mode, payload", [
    pytest.param("s1_3.json", "--map", {"target_dim": 2, "images": {
        "1": ["0", "0"], "2": ["1", "0"], "3": ["0", "1"]}}, id="map"),
    pytest.param("s1_6.json", "--project", {"ambient_dim": 2, "vectors": [
        ["1", "0"], ["0", "1"]]}, id="project"),
])
def test_polar_target_dimension_must_match(tmp_path, capsys, complex_name, mode, payload):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(payload))
    code, out = run(
        ["polar", "--complex", CORPUS / complex_name, "--dim", 0,
         mode, path, "--out", tmp_path / "c.json"], capsys
    )
    assert code == 6
    assert out.err == "error: target dimension 2 does not match i+1=1\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["polar", "--complex", CORPUS / "s1_3.json", "--dim", 0, "--moment"], id="polar"),
    pytest.param(["stiefel", "--complex", CORPUS / "s1_3.json", "--dim", 0], id="stiefel"),
])
def test_format_rejected_where_unread(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as e:
        run(argv + ["--out", tmp_path / "c.json", "--format", "json"])
    assert e.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


EDGE_FN = {"ring": "Z2", "terms": [{"coeff": 1, "closed_support": [["1", "2"]]}]}


@pytest.mark.parametrize("complex_name, dim, mode, payload", [
    pytest.param("s1_3.json", 0, "--moment", None, id="moment"),
    pytest.param("s1_3.json", 0, "--map", {"target_dim": 1, "images": {
        "1": ["0"], "2": ["2"], "3": ["1"]}}, id="map"),
    pytest.param("rp2_6_embedded.json", 1, "--project", {"ambient_dim": 5, "vectors": [
        ["1", "2", "4", "8", "16"], ["1", "3", "9", "27", "81"]]}, id="project"),
    pytest.param("rp2_6_embedded.json", 1, "--random-plane", None, id="random-plane"),
])
def test_polar_rejects_non_euler_function(tmp_path, capsys, complex_name, dim, mode, payload):
    # the closed edge [1, 2] is not Euler: its endpoints have odd links
    fn = tmp_path / "edge.json"
    fn.write_text(json.dumps(EDGE_FN))
    argv = ["polar", "--complex", CORPUS / complex_name, "--dim", dim, mode]
    if payload is not None:
        path = tmp_path / "f.json"
        path.write_text(json.dumps(payload))
        argv.append(path)
    out, report = tmp_path / "c.json", tmp_path / "hl.json"
    code, streams = run(argv + ["--fn", fn, "--out", out, "--report", report], capsys)
    assert code == 5
    assert streams.err == "error: singularity chain requires an Euler function\n"
    assert not out.exists() and not report.exists()


def test_moment_chain_solves_no_hyperplane(tmp_path, monkeypatch, corpus, subdivisions):
    # the reference is the K' census chain with the CLI's provenance; --report runs unguarded
    rng = random.Random(43)
    cases = []
    for entry in corpus.values():
        if not entry.euler:
            continue
        fn = tmp_path / f"{entry.name}_fn.json"
        a = random_euler_function(rng, entry.complex)
        fileio.dump_json(fileio.function_to_dict(a), fn)
        sub = subdivisions[entry.name]
        for fn_args, b in (([], cal.constant(entry.complex, 1)), (["--fn", fn], a)):
            for i in range(entry.complex.dim + 1):
                argv = ["polar", "--complex", CORPUS / f"{entry.name}.json", "--dim", i,
                        "--moment"] + fn_args
                out, report = tmp_path / "census.json", tmp_path / "hl.json"
                assert run(argv + ["--out", out, "--report", report]) == 0
                half_links = json.loads(report.read_text())["half_links"]
                assert [tuple(r["simplex"]) for r in half_links] == list(sub.complex.level(i))
                chain = census_chain(polar.moment_map(sub, i), cal.subdivide_function(sub, b))
                provenance = {"construction": "moment", "complex": f"{entry.name}.json", "i": i}
                census_bytes = fileio.dump_json(fileio.chain_to_dict(chain, provenance), None)
                assert out.read_text() == census_bytes, argv
                cases.append((argv, census_bytes.encode(), sub, b, i, chain))

    def refuse(*args):
        raise AssertionError("hyperplane census or K' on the closed-form path")

    monkeypatch.setattr(polar, "half_link_report", refuse)
    monkeypatch.setattr(exactlin, "integer_normal", refuse)
    monkeypatch.setattr(polar, "integer_normal", refuse)
    monkeypatch.setattr(cal, "subdivide_function", refuse)
    monkeypatch.setattr(Subdivision, "complex", property(refuse))
    for argv, census_bytes, sub, b, i, chain in cases:
        out = tmp_path / "closed.json"
        assert run(argv + ["--out", out]) == 0
        assert out.read_bytes() == census_bytes, argv
        assert sw.sw_representative(sub, b, i) == chain, argv
    assert len(cases) > 40


@pytest.mark.parametrize("fn", [None, EDGE_FN], ids=["constant", "non-euler"])
@pytest.mark.parametrize("report", [False, True], ids=["chain", "report"])
def test_moment_dim_out_of_range_beats_non_euler_function(tmp_path, capsys, fn, report):
    argv = ["polar", "--complex", CORPUS / "s1_3.json", "--dim", 2, "--moment",
            "--out", tmp_path / "c.json"]
    if fn is not None:
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(fn))
        argv += ["--fn", path]
    if report:
        argv += ["--report", tmp_path / "hl.json"]
    code, streams = run(argv, capsys)
    assert code == 6
    assert streams.err == "error: i=2 out of range for a 1-complex\n"


@pytest.mark.parametrize("dim, fn, code, message", [
    pytest.param(0, EDGE_FN, 5, "Stiefel-Whitney representatives require an Euler function",
                 id="non-euler"),
    pytest.param(2, EDGE_FN, 5, "Stiefel-Whitney representatives require an Euler function",
                 id="non-euler-out-of-range"),
    pytest.param(2, {"ring": "Z", "terms": [{"coeff": 3, "closed_support": [["1", "2"], ["2", "3"],
                 ["1", "3"]]}]}, 4, "i=2 out of range for a 1-complex", id="out-of-range"),
])
def test_stiefel_fn_exit_codes(tmp_path, capsys, dim, fn, code, message):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(fn))
    out = tmp_path / "c.json"
    got, streams = run(["stiefel", "--complex", CORPUS / "s1_3.json", "--dim", dim,
                        "--fn", path, "--out", out], capsys)
    assert (got, streams.err) == (code, f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["polar", "--moment"], id="polar-moment"),
    pytest.param(["polar", "--moment", "--fn"], id="polar-moment-fn"),
    pytest.param(["stiefel", "--fn"], id="stiefel-fn"),
])
def test_euler_test_runs_once_on_the_given_complex(tmp_path, monkeypatch, corpus, argv):
    # duality commutes with subdivision, so K decides the function on K' too; one Euler
    # test at every i
    k = corpus["rp2_6"].complex
    fn = tmp_path / "fn.json"
    fileio.dump_json(fileio.function_to_dict(random_euler_function(random.Random(4), k)), fn)
    bases = []
    offenders = cal.euler_offenders
    # a module that imported euler_offenders by name would call it past cal.euler_offenders
    for module in (cal, polar, sw):
        monkeypatch.setattr(module, "euler_offenders",
                            lambda a: bases.append(a.base) or offenders(a), raising=False)
    if argv[-1] == "--fn":
        argv = argv + [fn]
    for i in range(k.dim + 1):
        bases.clear()
        code = run(argv[:1] + ["--complex", CORPUS / "rp2_6.json", "--dim", i] + argv[1:]
                   + ["--out", tmp_path / "c.json"])
        assert code == 0
        assert [base == k for base in bases] == [True], i


def test_random_plane_chain_builds_no_report(tmp_path, monkeypatch):
    sd1 = tmp_path / "sd1.json"
    assert run(["subdivide", "--complex", CORPUS / "rp2_6_embedded.json", "--out", sd1]) == 0
    cases = [(CORPUS / "rp2_6_embedded.json", i, seed) for i in range(3) for seed in (1, 2)]
    cases += [(sd1, 0, 4), (CORPUS / "s1_6.json", 1, 3)]
    expected = []
    for complex_path, i, seed in cases:
        out = tmp_path / f"{i}_{seed}.json"
        assert run(["polar", "--complex", complex_path, "--dim", i, "--random-plane",
                    "--seed", seed, "--out", out]) == 0
        expected.append(out.read_bytes())

    def refuse(*args):
        raise AssertionError("half-link report built without --report")

    monkeypatch.setattr(polar, "half_link_report", refuse)
    for (complex_path, i, seed), chain in zip(cases, expected):
        out = tmp_path / "guarded.json"
        assert run(["polar", "--complex", complex_path, "--dim", i, "--random-plane",
                    "--seed", seed, "--out", out]) == 0
        assert out.read_bytes() == chain, (complex_path, i, seed)


def _polar_argvs(tmp_path, with_fn):
    """polar argvs for all four constructions, each with an Euler --fn when with_fn."""
    s1, emb = CORPUS / "s1_3.json", CORPUS / "rp2_6_embedded.json"
    affine, basis = tmp_path / "affine.json", tmp_path / "basis.json"
    affine.write_text(json.dumps(
        {"target_dim": 1, "images": {"1": ["0"], "2": ["1/2"], "3": ["2"]}}))
    basis.write_text(json.dumps({"ambient_dim": 5, "vectors": [
        ["1", "3", "9", "27", "81"], ["1", "-2", "5", "-7", "11"]]}))
    cases = [(CORPUS / "rp2_6.json", i, ["--moment"]) for i in range(3)]
    cases += [(s1, 0, ["--map", affine]), (emb, 1, ["--project", basis])]
    cases += [(emb, i, ["--random-plane", "--seed", 5]) for i in range(3)]
    rng = random.Random(8)
    argvs = []
    for j, (complex_path, i, mode) in enumerate(cases):
        argv = ["polar", "--complex", complex_path, "--dim", i] + mode
        if with_fn:
            fn = tmp_path / f"fn{j}.json"
            a = random_euler_function(rng, fileio.load_complex(complex_path))
            fileio.dump_json(fileio.function_to_dict(a), fn)
            argv += ["--fn", fn]
        argvs.append(argv)
    return argvs


@pytest.mark.parametrize("with_fn", [False, True], ids=["constant", "fn"])
def test_report_leaves_the_chain_unchanged(tmp_path, with_fn):
    for argv in _polar_argvs(tmp_path, with_fn):
        plain, out, report = tmp_path / "plain.json", tmp_path / "c.json", tmp_path / "hl.json"
        assert run(argv + ["--out", plain]) == 0, argv
        assert run(argv + ["--out", out, "--report", report]) == 0, argv
        assert out.read_bytes() == plain.read_bytes(), argv
        assert json.loads(report.read_text())["half_links"], argv


def test_map_and_project_chains_build_no_report(tmp_path, monkeypatch):
    argvs = [argv for with_fn in (False, True) for argv in _polar_argvs(tmp_path, with_fn)
             if "--map" in argv or "--project" in argv]
    expected = []
    for argv in argvs:
        out = tmp_path / "c.json"
        assert run(argv + ["--out", out]) == 0
        expected.append(out.read_bytes())

    def refuse(*args):
        raise AssertionError("half-link report built without --report")

    monkeypatch.setattr(polar, "half_link_report", refuse)
    for argv, chain in zip(argvs, expected):
        out = tmp_path / "guarded.json"
        assert run(argv + ["--out", out]) == 0
        assert out.read_bytes() == chain, argv
    assert len(argvs) == 4


def test_random_plane_reports_only_the_accepted_plane(tmp_path, monkeypatch):
    # every run rejects its first candidate, so each accepts a later one
    sd1 = tmp_path / "sd1.json"
    assert run(["subdivide", "--complex", CORPUS / "rp2_6_embedded.json", "--out", sd1]) == 0
    k = fileio.load_complex(sd1)
    argv = ["polar", "--complex", sd1, "--dim", 0, "--random-plane", "--seed", 4]
    candidates, reports = [], []
    chain, report = polar.polar_chain, polar.half_link_report

    def reject_first(f, a):
        candidates.append(f)
        if len(candidates) == 1:
            raise DegenerateMapError("first candidate rejected")
        return chain(f, a)

    monkeypatch.setattr(polar, "polar_chain", reject_first)
    assert run(argv + ["--out", tmp_path / "plain.json"]) == 0
    candidates.clear()
    reference = tmp_path / "reference_hl.json"
    assert run(argv + ["--out", tmp_path / "reference.json", "--report", reference]) == 0
    candidates.clear()
    monkeypatch.setattr(polar, "half_link_report",
                        lambda a, s, f: reports.append(s) or report(a, s, f))

    def refuse(*args):
        raise AssertionError("the accepted plane's map built again for its reports")

    monkeypatch.setattr(polar, "projection_map", refuse)
    out, hl = tmp_path / "c.json", tmp_path / "hl.json"
    assert run(argv + ["--out", out, "--report", hl]) == 0
    assert len(candidates) > 1
    assert reports == list(k.level(0))
    assert out.read_bytes() == (tmp_path / "plain.json").read_bytes()
    assert hl.read_bytes() == reference.read_bytes()
    assert [tuple(r["simplex"]) for r in json.loads(hl.read_text())["half_links"]] == reports


def test_random_plane_failure_names_the_last_reason(tmp_path, monkeypatch, capsys, corpus):
    def degenerate(f, s):
        raise DegenerateMapError(f"map is degenerate at simplex {list(s)}: "
                                 "its image spans no hyperplane", offender=s)

    monkeypatch.setattr(polar, "_side_test", degenerate)
    message = ("no nondegenerate basis in 200 tries; last candidate: "
               "map is degenerate at simplex ['1', '2']: its image spans no hyperplane")
    ones = cal.constant(corpus["rp2_6_embedded"].complex, 1, cal.RING_Z2)
    with pytest.raises(PolarError) as e:
        polar.sample_generic_subspace(ones, 2, 0)
    assert type(e.value) is PolarError and str(e.value) == message
    code, out = run(["polar", "--complex", CORPUS / "rp2_6_embedded.json", "--dim", 1,
                     "--random-plane", "--out", tmp_path / "c.json"], capsys)
    assert code == 6
    assert out.err == f"error: {message}\n"


def test_polar_input_error_beats_map_error(tmp_path):
    # torus_7 has no coordinates, so sampling a plane would fail with exit 6
    fn = tmp_path / "bad.json"
    fn.write_text("{")
    code = run(
        ["polar", "--complex", CORPUS / "torus_7.json", "--dim", 0,
         "--random-plane", "--fn", fn, "--out", tmp_path / "c.json"]
    )
    assert code == 2


@pytest.mark.parametrize("command, data", [
    pytest.param("complex", {"vertices": 5, "maximal_simplices": []}, id="vertices-not-list"),
    pytest.param("complex", {"vertices": ["a"], "maximal_simplices": [5]}, id="simplex-not-list"),
    pytest.param("complex", {"vertices": [1, 2], "maximal_simplices": [[1, 2]]}, id="int-ids"),
    pytest.param("subdivide", {"vertices": [1, 2], "maximal_simplices": [[1, 2]]},
                 id="int-ids-subdivide"),
    pytest.param("dual", {"vertices": [1, 2], "maximal_simplices": [[1, 2]]}, id="int-ids-dual"),
    pytest.param("complex", {"vertices": ["a"], "maximal_simplices": [["a"]], "coordinates": [1]},
                 id="coordinates-not-object"),
    pytest.param("complex", {"vertices": ["a"], "maximal_simplices": [["a"]],
                             "coordinates": {"a": ["1/2\n"]}}, id="coordinate-trailing-newline"),
    pytest.param("complex", {"vertices": ["a"], "maximal_simplices": [["a"]],
                             "coordinates": {"a": ["\u0663/4"]}}, id="coordinate-unicode-digit"),
    pytest.param("function", {"ring": "Z", "values": [1]}, id="values-not-object"),
    pytest.param("function", {"ring": "Z", "values": {"1": "x"}}, id="value-string"),
    pytest.param("function", {"ring": "Z", "values": {"1": 1.5}}, id="value-float"),
    pytest.param("function", {"ring": "Z", "terms": [5]}, id="term-not-object"),
    pytest.param("function", {"ring": "Z", "terms": [{"coeff": "x", "closed_support": [["1"]]}]},
                 id="coeff-string"),
    pytest.param("function", {"ring": "Z", "terms": [{"coeff": 1, "closed_support": [[]]}]},
                 id="fn-empty-simplex"),
    pytest.param("function", {"ring": "Z", "terms": [{"coeff": 1,
                                                      "closed_support": [["1", "1"]]}]},
                 id="fn-repeated-vertex"),
    pytest.param("chain", {"dim": 0, "simplices": [1]}, id="chain-simplex-not-list"),
    pytest.param("chain", {"dim": -3, "simplices": []}, id="chain-negative-dim"),
    pytest.param("chain", {"dim": 1, "simplices": [["1", "2"], ["2", "1"]]},
                 id="chain-duplicate-simplex"),
    pytest.param("basis", {"ambient_dim": "x", "vectors": []}, id="ambient-dim-string"),
    pytest.param("basis", {"ambient_dim": 2, "vectors": [5]}, id="vector-not-list"),
    pytest.param("affine-map", {"target_dim": 1, "images": [1]}, id="images-not-object"),
    pytest.param("affine-map", {"target_dim": "x", "images": {}}, id="target-dim-string"),
    pytest.param("affine-map", {"target_dim": 1, "images": {"1": ["0"], "2": ["1"], "3": ["2"],
                                                            "zzz": ["1/7"]}},
                 id="affine-map-vertex-outside-complex"),
    pytest.param("index", {"complexes": [{"name": "a", "euler": True, "pure": True}]},
                 id="index-entry-without-file"),
    pytest.param("map", {"vertex_map": {"0": "1", "1": "2", "2": "3", "3": "1", "4": "2", "5": 1}},
                 id="map-image-integer"),
    pytest.param("map", {"vertex_map": {"1": ["x"]}}, id="map-image-list"),
    pytest.param("map", {"vertex_map": ["0", "1"]}, id="map-not-object"),
])
def test_malformed_file_exit_code(tmp_path, capsys, command, data):
    path = tmp_path / "index.json" if command == "index" else tmp_path / "f.json"
    path.write_text(json.dumps(data))
    circle, out = CORPUS / "s1_3.json", tmp_path / "out.json"
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"ring": "Z", "values": {}}))
    argv = {
        "complex": ["chi", "--complex", path],
        "subdivide": ["subdivide", "--complex", path, "--out", out],
        "dual": ["dual", "--complex", path, "--fn", fn, "--out", out],
        "function": ["chi", "--complex", circle, "--fn", path],
        "chain": ["bounds", "--complex", circle, "--chain", path],
        "basis": ["polar", "--complex", CORPUS / "s1_6.json", "--dim", 0, "--project", path,
                  "--out", out],
        "affine-map": ["polar", "--complex", circle, "--dim", 0, "--map", path, "--out", out],
        "index": ["verify", "--suite", "calculus", "--complexes", tmp_path],
        "map": ["push", "--domain", CORPUS / "s1_6.json", "--codomain", circle, "--map", path,
                "--fn", fn, "--out", out],
    }[command]
    code, streams = run(argv, capsys)
    assert code == 2
    assert streams.err.startswith("error: ") and streams.err.count("\n") == 1
    if command == "map":
        assert streams.err.startswith("error: map file: ")


# ids may hold commas: the simplices ("a", "b") and ("a,b",) share the key "a,b", so
# neither a values file nor a barycenter can name them apart
SHARED_KEY = {"vertices": ["a", "b", "a,b"], "maximal_simplices": [["a", "b", "a,b"]]}
SHARED_KEY_CIRCLE = {"vertices": ["a", "b", "a,b"],
                     "maximal_simplices": [["a", "b"], ["a", "a,b"], ["b", "a,b"]]}
AMBIGUOUS = "error: ambiguous simplex key 'a,b' in this complex\n"


@pytest.mark.parametrize("command, expected", [
    ("subdivide", 3), ("stiefel", 3), ("moment", 3), ("moment-report", 3), ("dual", 2),
])
def test_a_complex_whose_keys_collide_is_refused(tmp_path, capsys, command, expected):
    # every command that reads K' exits 3 before it writes; a values file exits 2
    path, fn, out = tmp_path / "k.json", tmp_path / "fn.json", tmp_path / "out"
    path.write_text(json.dumps(SHARED_KEY))
    fn.write_text(json.dumps({"ring": "Z", "values": {"a": 1}}))
    out.mkdir()
    moment = ["polar", "--complex", path, "--dim", 0, "--moment", "--out", out / "c.json"]
    argv = {
        "subdivide": ["subdivide", "--complex", path, "--out", out / "sd1.json",
                      "--manifest", out / "carriers.json"],
        "stiefel": ["stiefel", "--complex", path, "--dim", 0, "--out", out / "s0.json"],
        "moment": moment,
        "moment-report": moment + ["--report", out / "report.json"],
        "dual": ["dual", "--complex", path, "--fn", fn, "--out", out / "dual.json"],
    }[command]
    code, streams = run(argv, capsys)
    assert (code, streams.err) == (expected, AMBIGUOUS)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("suite", ["stiefel", "polar", "axioms", "calculus"])
def test_verify_refuses_an_euler_space_whose_keys_collide(tmp_path, capsys, suite):
    (tmp_path / "circle.json").write_text(json.dumps(SHARED_KEY_CIRCLE))
    circle = fileio.complex_from_dict(SHARED_KEY_CIRCLE)
    assert cal.is_euler_space(circle).is_euler
    code, streams = run(["verify", "--suite", suite, "--complexes", tmp_path], capsys)
    if suite == "calculus":  # it reads no K'
        assert code == 0
    else:
        assert (code, streams.err) == (3, AMBIGUOUS)


@pytest.mark.parametrize("name, parse", [
    ("indicator_sum", lambda k: fileio.function_from_dict(
        {"ring": "Z", "terms": [{"coeff": 1, "closed_support": [["1", "2"]]}]}, k)),
    ("from_values", lambda k: fileio.function_from_dict({"ring": "Z", "values": {"1": 1}}, k)),
    ("Mod2Chain", lambda k: fileio.chain_from_dict({"dim": 1, "simplices": [["1", "2"]]}, k)),
    ("AffineVertexMap", lambda k: fileio.affine_map_from_dict(
        {"target_dim": 1, "images": {"1": ["0"], "2": ["1"], "3": ["2"]}}, k)),
], ids=["indicator_sum", "from_values", "Mod2Chain", "AffineVertexMap"])
def test_a_library_fault_is_not_an_input_error(monkeypatch, circle, name, parse):
    # only package errors become InputErrors (exit 2); a bug in the library keeps its traceback
    def fault(*args):
        raise TypeError("library fault")

    monkeypatch.setattr(fileio, name, fault)
    with pytest.raises(TypeError, match="library fault"):
        parse(circle)


def test_verify_cli(capsys):
    code, out = run(
        ["verify", "--suite", "calculus", "--seed", 3, "--trials", 12], capsys
    )
    assert code == 0
    assert "suite calculus: ok (seed 3)" in out.out


def test_verify_cli_json(capsys):
    code, out = run(
        ["verify", "--suite", "stiefel", "--seed", 1, "--trials", 3, "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out.out)
    assert (payload["suite"], payload["seed"], payload["ok"]) == ("stiefel", 1, True)
    assert payload["properties"] and all(p["failures"] == 0 for p in payload["properties"])


def _failing_polar_suite(tmp_path, monkeypatch):
    """A corpus directory holding one triangle circle, "tri", on which half-link parity fails.

    The census is patched to report chi- flipped, so the suite fails on an Euler space.
    """
    spaces = tmp_path / "spaces"
    spaces.mkdir()
    (spaces / "tri.json").write_text(json.dumps(
        {"vertices": ["1", "2", "3"], "maximal_simplices": [["1", "2"], ["1", "3"], ["2", "3"]]}))
    (spaces / "index.json").write_text(json.dumps({"complexes": [
        {"name": "tri", "file": "tri.json"}]}))
    report = polar.half_link_report

    def flipped(a, s, f):
        r = report(a, s, f)
        return dataclasses.replace(r, chi_minus=1 - r.chi_minus)

    monkeypatch.setattr(polar, "half_link_report", flipped)
    monkeypatch.chdir(tmp_path)
    return ["verify", "--suite", "polar", "--seed", 1, "--complexes", spaces]


def test_failing_suite_writes_its_counterexample(tmp_path, monkeypatch, capsys):
    code, out = run(_failing_polar_suite(tmp_path, monkeypatch), capsys)
    assert code == 1
    assert "FAIL: half-link parity" in out.out and "suite polar: FAILED (seed 1)" in out.out
    assert out.err == "counterexample written to counterexample_polar_1.json\n"
    counterexample = json.loads((tmp_path / "counterexample_polar_1.json").read_text())
    assert counterexample["complex"] == "tri"


def test_failing_suite_exits_1_when_its_counterexample_cannot_be_written(
        tmp_path, monkeypatch, capsys):
    (tmp_path / "counterexample_polar_1.json").mkdir()
    code, out = run(_failing_polar_suite(tmp_path, monkeypatch), capsys)
    assert code == 1
    assert "suite polar: FAILED (seed 1)" in out.out
    assert out.err.startswith("error: cannot write counterexample_polar_1.json: ")
    assert out.err.count("\n") == 1
    assert (tmp_path / "counterexample_polar_1.json").is_dir()


def test_verify_rejects_negative_trials(capsys):
    with pytest.raises(SystemExit) as e:
        run(["verify", "--suite", "calculus", "--trials", -5])
    assert e.value.code == 2
    streams = capsys.readouterr()
    assert streams.out == ""
    assert "argument --trials: must be nonnegative, got -5" in streams.err


def _dump(data):
    return fileio.dump_json(data, None)


def _library_dump(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


class _Level(enum.IntEnum):
    """An int subclass with its own repr; JSON writes it as the int."""
    LOW = -1
    HIGH = 2


# strings that need escaping, next to any text
_ESCAPED = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028",
                            "\U0001f600", "a\"b", "x\\y", "/"])
_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80)
                | st.sampled_from(list(_Level)) | st.floats() | _ESCAPED | st.text())
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(st.lists(st.text(max_size=3) | _ESCAPED, max_size=3), max_size=3)
                   | st.dictionaries(st.text(max_size=4) | _ESCAPED, inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=2)),
    max_leaves=25,
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=_JSON_VALUES)
@example(data={"ints": [0, 1, -1, 2 ** 64], "flags": (True, False, None), "empty": [[], {}, ""]})
# rows of strings are written in one join: beside them, rows that are not all nonempty
# lists of strings, and rows of ids that need escaping
@example(data={"simplices": [["a"], []], "last": [["a", "b"], [], ["c"]]})
@example(data=[["a", "b"], "c", ["d"]])
@example(data=(("a", "b"), ("c",)))
@example(data={"normal": [3, -1, 2], "rows": [[1, 2], [-3]], "mixed": [["a", 1]]})
@example(data=[["a\"b", "x\\y", "a,b"], ["\u00e9", "\U0001f600"], [","]])
def test_dump_json_writes_the_library_encoders_bytes(data):
    assert _dump(data) == _library_dump(data)


def test_dump_json_matches_the_library_encoder_on_the_corpus(corpus, subdivisions):
    for path in sorted(CORPUS.glob("*.json")):
        data = fileio.load_json(path)
        assert _dump(data) == _library_dump(data) == path.read_text()
    for name, entry in corpus.items():
        for k in (entry.complex, subdivisions[name].complex):
            data = fileio.complex_to_dict(fileio.complex_from_dict(fileio.complex_to_dict(k)))
            assert _dump(data) == _library_dump(data)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2 ** 16), subdivided=st.booleans(), coordinates=st.booleans(),
       ring=st.sampled_from([cal.RING_Z, cal.RING_Z2]), data=st.data())
def test_parse_serialize_round_trip_is_byte_stable(
        corpus, subdivisions, seed, subdivided, coordinates, ring, data):
    name = data.draw(st.sampled_from(sorted(corpus)))
    k = subdivisions[name].complex if subdivided else corpus[name].complex
    raw = fileio.complex_to_dict(k)
    if not coordinates:
        raw.pop("coordinates", None)
    text = _dump(raw)
    k = fileio.complex_from_dict(json.loads(text))
    assert _dump(fileio.complex_to_dict(k)) == text
    d = data.draw(st.integers(0, k.dim))
    c = Mod2Chain(d, frozenset(data.draw(st.sets(st.sampled_from(k.level(d))))))
    text = _dump(fileio.chain_to_dict(c))
    assert _dump(fileio.chain_to_dict(fileio.chain_from_dict(json.loads(text), k))) == text
    text = _dump(fileio.function_to_dict(random_function(random.Random(seed), k, ring)))
    assert _dump(fileio.function_to_dict(fileio.function_from_dict(json.loads(text), k))) == text


def _library_half_links(reports):
    return _library_dump({"half_links": [fileio.half_link_report_to_dict(r) for r in reports]})


def test_dump_half_links_writes_the_library_encoders_bytes(tmp_path, corpus, subdivisions):
    censuses = [()]
    # every embedded corpus space at every i, under a seeded random plane
    for k in (entry.complex for entry in corpus.values()):
        if k.coordinates is None:
            continue
        ambient = len(next(iter(k.coordinates.values())))
        for i in range(min(k.dim, ambient - 1) + 1):
            f, _ = polar.sample_generic_subspace(cal.constant(k, 1), i + 1, 7)
            censuses.append(polar.polar_census(f, cal.constant(k, 1)))
    # and a map with rational images, whose offsets are not all integers, on ids that JSON escapes
    ids = ['a"b', "x\\y", "\u00e9"]
    k = build_complex(ids, [ids[:2], ids[1:], ids[::2]])
    images = dict(zip(ids, (["0"], ["1/2"], ["2"])))
    f = fileio.affine_map_from_dict({"target_dim": 1, "images": images}, k)
    censuses.append(polar.polar_census(f, cal.constant(k, 1)))
    for census in censuses:
        assert fileio.dump_half_links(census, None) == _library_half_links(census)
    reports = [r for census in censuses for r in census]
    assert any(x < 0 for r in reports for x in r.normal)
    assert any(r.offset.denominator > 1 for r in reports)
    # a top-dimensional census: no report has a cell
    assert any(census and not any(r.cells for r in census) for census in censuses)
    # --moment on K' of rp2_6, with an Euler function that is not constant
    k, sub = corpus["rp2_6"].complex, subdivisions["rp2_6"]
    a = random_euler_function(random.Random(11), k)
    assert len({a(s) for s in k.simplices}) > 1
    fn, out, report = tmp_path / "fn.json", tmp_path / "c.json", tmp_path / "hl.json"
    fileio.dump_json(fileio.function_to_dict(a), fn)
    weights = set()
    for i in range(k.dim + 1):
        argv = ["polar", "--complex", CORPUS / "rp2_6.json", "--dim", i, "--moment", "--fn", fn]
        assert run(argv + ["--out", out, "--report", report]) == 0
        census = polar.polar_census(polar.moment_map(sub, i), cal.subdivide_function(sub, a))
        weights.update(c.weight for r in census for c in r.cells)
        assert report.read_text() == _library_half_links(census), i
    assert weights == {0, 1}


# one valid file of each kind, and the command that reads it ({f} is the file, {d} its directory)
_FUZZ_SEEDS = [
    (fileio.load_json(CORPUS / "rp2_6_embedded.json"),
     ["subdivide", "--complex", "{f}", "--out", "{d}/out.json"]),
    ({"ring": "Z", "terms": [{"coeff": 1, "closed_support": [["1"]]},
                             {"coeff": 2, "closed_support": [["1", "2"], ["2", "3"]]}]},
     ["chi", "--complex", CORPUS / "s1_3.json", "--fn", "{f}"]),
    ({"ring": "Z2", "values": {"1": 1, "1,2": 1, "2": 1}},
     ["stiefel", "--complex", CORPUS / "s1_3.json", "--dim", 0, "--fn", "{f}",
      "--out", "{d}/out.json"]),
    ({"dim": 1, "simplices": [["1", "2"], ["1", "3"], ["2", "3"]]},
     ["bounds", "--complex", CORPUS / "boundary_delta3.json", "--chain", "{f}",
      "--witness", "{d}/w.json"]),
    ({"vertex_map": {"0": "1", "1": "2", "2": "3", "3": "1", "4": "2", "5": "3"}},
     ["pull", "--domain", CORPUS / "s1_6.json", "--codomain", CORPUS / "s1_3.json",
      "--map", "{f}", "--fn", "{d}/fn.json", "--out", "{d}/out.json"]),
    ({"ambient_dim": 2, "vectors": [["1", "3"]]},
     ["polar", "--complex", CORPUS / "s1_6.json", "--dim", 0, "--project", "{f}",
      "--out", "{d}/out.json"]),
    ({"target_dim": 1, "images": {"1": ["0"], "2": ["1/2"], "3": ["2"]}},
     ["polar", "--complex", CORPUS / "s1_3.json", "--dim", 0, "--map", "{f}",
      "--out", "{d}/out.json", "--report", "{d}/r.json"]),
    ({"complexes": [{"name": "c", "file": "s1_3.json", "description": "circle"}]},
     ["verify", "--suite", "stiefel", "--trials", 2, "--complexes", "{d}"]),
]
class _Raw:
    """JSON text that json.dumps cannot write: nested past the recursion limit, or a number
    with more digits than int() converts.  No parsed value has this type, so it replaces any."""

    def __init__(self, text):
        self.text = text


_JSON_VALUES = [None, True, 0, -1, 2.5, "x", "1/0", [], {}, [[]], [1], {"x": 1},
                _Raw("[" * 100_000 + "]" * 100_000), _Raw("9" * 5000),
                _Raw(json.dumps("9" * 5000 + "/1"))]


def _dumps(doc):
    """json.dumps(doc), with each _Raw value written as its text."""
    raws = []
    text = json.dumps(doc, default=lambda raw: f"@raw{raws.append(raw.text) or len(raws) - 1}@")
    for j, raw in enumerate(raws):
        text = text.replace(f'"@raw{j}@"', raw, 1)
    return text


def _positions(value, path=()):
    """The path of keys and indices to every value below the top of a JSON document."""
    children = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _positions(child, path + (key,))


@st.composite
def _mutated(draw, doc):
    """doc after one to three mutations: a key dropped, a value's JSON type swapped, a list emptied."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        positions = list(_positions(doc))
        if not positions:
            break
        *parent_path, key = draw(st.sampled_from(positions))
        parent = doc
        for step in parent_path:
            parent = parent[step]
        value = parent[key]
        kind = draw(st.sampled_from(["drop", "swap", "empty"]))
        if kind == "drop" and isinstance(parent, dict):
            del parent[key]
        elif kind == "empty" and isinstance(value, list):
            value.clear()
        else:
            others = [v for v in _JSON_VALUES if type(v) is not type(value)]
            parent[key] = copy.deepcopy(draw(st.sampled_from(others)))
    return doc


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_files_end_with_a_documented_exit_code(tmp_path, monkeypatch, capsys, data):
    monkeypatch.chdir(tmp_path)  # a failing verify suite writes its counterexample here
    doc, argv = data.draw(st.sampled_from(_FUZZ_SEEDS))
    bad = data.draw(_mutated(doc))
    directory = tmp_path / "d"
    directory.mkdir(exist_ok=True)
    for stale in directory.iterdir():
        stale.unlink()
    (directory / "s1_3.json").write_text((CORPUS / "s1_3.json").read_text())
    (directory / "fn.json").write_text(json.dumps({"ring": "Z", "values": {"1": 1}}))
    target = directory / ("index.json" if "--complexes" in argv else "f.json")
    target.write_text(_dumps(bad))
    argv = [str(a).format(f=target, d=directory) for a in argv]
    code, _out = run(argv, capsys)  # anything but a WhitneyError propagates and fails here
    assert code in range(7), (argv, bad)
