"""Byte-identity sweep: one line per CLI command, with its exit code and output hashes.

Runs a fixed list of ``whitney.cli.main`` commands in-process over the
bundled corpus, inside a temporary directory, and prints one line per
command: the exit code, the command, and the SHA-256 of its stdout, of its
stderr and of every file it wrote.  Paths are relative to the temporary
directory, so two checkouts print the same lines exactly when every
command exits and writes the same bytes, and a refactor's byte identity
comes down to a diff:

    python3 tools/byte_identity.py > after.txt
    python3 tools/byte_identity.py ../base-checkout/src > before.txt
    diff before.txt after.txt

The optional argument is the directory holding the ``whitney`` package to
run (default: ``src/`` of this checkout).  A command that raises prints
``raised-<Error>`` as its exit code and its traceback on stderr, and the
sweep then exits 1, so a crash cannot pass as a changed hash.  Standard
library only.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

_TRIANGLE = [["1", "2"], ["1", "3"], ["2", "3"]]
_DELTA2 = {"vertices": ["1", "2", "3"], "maximal_simplices": [["1", "2", "3"]]}
_SIMPLEX40 = [f"v{j:02d}" for j in range(40)]


def _labelled(file: str) -> dict:
    """A corpus index naming one file and labelling it Euler and pure; the loader ignores labels."""
    return {"complexes": [{"name": "k", "file": file, "euler": True, "pure": True}]}


# written to in/ (a name with a slash makes a corpus directory); the inputs from
# map_extra.json on are hostile, for the input checks and the corpus loader
INPUTS = {
    "fn_s1_3.json": {"ring": "Z", "terms": [{"coeff": 1, "closed_support": [["1"]]},
                                            {"coeff": 2, "closed_support": _TRIANGLE}]},
    "fn_s1_6.json": {"ring": "Z", "values": {"0": 3, "0,1": 1, "1": 1}},
    # a vertex plus a loop through it: Euler, and not constant
    "fn_rp2_6.json": {"ring": "Z", "terms": [{"coeff": 1, "closed_support": [["1"]]},
                                             {"coeff": 3, "closed_support": _TRIANGLE}]},
    # fn_rp2_6 with coefficients -1 and -3: the same function mod 2, so the same classes
    "fn_rp2_6_neg.json": {"ring": "Z", "terms": [{"coeff": -1, "closed_support": [["1"]]},
                                                 {"coeff": -3, "closed_support": _TRIANGLE}]},
    "fn_torus_7.json": {"ring": "Z2", "terms": [{"coeff": 1, "closed_support": [["0"]]}, {
        "coeff": 1, "closed_support": [["0", "1"], ["0", "3"], ["1", "3"]]}]},
    "fn_edge.json": {"ring": "Z2", "terms": [{"coeff": 1, "closed_support": [["1", "2"]]}]},
    "double_cover.json": {"vertex_map": {"0": "1", "1": "2", "2": "3", "3": "1", "4": "2",
                                         "5": "3"}},
    "cycle_s1_3.json": {"dim": 1, "simplices": _TRIANGLE},
    "basis.json": {"ambient_dim": 5, "vectors": [["1", "3", "9", "27", "81"],
                                                 ["1", "-2", "5", "-7", "11"]]},
    "basis_flat.json": {"ambient_dim": 5, "vectors": [["1", "2", "0", "1", "3"],
                                                      ["0", "1", "1", "0", "2"]]},
    "map_s1_3.json": {"target_dim": 1, "images": {"1": ["0"], "2": ["1/2"], "3": ["2"]}},
    # a circle on ids that the writer must escape: non-ASCII, a quote and a backslash
    "k_escaped.json": {"vertices": ["é", "a\"b", "x\\y"],
                       "maximal_simplices": [["é", "a\"b"], ["é", "x\\y"], ["a\"b", "x\\y"]]},
    "map_extra.json": {"target_dim": 1, "images": {"1": ["0"], "2": ["1/2"], "3": ["2"],
                                                   "zzz": ["1/7"]}},
    "vm_extra.json": {"vertex_map": {"1": "1", "2": "2", "3": "3", "zzz": "1"}},
    "chain_twice.json": {"dim": 1, "simplices": [["1", "2"], ["2", "1"]]},
    "chain_bad.json": {"dim": 0, "simplices": [1]},
    "chain_repeated.json": {"dim": 1, "simplices": [["1", "1"]]},
    "fn_repeated.json": {"ring": "Z", "terms": [{"coeff": 1, "closed_support": [["1", "1"]]}]},
    "k_unused_vertex.json": {"vertices": ["a", "b"], "maximal_simplices": [["a"]]},
    "k_no_simplex.json": {"vertices": [], "maximal_simplices": []},
    "k_foreign_coords.json": {"vertices": ["a"], "maximal_simplices": [["a"]],
                              "coordinates": {"a": ["0"], "z": ["1"]}},
    "triangle_labelled/index.json": _labelled("triangle.json"),
    "triangle_labelled/triangle.json": _DELTA2,
    "wedge_labelled/index.json": _labelled("s2_wedge_s1.json"),
    # S^2 v S^1: the boundary of a tetrahedron and a triangle circle share vertex 1
    "wedge_labelled/s2_wedge_s1.json": {"vertices": ["1", "2", "3", "4", "5", "6"],
                                        "maximal_simplices": [
        ["1", "2", "3"], ["1", "2", "4"], ["1", "3", "4"], ["2", "3", "4"], ["1", "5"],
        ["1", "6"], ["5", "6"]]},
    "empty_index/index.json": {"complexes": []},
    "empty_complex/empty.json": {"vertices": [], "maximal_simplices": []},
    "duplicate_name/index.json": {"complexes": [{"name": "a", "file": "s1_3.json"},
                                                {"name": "a", "file": "delta2.json"}]},
    "duplicate_name/s1_3.json": {"vertices": ["1", "2", "3"], "maximal_simplices": _TRIANGLE},
    "duplicate_name/delta2.json": _DELTA2,
    "delta2_only/delta2.json": _DELTA2,
    # a triangle circle and a path: 0-chains bound exactly when each component holds
    # an even number of their vertices
    "k_two_components.json": {"vertices": ["1", "2", "3", "p", "q", "r"],
                              "maximal_simplices": _TRIANGLE + [["p", "q"], ["q", "r"]]},
    "c0_even.json": {"dim": 0, "simplices": [["1"], ["3"], ["p"], ["r"]]},
    "c0_odd.json": {"dim": 0, "simplices": [["1"], ["3"], ["q"]]},
    # more than one bad entry: the message names one, whatever the hash seed
    "chain_foreign.json": {"dim": 1, "simplices": [["1", "4"], ["2", "5"], ["3", "6"]]},
    "chain_low_dim.json": {"dim": 1, "simplices": [["1"], ["2"]]},
    "fn_foreign.json": {"ring": "Z", "terms": [{"coeff": 1, "closed_support": [["1", "9"]]}]},
    # a rational with more digits than int() converts
    "map_long.json": {"target_dim": 1, "images": {"1": ["9" * 5000 + "/1"], "2": ["1/2"],
                                                  "3": ["2"]}},
    # impure: its K' lists maximal simplices of two sizes
    "k_dangling_edge.json": {"vertices": ["1", "2", "3", "4"],
                             "maximal_simplices": [["1", "2", "3"], ["3", "4"]]},
    # a filled triangle and a hollow one: no edge of the hollow circle lies in a triangle
    "k_disk_and_circle.json": {"vertices": ["1", "2", "3", "4", "5", "6"],
                               "maximal_simplices": [["1", "2", "3"], ["4", "5"], ["4", "6"],
                                                     ["5", "6"]]},
    "cycle_456.json": {"dim": 1, "simplices": [["4", "5"], ["4", "6"], ["5", "6"]]},
    # even in both components of k_disk_and_circle, then odd in the filled triangle
    "c0_disk_even.json": {"dim": 0, "simplices": [["1"], ["2"], ["5"], ["6"]]},
    "c0_disk_odd.json": {"dim": 0, "simplices": [["1"], ["4"], ["5"], ["6"]]},
    # a triangle with a path hanging from it, and an isolated vertex z
    "k_isolated_vertex.json": {"vertices": ["1", "2", "3", "4", "5", "z"],
                               "maximal_simplices": [["1", "2", "3"], ["3", "4"], ["4", "5"],
                                                     ["z"]]},
    "c0_lone_even.json": {"dim": 0, "simplices": [["1"], ["5"]]},
    "c0_lone_odd.json": {"dim": 0, "simplices": [["1"], ["z"]]},
    # one simplex on 5 vertices: every flag of K' ends at one of its faces
    "k_simplex5.json": {"vertices": _SIMPLEX40[:5], "maximal_simplices": [_SIMPLEX40[:5]]},
    # one simplex on 40 vertices: its closure would pass the size cap
    "k_simplex40.json": {"vertices": _SIMPLEX40, "maximal_simplices": [_SIMPLEX40]},
    # one simplex on 10 vertices: its closure passes the size cap, its subdivision does not
    "k_simplex10.json": {"vertices": _SIMPLEX40[:10], "maximal_simplices": [_SIMPLEX40[:10]]},
    # a triangle with an edge hanging from it, listed with faces of listed simplices and repeats
    "k_listed_faces.json": {"vertices": ["1", "2", "3", "4"],
                            "maximal_simplices": [["2", "1"], ["1", "2", "3"], ["4", "3"],
                                                  ["3", "2", "1"], ["3"], ["3", "4"]]},
    # ids with commas: the simplices ("a", "b") and ("a,b",) share the key "a,b"
    "k_comma_ids.json": {"vertices": ["a", "b", "a,b"], "maximal_simplices": [["a", "b", "a,b"]]},
    "fn_comma_ids.json": {"ring": "Z", "values": {"a": 1}},
    # vertices 1 and 4 of k_listed_faces, joined by the path 1, 3, 4: they bound
    "c0_listed_faces.json": {"dim": 0, "simplices": [["4"], ["1"]]},
    # malformed complex, function, basis, affine-map and vertex-map files, one fault each
    "k_missing_coords.json": {"vertices": ["a", "b"], "maximal_simplices": [["a", "b"]],
                              "coordinates": {"a": ["0"]}},
    "k_mixed_dims.json": {"vertices": ["a", "b"], "maximal_simplices": [["a", "b"]],
                          "coordinates": {"a": ["0"], "b": ["0", "1"]}},
    "k_top_list.json": [["a"]],
    "k_coords_not_list.json": {"vertices": ["a"], "maximal_simplices": [["a"]],
                               "coordinates": {"a": "0"}},
    "fn_terms_and_values.json": {"ring": "Z", "terms": [], "values": {}},
    "basis_3d.json": {"ambient_dim": 3, "vectors": [["1", "0", "0"]]},
    "map_target0.json": {"target_dim": 0, "images": {"1": [], "2": [], "3": []}},
    "map_short_image.json": {"target_dim": 1, "images": {"1": ["0"], "2": ["1/2"], "3": []}},
    "vm_foreign_image.json": {"vertex_map": {"1": "1", "2": "2", "3": "9"}},
}
# written as they stand: json.dumps cannot write a file nested past the recursion limit,
# nor an integer with more digits than int() converts
RAW_INPUTS = {
    "k_deep.json": '{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "k_long_integer.json": '{"vertices": ["1"], "maximal_simplices": [["1"]], "n": '
                           + "9" * 5000 + "}",
}


def _reversed(data: dict) -> dict:
    """A complex file with its ids renamed so that the canonical vertex order is reversed."""
    ids = sorted(data["vertices"])
    new = {v: f"v{len(ids) - 1 - j:03d}" for j, v in enumerate(ids)}
    out = {"vertices": [new[v] for v in data["vertices"]],
           "maximal_simplices": [[new[v] for v in s] for s in data["maximal_simplices"]]}
    if "coordinates" in data:
        out["coordinates"] = {new[v]: p for v, p in data["coordinates"].items()}
    return out


# corpus spaces copied to in/reversed/ with the vertex order reversed, by _reversed
REVERSED = ("torus_7", "rp2_6_embedded")


def commands(corpus: Path) -> list[list[str]]:
    """The sweep, in order; a command may read what an earlier one wrote to out/."""
    names = [e["name"] for e in json.loads((corpus / "index.json").read_text())["complexes"]]
    c = "corpus/{}.json".format
    s1, s6, emb = c("s1_3"), c("s1_6"), c("rp2_6_embedded")
    out = []
    for n in names:
        out += [
            ["chi", "--complex", c(n)],
            ["euler-check", "--complex", c(n), "--format", "json"],
            ["homology", "--complex", c(n), "--format", "json"],
            ["subdivide", "--complex", c(n), "--out", f"out/sd1_{n}.json",
             "--manifest", f"out/sd1_{n}.carriers.json"],
        ]
        out += [["stiefel", "--complex", c(n), "--dim", str(i), "--out", f"out/s{i}_{n}.json"]
                for i in range(4)]
        out += [["polar", "--complex", c(n), "--dim", str(i), "--moment",
                 "--out", f"out/moment{i}_{n}.json"] for i in range(3)]
    for n in ("torus_7", "rp2_6_embedded", "wedge_spheres"):
        sd1 = f"out/sd1_{n}.json"
        out.append(["subdivide", "--complex", sd1, "--out", f"out/sd2_{n}.json"])
        out += [["stiefel", "--complex", sd1, "--dim", str(i), "--out", f"out/sd1_s{i}_{n}.json"]
                for i in range(3)]
        out += [["bounds", "--complex", f"out/sd2_{n}.json", "--chain",
                 f"out/sd1_s{i}_{n}.json", "--witness", f"out/sd1_w{i}_{n}.json"]
                for i in range(3)]
    for n in ("rp2_6", "torus_7"):
        out += [["stiefel", "--complex", c(n), "--dim", str(i), "--fn", f"in/fn_{n}.json",
                 "--out", f"out/fn_s{i}_{n}.json"] for i in range(3)]
        out += [["polar", "--complex", c(n), "--dim", str(i), "--moment",
                 "--fn", f"in/fn_{n}.json", "--out", f"out/fn_moment{i}_{n}.json"]
                for i in range(3)]
    out += [["polar", "--complex", "out/sd1_torus_7.json", "--dim", str(i), "--moment",
             "--out", f"out/sd1_moment{i}_torus_7.json"] for i in range(3)]
    out += [
        ["euler-check", "--complex", c("rp2_6"), "--format", "text"],
        ["homology", "--complex", c("torus_7"), "--format", "text"],
        ["dual", "--complex", s1, "--fn", "in/fn_s1_3.json", "--out", "out/dual_s1_3.json"],
        ["dual", "--complex", c("rp2_6"), "--fn", "in/fn_rp2_6.json", "--out", "out/dual.json"],
        ["dual", "--complex", c("rp2_6"), "--fn", "out/s1_rp2_6.json", "--out", "out/no.json"],
        ["chi", "--complex", s1, "--fn", "in/fn_s1_3.json"],
        ["euler-check", "--complex", s1, "--fn", "in/fn_edge.json", "--format", "json"],
        ["stiefel", "--complex", s1, "--dim", "0", "--fn", "in/fn_s1_3.json",
         "--out", "out/fn_s0_s1_3.json"],
        ["stiefel", "--complex", s1, "--dim", "0", "--fn", "in/fn_edge.json",
         "--out", "out/fn_edge_s0.json"],
        ["polar", "--complex", s1, "--dim", "0", "--moment", "--fn", "in/fn_edge.json",
         "--out", "out/fn_edge_moment0.json"],
        ["chi", "--complex", s1, "--fn", "in/fn_repeated.json"],
        ["validate", "in/chain_repeated.json"],
        ["bounds", "--complex", s1, "--chain", "in/chain_foreign.json"],
        ["validate", "in/chain_foreign.json", "--complex", s1],
        ["bounds", "--complex", s1, "--chain", "in/chain_low_dim.json"],
        ["chi", "--complex", s1, "--fn", "in/fn_foreign.json"],
        ["push", "--domain", s6, "--codomain", s1, "--map", "in/double_cover.json",
         "--fn", "in/fn_s1_6.json", "--out", "out/push.json"],
        ["pull", "--domain", s6, "--codomain", s1, "--map", "in/double_cover.json",
         "--fn", "in/fn_s1_3.json", "--out", "out/pull.json"],
        ["push", "--domain", s1, "--codomain", s1, "--map", "in/vm_extra.json",
         "--fn", "in/fn_s1_3.json", "--out", "out/push_extra.json"],
        ["bounds", "--complex", s1, "--chain", "in/cycle_s1_3.json", "--format", "json"],
        ["bounds", "--complex", s1, "--chain", "in/chain_twice.json"],
        ["bounds", "--complex", s1, "--chain", "in/chain_bad.json"],
        ["validate", c("rp2_6"), "out/sd1_torus_7.json", "in/double_cover.json", "in/basis.json",
         "in/cycle_s1_3.json", "in/chain_twice.json"],
        ["validate", "in/double_cover.json", "--domain", s6, "--codomain", s1],
        ["validate", "in/vm_extra.json", "--domain", s1, "--codomain", s1],
        ["validate", "in/fn_s1_3.json", "in/map_s1_3.json", "in/map_extra.json",
         "--complex", s1],
        ["chi", "--complex", "in/k_unused_vertex.json"],
        ["subdivide", "--complex", "in/k_foreign_coords.json", "--out", "out/sd_foreign.json"],
        ["validate", "in/k_unused_vertex.json", "in/k_no_simplex.json",
         "in/k_foreign_coords.json"],
        ["stiefel", "--complex", s1, "--dim", "0", "--out", "out/missing/s0.json"],
    ]
    for report in ([], ["--report", "out/report_{}.json"]):
        tag = "r" if report else "c"
        polar = [
            ["--complex", c("rp2_6"), "--dim", "1", "--moment"],
            ["--complex", c("rp2_6"), "--dim", "1", "--moment", "--fn", "in/fn_rp2_6.json"],
            ["--complex", c("wedge_spheres"), "--dim", "2", "--moment"],
            ["--complex", s1, "--dim", "0", "--map", "in/map_s1_3.json"],
            ["--complex", s1, "--dim", "0", "--map", "in/map_extra.json"],
            ["--complex", s1, "--dim", "0", "--map", "in/map_s1_3.json",
             "--fn", "in/fn_s1_3.json"],
            ["--complex", emb, "--dim", "1", "--project", "in/basis.json"],
            ["--complex", emb, "--dim", "1", "--project", "in/basis_flat.json"],
            ["--complex", emb, "--dim", "0", "--random-plane", "--seed", "1"],
            ["--complex", emb, "--dim", "1", "--random-plane", "--seed", "2"],
            ["--complex", "out/sd1_rp2_6_embedded.json", "--dim", "2", "--random-plane"],
            ["--complex", s6, "--dim", "1", "--random-plane", "--seed", "3"],
        ]
        out += [["polar"] + argv + ["--out", f"out/polar_{tag}{j}.json"]
                + [a.format(j) for a in report] for j, argv in enumerate(polar)]
    # --report with a non-constant Euler function at even i, where the carrier rule needs it Euler
    out += [["polar", "--complex", c("rp2_6"), "--dim", str(i), "--moment", "--fn",
             "in/fn_rp2_6.json", "--out", f"out/fn_moment_r{i}.json",
             "--report", f"out/fn_report{i}.json"] for i in (0, 2)]
    # the accepted plane's reports are written: seed 4 at --dim 0 on sd1 of rp2_6_embedded
    # accepts its first candidate (the tests force a rejected one); a non-Euler function exits 5
    out += [
        ["polar", "--complex", "out/sd1_rp2_6_embedded.json", "--dim", "0", "--random-plane",
         "--seed", "4", "--out", "out/polar_retry.json", "--report", "out/report_retry.json"],
        ["polar", "--complex", emb, "--dim", "1", "--random-plane", "--fn", "in/fn_edge.json",
         "--out", "out/polar_edge.json"],
    ]
    for suite in ("calculus", "stiefel", "polar", "axioms"):
        out.append(["verify", "--suite", suite, "--seed", "1", "--format", "json"])
    out.append(["verify", "--suite", "stiefel", "--seed", "2", "--trials", "7"])
    # more trials for the suites whose checks compare a subdivision with its base
    out += [["verify", "--suite", suite, "--seed", "3", "--trials", "12", "--format", "json"]
            for suite in ("axioms", "polar")]
    for directory, suites in (("triangle_labelled", ("stiefel", "polar")),
                              ("wedge_labelled", ("stiefel",)),
                              ("empty_index", ("calculus", "stiefel")),
                              ("empty_complex", ("calculus",)),
                              ("duplicate_name", ("polar",)),
                              ("delta2_only", ("polar",)),
                              # classes on K are read in the canonical vertex order
                              ("reversed", ("polar", "axioms"))):
        out += [["verify", "--suite", suite, "--seed", "1", "--trials", "4",
                 "--complexes", f"in/{directory}"] for suite in suites]
    # a command with two outputs whose second target cannot be written writes neither
    out += [
        ["polar", "--complex", s1, "--dim", "0", "--moment", "--out", "out/partial_c.json",
         "--report", "out/nowhere/r.json"],
        ["subdivide", "--complex", s1, "--out", "out/partial_k.json",
         "--manifest", "out/nowhere/m.json"],
    ]
    # a chain that bounds, with a witness target that cannot be written: no verdict printed
    out.append(["bounds", "--complex", c("delta2"), "--chain", "in/cycle_s1_3.json",
                "--witness", "out/nowhere/w.json"])
    # i = 0 on two components: even in each, so a witness is written; odd in the path
    out += [["bounds", "--complex", "in/k_two_components.json", "--chain", f"in/c0_{parity}.json",
             "--witness", f"out/w0_{parity}.json"] for parity in ("even", "odd")]
    # escaped ids through subdivide, stiefel and bounds: s_0 bounds with a witness, s_1 does not
    out.append(["subdivide", "--complex", "in/k_escaped.json", "--out", "out/sd1_escaped.json",
                "--manifest", "out/sd1_escaped.carriers.json"])
    for i in range(2):
        out += [["stiefel", "--complex", "in/k_escaped.json", "--dim", str(i),
                 "--out", f"out/s{i}_escaped.json"],
                ["bounds", "--complex", "out/sd1_escaped.json", "--chain", f"out/s{i}_escaped.json",
                 "--witness", f"out/w{i}_escaped.json"]]
    # hostile inputs end in an input error, not a traceback
    out += [["validate", "in/k_deep.json"], ["validate", "in/k_long_integer.json"],
            ["polar", "--complex", s1, "--dim", "0", "--map", "in/map_long.json",
             "--out", "out/polar_long.json"]]
    # an impure complex through subdivide, stiefel and bounds
    out.append(["subdivide", "--complex", "in/k_dangling_edge.json",
                "--out", "out/sd1_dangling_edge.json"])
    for i in range(3):
        out += [["stiefel", "--complex", "in/k_dangling_edge.json", "--dim", str(i),
                 "--out", f"out/s{i}_dangling_edge.json"],
                ["bounds", "--complex", "out/sd1_dangling_edge.json",
                 "--chain", f"out/s{i}_dangling_edge.json",
                 "--witness", f"out/w{i}_dangling_edge.json"]]
    # a complex above the size cap exits 3 before any dimension is closed
    out.append(["euler-check", "--complex", "in/k_simplex40.json"])
    # a function with negative values gives what its reduction mod 2 gives
    rp2 = c("rp2_6")
    out += [["stiefel", "--complex", rp2, "--dim", str(i), "--fn", "in/fn_rp2_6_neg.json",
             "--out", f"out/fn_neg_s{i}_rp2_6.json"] for i in range(3)]
    out += [["polar", "--complex", rp2, "--dim", str(i), "--moment", "--fn",
             "in/fn_rp2_6_neg.json", "--out", f"out/fn_neg_moment{i}_rp2_6.json"]
            for i in range(3)]
    # a complex whose subdivision is above its size cap exits 3 before any flag is walked
    out += [["subdivide", "--complex", "in/k_simplex10.json", "--out", "out/sd1_simplex10.json"],
            ["stiefel", "--complex", "in/k_simplex10.json", "--dim", "0",
             "--out", "out/s0_simplex10.json"],
            ["polar", "--complex", "in/k_simplex10.json", "--dim", "0", "--moment",
             "--out", "out/moment0_simplex10.json"]]
    # Z2 functions through chi and dual, and Z functions with values 3 and -3 through the Euler test
    for k, fn in ((s1, "fn_edge"), (c("torus_7"), "fn_torus_7")):
        out += [["chi", "--complex", k, "--fn", f"in/{fn}.json"],
                ["dual", "--complex", k, "--fn", f"in/{fn}.json", "--out", f"out/dual_{fn}.json"]]
    out += [["euler-check", "--complex", s6, "--fn", "in/fn_s1_6.json", "--format", "json"],
            ["euler-check", "--complex", rp2, "--fn", "in/fn_rp2_6_neg.json", "--format", "json"]]
    # a cycle whose edges no column lists does not bound; the filled triangle's boundary does
    disk = "in/k_disk_and_circle.json"
    out += [["bounds", "--complex", disk, "--chain", "in/cycle_456.json"],
            ["bounds", "--complex", disk, "--chain", "in/cycle_s1_3.json",
             "--witness", "out/w_disk.json"],
            ["homology", "--complex", disk, "--format", "json"]]
    # 0-chains bound when each component holds an even number of their vertices; an
    # isolated vertex is a component of its own
    lone = "in/k_isolated_vertex.json"
    for k, tag in ((disk, "disk"), (lone, "lone")):
        out += [["bounds", "--complex", k, "--chain", f"in/c0_{tag}_{parity}.json",
                 "--witness", f"out/w0_{tag}_{parity}.json"] for parity in ("even", "odd")]
    out.append(["homology", "--complex", lone, "--format", "json"])
    out += [["subdivide", "--complex", "in/k_simplex5.json", "--out", "out/sd1_simplex5.json"],
            ["stiefel", "--complex", "in/k_simplex5.json", "--dim", "2",
             "--out", "out/s2_simplex5.json"]]
    # maximal simplices written from a listing that holds faces and repeats, and from its K'
    out += [["subdivide", "--complex", "in/k_listed_faces.json", "--out",
             "out/sd1_listed_faces.json", "--manifest", "out/sd1_listed_faces.carriers.json"],
            ["subdivide", "--complex", "out/sd1_listed_faces.json",
             "--out", "out/sd2_listed_faces.json"]]
    # a complex whose simplices share a key: K' exits 3, a values file exits 2
    comma = "in/k_comma_ids.json"
    out += [["subdivide", "--complex", comma, "--out", "out/sd1_comma_ids.json"],
            ["stiefel", "--complex", comma, "--dim", "0", "--out", "out/s0_comma_ids.json"],
            ["polar", "--complex", comma, "--dim", "0", "--moment",
             "--out", "out/moment0_comma_ids.json"],
            ["dual", "--complex", comma, "--fn", "in/fn_comma_ids.json",
             "--out", "out/dual_comma_ids.json"]]
    # levels read off a listing that holds faces and repeats: 0- and 1-chains bound, with witnesses
    listed = "in/k_listed_faces.json"
    out += [["bounds", "--complex", listed, "--chain", "in/c0_listed_faces.json",
             "--witness", "out/w0_listed_faces.json"],
            ["bounds", "--complex", listed, "--chain", "in/cycle_s1_3.json",
             "--witness", "out/w1_listed_faces.json"],
            ["homology", "--complex", listed, "--format", "json"]]
    # two outputs that name one file exit 2 before either is written
    out += [["polar", "--complex", s1, "--dim", "0", "--moment",
             "--out", "out/same.json", "--report", "out/./same.json"],
            ["subdivide", "--complex", s1, "--out", "out/same.json",
             "--manifest", "out/same.json"]]
    # error branches that nothing above reaches, each with its documented exit code
    out += [["chi", "--complex", f"in/{k}.json"]
            for k in ("k_missing_coords", "k_mixed_dims", "k_top_list", "k_coords_not_list")]
    out += [["chi", "--complex", s1, "--fn", "in/fn_terms_and_values.json"],
            ["validate", "in/fn_s1_3.json"],
            ["polar", "--complex", c("rp2_6"), "--dim", "0", "--random-plane",
             "--out", "out/polar_no_coords.json"],
            ["polar", "--complex", c("interval"), "--dim", "1", "--random-plane",
             "--out", "out/polar_rank.json"],
            ["polar", "--complex", s1, "--dim", "0", "--project", "in/basis_3d.json",
             "--out", "out/polar_basis_3d.json"]]
    out += [["polar", "--complex", s1, "--dim", "0", "--map", f"in/{m}.json",
             "--out", f"out/polar_{m}.json"] for m in ("map_target0", "map_short_image")]
    out.append(["push", "--domain", s1, "--codomain", s1, "--map", "in/vm_foreign_image.json",
                "--fn", "in/fn_s1_3.json", "--out", "out/push_foreign_image.json"])
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): _sha(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def sweep(cli, corpus: Path, work: Path) -> list[str]:
    """Run every command with ``work`` as the working directory; one line each."""
    shutil.copytree(corpus, work / "corpus")
    for d in ("in", "out"):
        (work / d).mkdir()
    for name, data in INPUTS.items():
        (work / "in" / name).parent.mkdir(exist_ok=True)
        (work / "in" / name).write_text(json.dumps(data))
    for name, text in RAW_INPUTS.items():
        (work / "in" / name).write_text(text)
    (work / "in" / "reversed").mkdir()
    for path in (corpus / f"{name}.json" for name in REVERSED):
        if path.exists():  # a stub corpus may lack it
            (work / "in" / "reversed" / path.name).write_text(
                json.dumps(_reversed(json.loads(path.read_text()))))
    lines = []
    for argv in commands(corpus):
        before = _snapshot(work)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
            except Exception as e:  # a crash is a difference too, not the end of the sweep
                code = f"raised-{type(e).__name__}"
                traceback.print_exc(file=sys.__stderr__)
        written = [f"{path}={sha}" for path, sha in _snapshot(work).items()
                   if before.get(path) != sha]
        lines.append(" ".join([str(code), *argv, "|",
                               f"stdout={_sha(stdout.getvalue().encode())}",
                               f"stderr={_sha(stderr.getvalue().encode())}", *written]))
    return lines


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    from whitney import cli

    corpus = Path(cli.__file__).parent / "corpus"
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            lines = sweep(cli, corpus, Path(tmp))
        finally:
            os.chdir(home)
    print("\n".join(lines))
    return 1 if any(line.startswith("raised-") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
