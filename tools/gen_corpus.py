"""Regenerate the bundled corpus JSON files in src/whitney/corpus/.

Run with the package importable, e.g. ``PYTHONPATH=src python3
tools/gen_corpus.py`` from the repository root.  The files go to
``src/whitney/corpus/`` under the parent of this script's directory.  Output is
canonical (sorted keys, stable simplex order), so reruns are
byte-identical.
"""
from pathlib import Path

from whitney.simplicial import build_complex, barycentric_subdivision
from whitney.fileio import complex_to_dict, dump_json

OUT = Path(__file__).resolve().parents[1] / "src" / "whitney" / "corpus"

from fractions import Fraction
F = Fraction

entries = []

def add(name, desc, vertices, maximal, coords=None):
    k = build_complex(vertices, maximal, coords)
    dump_json(complex_to_dict(k), OUT / f"{name}.json")
    entries.append({"name": name, "file": f"{name}.json", "description": desc})
    print(f"{name}: dim={k.dim} V={len(k.vertices)} simplices={len(k.simplices)}")

add("point", "single vertex", ["p"], [["p"]],
    {"p": (F(0),)})
add("interval", "single edge (non-Euler: endpoint links are odd)",
    ["a", "b"], [["a", "b"]], {"a": (F(0),), "b": (F(1),)})
add("s1_3", "triangle circle, embedded in the plane",
    ["1", "2", "3"], [["1", "2"], ["2", "3"], ["1", "3"]],
    {"1": (F(0), F(0)), "2": (F(1), F(0)), "3": (F(0), F(1))})
add("s1_6", "hexagon circle, embedded in the plane",
    [str(i) for i in range(6)],
    [[str(i), str((i + 1) % 6)] for i in range(6)],
    {"0": (F(2), F(0)), "1": (F(1), F(2)), "2": (F(-1), F(2)),
     "3": (F(-2), F(0)), "4": (F(-1), F(-2)), "5": (F(1), F(-2))})
add("square", "4-cycle circle, embedded in the plane",
    ["a", "b", "c", "d"],
    [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
    {"a": (F(0), F(0)), "b": (F(1), F(0)), "c": (F(1), F(1)), "d": (F(0), F(1))})
add("path", "single edge with fold-target names (non-Euler)",
    ["p", "q"], [["p", "q"]], {"p": (F(0),), "q": (F(1),)})
add("boundary_delta2", "boundary of the 2-simplex, another triangle circle",
    ["1", "2", "3"], [["1", "2"], ["2", "3"], ["1", "3"]],
    {"1": (F(0), F(0)), "2": (F(1), F(0)), "3": (F(0), F(1))})
add("delta2", "closed 2-simplex (non-Euler: boundary links are odd)",
    ["1", "2", "3"], [["1", "2", "3"]],
    {"1": (F(0), F(0)), "2": (F(1), F(0)), "3": (F(0), F(1))})
add("boundary_delta3", "boundary of the 3-simplex, a 2-sphere in 3-space",
    ["1", "2", "3", "4"],
    [["1", "2", "3"], ["1", "2", "4"], ["1", "3", "4"], ["2", "3", "4"]],
    {"1": (F(1), F(0), F(0)), "2": (F(0), F(1), F(0)),
     "3": (F(0), F(0), F(1)), "4": (F(0), F(0), F(0))})
add("cone_s1_3", "cone on the triangle circle, a disk (non-Euler)",
    ["x", "1", "2", "3"],
    [["x", "1", "2"], ["x", "2", "3"], ["x", "1", "3"]],
    {"x": (F(0), F(0), F(1)), "1": (F(1), F(0), F(0)),
     "2": (F(0), F(1), F(0)), "3": (F(0), F(0), F(0))})
add("bowtie", "two closed triangles sharing a vertex (non-Euler away from the joint)",
    ["1", "2", "3", "4", "5"],
    [["1", "2", "3"], ["3", "4", "5"]],
    {"1": (F(-2), F(1)), "2": (F(-2), F(-1)), "3": (F(0), F(0)),
     "4": (F(2), F(1)), "5": (F(2), F(-1))})
add("wedge_circles", "wedge of two triangle circles, embedded in the plane",
    ["1", "2", "3", "4", "5"],
    [["1", "2"], ["1", "3"], ["2", "3"], ["3", "4"], ["3", "5"], ["4", "5"]],
    {"1": (F(-2), F(1)), "2": (F(-2), F(-1)), "3": (F(0), F(0)),
     "4": (F(2), F(1)), "5": (F(2), F(-1))})
add("wedge_spheres", "two 2-spheres glued at a vertex, embedded in 3-space",
    [str(i) for i in range(1, 8)],
    [["1", "2", "3"], ["1", "2", "4"], ["1", "3", "4"], ["2", "3", "4"],
     ["4", "5", "6"], ["4", "5", "7"], ["4", "6", "7"], ["5", "6", "7"]],
    {"1": (F(1), F(0), F(0)), "2": (F(0), F(1), F(0)), "3": (F(0), F(0), F(1)),
     "4": (F(0), F(0), F(0)), "5": (F(-1), F(0), F(0)),
     "6": (F(0), F(-1), F(0)), "7": (F(0), F(0), F(-1))})

rp2_tris = ["123", "134", "125", "146", "156", "236", "245", "246", "345", "356"]
rp2_max = [[c for c in t] for t in rp2_tris]
add("rp2_6", "6-vertex real projective plane", [str(i) for i in range(1, 7)], rp2_max)
e5 = lambda j: tuple(F(1) if i == j else F(0) for i in range(5))
add("rp2_6_embedded", "6-vertex real projective plane, embedded in 5-space",
    [str(i) for i in range(1, 7)], rp2_max,
    {str(i): e5(i - 1) for i in range(1, 6)} | {"6": tuple(F(0) for _ in range(5))})

torus_max = []
for i in range(7):
    torus_max.append(sorted([str(i), str((i + 1) % 7), str((i + 3) % 7)]))
    torus_max.append(sorted([str(i), str((i + 2) % 7), str((i + 3) % 7)]))
add("torus_7", "7-vertex torus", [str(i) for i in range(7)], torus_max)

# pinched torus: barycentric subdivision of the 2-sphere with the barycenter
# of a vertex identified with the barycenter of the opposite triangle
sphere = build_complex(
    ["1", "2", "3", "4"],
    [["1", "2", "3"], ["1", "2", "4"], ["1", "3", "4"], ["2", "3", "4"]],
)
sub = barycentric_subdivision(sphere)
merge = {"b(2,3,4)": "b(1)"}
old_vertices = sorted(set(sub.complex.vertices) - {"b(2,3,4)"})
rename = {v: f"v{idx:02d}" for idx, v in enumerate(old_vertices)}
pinched_max = sorted(
    sorted(rename[merge.get(v, v)] for v in s)
    for s in sub.complex.simplices
    if len(sub.complex.cofaces[s]) == 1
)
assert len(pinched_max) == len(set(map(tuple, pinched_max))) == 24
add("pinched_torus", "pinched torus: a 2-sphere with two points identified",
    sorted(rename.values()), pinched_max)

dump_json({"complexes": entries}, OUT / "index.json")

maps = [
    {"name": "identity_s1_3", "domain": "s1_3", "codomain": "s1_3",
     "vertex_map": {"1": "1", "2": "2", "3": "3"}},
    {"name": "double_cover", "domain": "s1_6", "codomain": "s1_3",
     "vertex_map": {"0": "1", "1": "2", "2": "3", "3": "1", "4": "2", "5": "3"}},
    {"name": "fold", "domain": "square", "codomain": "path",
     "vertex_map": {"a": "p", "b": "q", "c": "p", "d": "q"}},
    {"name": "collapse_s1_3", "domain": "s1_3", "codomain": "point",
     "vertex_map": {"1": "p", "2": "p", "3": "p"}},
    {"name": "collapse_path", "domain": "path", "codomain": "point",
     "vertex_map": {"p": "p", "q": "p"}},
    {"name": "include_s1_3_in_cone", "domain": "s1_3", "codomain": "cone_s1_3",
     "vertex_map": {"1": "1", "2": "2", "3": "3"}},
]
dump_json({"maps": maps}, OUT / "maps.json")
print("maps written")
