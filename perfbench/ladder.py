"""The benchmark's own complex code: corpus reading, subdivision ladder, inputs.

Nothing here imports ``whitney``: the inputs the program receives, and the
reference data the oracles compare against, come from this independent
implementation.  Barycenters are named ``b(<comma-joined sorted ids>)`` as
in docs/file-formats.md, so a subdivision built here names its vertices
exactly as the program's ``subdivide`` does.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

Simplex = tuple[str, ...]


class Cx:
    """Face-closed simplex set with optional exact vertex coordinates."""

    def __init__(self, simplices, coords=None):
        self.simplices = frozenset(simplices)
        self.coords = coords
        self.by_dim: dict[int, list[Simplex]] = {}
        for s in sorted(self.simplices):
            self.by_dim.setdefault(len(s) - 1, []).append(s)

    @property
    def dim(self) -> int:
        return max(self.by_dim, default=-1)

    def __len__(self) -> int:
        return len(self.simplices)

    def counts(self) -> list[int]:
        return [len(self.by_dim.get(d, ())) for d in range(self.dim + 1)]

    def maximal(self) -> list[Simplex]:
        covered = {s[:j] + s[j + 1:] for s in self.simplices if len(s) > 1 for j in range(len(s))}
        return sorted(s for s in self.simplices if s not in covered)


def closure(maximal) -> set[Simplex]:
    out: set[Simplex] = set()
    for m in maximal:
        m = tuple(sorted(m))
        for k in range(1, len(m) + 1):
            out.update(combinations(m, k))
    return out


def parse_rational(text: str) -> Fraction:
    p, _, q = text.partition("/")
    return Fraction(int(p), int(q or 1))


def load_corpus_complex(corpus_dir: Path, name: str) -> Cx:
    data = json.loads((corpus_dir / f"{name}.json").read_text())
    coords = None
    if data.get("coordinates") is not None:
        coords = {v: tuple(parse_rational(x) for x in p) for v, p in data["coordinates"].items()}
    return Cx(closure(data["maximal_simplices"]), coords)


def barycenter(s: Simplex) -> str:
    return "b(" + ",".join(s) + ")"


def subdivide(k: Cx) -> Cx:
    """Barycentric subdivision: one simplex per strict flag of k."""
    flags_at: dict[Simplex, list[tuple[Simplex, ...]]] = {}
    for s in sorted(k.simplices, key=lambda t: (len(t), t)):
        fl = [(s,)]
        for r in range(1, len(s)):
            for f in combinations(s, r):
                fl.extend(sub + (s,) for sub in flags_at[f])
        flags_at[s] = fl
    simplices = {
        tuple(sorted(barycenter(t) for t in fl)) for fls in flags_at.values() for fl in fls
    }
    coords = None
    if k.coords is not None:
        coords = {
            barycenter(s): tuple(sum(col, Fraction(0)) / len(s) for col in zip(*(k.coords[v] for v in s)))
            for s in k.simplices
        }
    return Cx(simplices, coords)


def relabel(k: Cx) -> Cx:
    """Short ids v00000, v00001, ... in the canonical order of the old ids."""
    names = {v: f"v{i:05d}" for i, v in enumerate(sorted(s[0] for s in k.by_dim[0]))}
    simplices = {tuple(sorted(names[v] for v in s)) for s in k.simplices}
    coords = None if k.coords is None else {names[v]: p for v, p in k.coords.items()}
    return Cx(simplices, coords)


def complex_json(k: Cx) -> str:
    data: dict = {
        "vertices": [s[0] for s in k.by_dim[0]],
        "maximal_simplices": [list(s) for s in k.maximal()],
    }
    if k.coords is not None:
        data["coordinates"] = {
            v: [f"{x.numerator}/{x.denominator}" for x in p] for v, p in sorted(k.coords.items())
        }
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def random_euler_function(rng: random.Random, k: Cx) -> dict[Simplex, int]:
    """beta + D(beta) mod 2 for a random mod 2 function beta.

    D is the coface sum; mod 2 its signs drop out, and D is an involution,
    so beta + D(beta) is a fixed point of D, i.e. an Euler function.
    """
    beta = {s: rng.randrange(2) for s in sorted(k.simplices)}
    cofaces: dict[Simplex, list[Simplex]] = {s: [] for s in k.simplices}
    for t in k.simplices:
        for r in range(1, len(t) + 1):
            for f in combinations(t, r):
                cofaces[f].append(t)
    return {s: (beta[s] + sum(beta[t] for t in cofaces[s])) % 2 for s in k.simplices}


def function_json(values: dict[Simplex, int]) -> str:
    data = {"ring": "Z2", "values": {",".join(s): 1 for s in sorted(values) if values[s]}}
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
