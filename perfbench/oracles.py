"""Per-job output checks, run after the timed interval.

Every check uses the benchmark's own subdivision (ladder.py), boundary and
GF(2) code, never the program's, so a defect in the program cannot hide
behind the same defect in its checker.
"""

from __future__ import annotations

import json
from collections import defaultdict
from itertools import combinations, permutations
from math import prod
from pathlib import Path

from ladder import Cx, Simplex, barycenter, subdivide

# Mod 2 classes of the Stiefel chains s_0, s_1, s_2: does s_i bound?
# s_0 bounds iff chi is even (degree law, connected spaces); s_2 is the
# fundamental class, which never bounds; w1(RP2) != 0, w1 = 0 on the torus
# and on spheres.  The pinched torus is the image of S^2 under a map gluing
# two points, so its s_1 is the pushforward of s_1(S^2) = 0 plus the s_1 of
# a point-supported function, which is 0 as well.
BOUNDS = {
    "torus_7": (True, True, False),
    "rp2_6": (False, False, False),
    "wedge_spheres": (False, True, False),
    "pinched_torus": (False, True, False),
}


def facets(s: Simplex) -> list[Simplex]:
    return [s[:j] + s[j + 1:] for j in range(len(s))]


def boundary(chain) -> set[Simplex]:
    out: set[Simplex] = set()
    for s in chain:
        if len(s) > 1:
            out.symmetric_difference_update(facets(s))
    return out


class Eliminator:
    """Column space of a GF(2) matrix; pivots on the highest set bit."""

    def __init__(self, columns):
        self.pivots: dict[int, int] = {}
        for v in columns:
            v = self.reduce(v)
            if v:
                self.pivots[v.bit_length() - 1] = v

    def reduce(self, v: int) -> int:
        while v:
            p = self.pivots.get(v.bit_length() - 1)
            if p is None:
                return v
            v ^= p
        return 0

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _boundary_columns(k: Cx, d: int, index: dict[Simplex, int]):
    for s in k.by_dim.get(d, ()):
        v = 0
        for f in facets(s):
            v |= 1 << index[f]
        yield v


def betti(k: Cx) -> list[int]:
    ranks = [0] * (k.dim + 2)
    for d in range(1, k.dim + 1):
        index = {s: j for j, s in enumerate(k.by_dim[d - 1])}
        ranks[d] = Eliminator(_boundary_columns(k, d, index)).rank
    return [len(k.by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(k.dim + 1)]


def subdivided_chain(chain) -> set[Simplex]:
    """Each i-simplex to the i-simplices of its subdivision (its full flags)."""
    out: set[Simplex] = set()
    for s in chain:
        for order in permutations(s):
            out.add(tuple(sorted(barycenter(tuple(sorted(order[: j + 1]))) for j in range(len(s)))))
    return out


class Reference:
    """Reference data per rung, computed on first use and cached."""

    def __init__(self, rungs: dict[str, Cx], sd0: dict[str, Cx]):
        self.rungs = rungs
        self.sd0 = sd0
        self._sub: dict[str, Cx] = {}
        self._solvers: dict[tuple[str, int], tuple[dict[Simplex, int], Eliminator]] = {}
        self._components: dict[str, dict[str, str]] = {}
        self._betti: dict[str, list[int]] = {}

    def sub(self, rung: str) -> Cx:
        if rung not in self._sub:
            self._sub[rung] = subdivide(self.rungs[rung])
        return self._sub[rung]

    def moment_chain(self, rung: str, i: int, a: dict[Simplex, int]) -> set[Simplex]:
        """Closed-form singularity chain of the moment map of K' for the Euler function a.

        The moment curve sends the barycenter of a k-simplex to
        (k, k^2, ..., k^(i+1)); the hyperplane through the images of an
        i-simplex S, whose carriers have dimensions k_0..k_i, meets the
        curve where a polynomial of degree i+1 with roots k_0..k_i vanishes.
        So a link vertex w lies on the side of the sign of
        prod_j (dim carrier(w) - k_j).  Mod 2 the half-link Euler integral
        counts the cofaces S + U whose link part U lies wholly on one side,
        weighted by a on their carrier; either side gives the same parity
        for an Euler function.  The coefficient of S is a(S) plus that count.
        """
        k, kp = self.rungs[rung], self.sub(rung)
        carrier = {barycenter(s): s for s in k.simplices}

        def value(t: Simplex) -> int:  # a on the open simplex of K holding t
            return a.get(max((carrier[v] for v in t), key=len), 0)

        cofaces: dict[Simplex, list[Simplex]] = defaultdict(list)
        for d in range(i + 1, kp.dim + 1):
            for t in kp.by_dim[d]:
                for s in combinations(t, i + 1):
                    cofaces[s].append(t)
        chain = set()
        for s in kp.by_dim.get(i, ()):
            dims = [len(carrier[v]) - 1 for v in s]
            plus = sum(value(t) for t in cofaces[s]
                       if all(prod(len(carrier[w]) - 1 - kj for kj in dims) > 0
                              for w in t if w not in s))
            if (value(s) + plus) % 2:
                chain.add(s)
        return chain

    def betti(self, space: str) -> list[int]:
        if space not in self._betti:
            self._betti[space] = betti(self.sd0[space])
        return self._betti[space]

    def bounds_in_sub(self, rung: str, z: set[Simplex], i: int) -> bool:
        """Is the i-chain z a boundary in the subdivision of the rung?"""
        k = self.sub(rung)
        if not z:
            return True
        if i == 0:
            return self._even_per_component(rung, k, z)
        if i >= k.dim:
            return False
        key = (rung, i)
        if key not in self._solvers:
            index = {s: j for j, s in enumerate(k.by_dim[i])}
            self._solvers[key] = (index, Eliminator(_boundary_columns(k, i + 1, index)))
        index, elim = self._solvers[key]
        v = 0
        for s in z:
            v |= 1 << index[s]
        return elim.reduce(v) == 0

    def _even_per_component(self, rung: str, k: Cx, z: set[Simplex]) -> bool:
        if rung not in self._components:
            parent = {s[0]: s[0] for s in k.by_dim[0]}

            def find(v):
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v

            for a, b in k.by_dim.get(1, ()):
                parent[find(a)] = find(b)
            self._components[rung] = {v: find(v) for v in parent}
        roots = self._components[rung]
        parity: dict[str, int] = {}
        for (v,) in z:
            parity[roots[v]] = parity.get(roots[v], 0) ^ 1
        return not any(parity.values())


def _read_chain(path: Path, dim: int) -> set[Simplex]:
    data = json.loads(path.read_text())
    if data["dim"] != dim:
        raise AssertionError(f"chain has dim {data['dim']}, expected {dim}")
    return {tuple(s) for s in data["simplices"]}


def _read_function(path: Path) -> dict[Simplex, int]:
    data = json.loads(path.read_text())
    return {tuple(key.split(",")): v % 2 for key, v in data["values"].items()}


def check(job: dict, files: dict[str, Path], stdout: str, ref: Reference) -> None:
    """Raise AssertionError (or a parse error) unless the job's outputs are right.

    ``files`` maps each output role of the job to its path, and ``fn`` to
    the generated Euler function a moment job reads, if any.
    """
    kind, rung, i = job["kind"], job["rung"], job.get("i")
    if kind == "moment":
        kp = ref.sub(rung)
        chain = _read_chain(files["out"], i)
        every = set(kp.by_dim[i])
        if not chain <= every:
            raise AssertionError("chain has simplices outside K'")
        if job["alpha1"] and chain != every:
            raise AssertionError("alpha = 1 chain is not the sum of all i-simplices of K'")
        if boundary(chain):
            raise AssertionError("chain is not a mod 2 cycle")
        a = _read_function(files["fn"]) if "fn" in files else dict.fromkeys(ref.rungs[rung].simplices, 1)
        if i == 0 and len(chain) % 2 != sum(a.values()) % 2:
            raise AssertionError("0-chain size is not chi(a) mod 2")
        if chain != ref.moment_chain(rung, i, a):
            raise AssertionError("chain differs from the closed-form moment chain")
    elif kind == "projection":
        k = ref.rungs[rung]
        chain = _read_chain(files["out"], i)
        if not chain <= set(k.by_dim[i]):
            raise AssertionError("chain has simplices outside the complex")
        if boundary(chain):
            raise AssertionError("chain is not a mod 2 cycle")
        z = subdivided_chain(chain) ^ set(ref.sub(rung).by_dim[i])
        if not ref.bounds_in_sub(rung, z, i):
            raise AssertionError("chain is not homologous to the Stiefel chain")
        if job["report"]:
            cells = json.loads(files["report"].read_text())["half_links"]
            if len(cells) != len(k.by_dim[i]):
                raise AssertionError("report does not cover every i-simplex")
            if any((c["chi_plus"] - c["chi_minus"]) % 2 for c in cells):
                raise AssertionError("report breaks half-link parity")
            if {tuple(c["simplex"]) for c in cells if (1 - c["chi_plus"]) % 2} != chain:
                raise AssertionError("report disagrees with the chain")
    elif kind == "subdivide":
        kp = ref.sub(rung)
        data = json.loads(files["out"].read_text())
        if data["vertices"] != [s[0] for s in kp.by_dim[0]]:
            raise AssertionError("subdivision has the wrong vertices")
        if sorted(tuple(s) for s in data["maximal_simplices"]) != kp.maximal():
            raise AssertionError("subdivision has the wrong maximal simplices")
    elif kind == "stiefel":
        chain = _read_chain(files["out"], i)
        if chain != set(ref.sub(rung).by_dim[i]):
            raise AssertionError("Stiefel chain is not the sum of all i-simplices of K'")
        if boundary(chain):
            raise AssertionError("Stiefel chain is not a mod 2 cycle")
    elif kind == "bounds":
        expected = BOUNDS[job["space"]][i]
        if stdout.strip() != f"bounds: {expected}":
            raise AssertionError(f"bounds answer {stdout.strip()!r}, expected {expected}")
        if expected:
            witness = _read_chain(files["witness"], i + 1)
            if boundary(witness) != set(ref.sub(rung).by_dim[i]):
                raise AssertionError("witness boundary is not the Stiefel chain")
    elif kind == "homology":
        line = next(x for x in stdout.splitlines() if x.startswith("betti_mod2: "))
        got = json.loads(line.split(": ", 1)[1])
        if got != ref.betti(job["space"]):
            raise AssertionError(f"Betti numbers {got} differ from those of the sd0 complex")
    elif kind == "verify":
        report = json.loads(stdout)
        if not report["ok"]:
            raise AssertionError("verify report is not ok")
    else:
        raise AssertionError(f"unknown job kind {kind!r}")
