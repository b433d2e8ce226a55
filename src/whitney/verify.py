"""Seeded randomized verification suites.

Each suite checks a family of exact identities on randomly generated
constructible functions, subcomplexes, and the bundled map suite.  The
generator is Python's Mersenne Twister; a report carries the seed and the
first counterexample with full reproduction inputs.

Classes are compared in the base complex, through the last-vertex map
pi: K' -> K.  Projection against Stiefel and the pushforward axiom read
their classes on K in closed form (``sw.base_representative``) and build
no subdivision; the stiefel suite checks that closed form against pi# of
the Stiefel chain, and subdivision invariance maps s_i(K'') to K' with
``sw.last_vertex_chain_map``, building no K''.  A homology check passes
when both sides are cycles and their sum bounds, so a chain that is not a
cycle is a failed trial with a counterexample, not an error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import calculus as cal
from . import homology as hom
from . import polar, sw
from .corpus import CorpusEntry, MapEntry, load_corpus, load_map_suite
from .errors import InputError, WhitneyError
from .fileio import format_rational, function_to_dict
from .simplicial import (
    Simplex,
    SimplicialComplex,
    barycentric_subdivision,
    compose,
    faces,
    link,
)


@dataclass
class PropertyResult:
    name: str
    trials: int = 0
    failures: int = 0
    counterexample: Optional[dict] = None

    def record(self, ok: bool, repro: Callable[[], dict]):
        self.trials += 1
        if not ok:
            self.failures += 1
            if self.counterexample is None:
                self.counterexample = repro()


@dataclass
class SuiteReport:
    suite: str
    seed: int
    properties: list[PropertyResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.failures == 0 for p in self.properties)

    def prop(self, name: str) -> PropertyResult:
        for p in self.properties:
            if p.name == name:
                return p
        p = PropertyResult(name)
        self.properties.append(p)
        return p


def random_closed_subcomplex(rng: random.Random, k: SimplicialComplex) -> set[Simplex]:
    chosen = [s for s in k.simplices if rng.random() < 0.5]
    closure: set[Simplex] = set()
    for s in chosen:
        closure.update(faces(s))
    return closure


def random_function(rng: random.Random, k: SimplicialComplex, ring: str = cal.RING_Z) -> cal.ConstructibleFunction:
    """Random indicator sum of closed subcomplexes."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        sub = random_closed_subcomplex(rng, k)
        if sub:
            terms.append((rng.choice([-2, -1, 1, 2, 3]), sub))
    if not terms:
        terms = [(1, set(faces(k.simplices[0])))]
    return cal.indicator_sum(k, terms, ring)


def random_euler_function(rng: random.Random, k: SimplicialComplex) -> cal.ConstructibleFunction:
    """beta + dual(beta) is always a fixed point of the duality involution."""
    beta = cal.reduce_mod2(random_function(rng, k))
    return cal.add(beta, cal.dual(beta))


def _fn_repro(k_name: str, a: cal.ConstructibleFunction, extra: Optional[dict] = None) -> dict:
    out = {"complex": k_name, "fn": function_to_dict(a)}
    if extra:
        out.update(extra)
    return out


def _map_repro(k_name: str, i: int, j: int, f: polar.AffineVertexMap) -> dict:
    """A failed check on the j-th sampled plane, which is written as a ``polar --map`` file."""
    images = {v: [format_rational(Fraction(x, f.scale)) for x in p] for v, p in f.images.items()}
    return {"complex": k_name, "i": i, "basis_index": j,
            "map": {"target_dim": f.target_dim, "images": images}}


def _is_flag_cycle(c: hom.Mod2Chain) -> bool:
    """Cycle test for a chain of flags, read without the complex: the facets of a flag are flags."""
    return c.dim == 0 or not hom.facet_sum(c)


def _composable_pairs(maps: list[MapEntry]) -> list[tuple[MapEntry, MapEntry]]:
    return [
        (f, g) for f in maps for g in maps if f.codomain_name == g.domain_name
    ]


def run_calculus_suite(seed: int, trials: int, corpus: dict[str, CorpusEntry]) -> SuiteReport:
    rng = random.Random(seed)
    report = SuiteReport("calculus", seed)
    maps = load_map_suite()
    names = sorted(corpus)
    for t in range(trials):
        entry = corpus[names[t % len(names)]]
        k = entry.complex
        ring = rng.choice([cal.RING_Z, cal.RING_Z2])
        a = random_function(rng, k, ring)
        repro = lambda: _fn_repro(entry.name, a)
        report.prop("involution: dual(dual(a)) = a").record(
            cal.dual(cal.dual(a)).values == a.values, repro
        )
        report.prop("chi(dual(a)) = chi(a)").record(
            cal.chi(cal.dual(a)) == cal.chi(a), repro
        )
    for t in range(trials):
        m = maps[t % len(maps)]
        ring = rng.choice([cal.RING_Z, cal.RING_Z2])
        a = random_function(rng, m.map.domain, ring)
        fa = cal.pushforward(m.map, a)
        repro = lambda: _fn_repro(m.domain_name, a, {"map": m.name})
        report.prop("chi(f_* a) = chi(a)").record(cal.chi(fa) == cal.chi(a), repro)
        report.prop("dual . f_* = f_* . dual").record(
            cal.dual(fa).values == cal.pushforward(m.map, cal.dual(a)).values, repro
        )
    pairs = _composable_pairs(maps)
    for t in range(trials):
        f, g = pairs[t % len(pairs)]
        gf = compose(g.map, f.map)
        a = random_function(rng, f.map.domain)
        repro = lambda: _fn_repro(f.domain_name, a, {"maps": [f.name, g.name]})
        report.prop("(g.f)_* = g_* . f_*").record(
            cal.pushforward(gf, a).values
            == cal.pushforward(g.map, cal.pushforward(f.map, a)).values,
            repro,
        )
        b = random_function(rng, g.map.codomain)
        report.prop("(g.f)^* = f^* . g^*").record(
            cal.pullback(gf, b).values
            == cal.pullback(f.map, cal.pullback(g.map, b)).values,
            lambda: _fn_repro(g.codomain_name, b, {"maps": [f.name, g.name]}),
        )
    for m in maps:
        ones = cal.constant(m.map.domain, 1)
        fa = cal.pushforward(m.map, ones)
        for q in m.map.codomain.vertices:
            report.prop("pushforward matches vertex-fiber oracle").record(
                fa((q,)) == cal.fiber_chi_oracle(m.map, q),
                lambda: {"map": m.name, "vertex": q},
            )
    for entry in corpus.values():
        k = entry.complex
        sub = random_closed_subcomplex(rng, k)
        if not sub:
            continue
        ind = cal.indicator(k, sub)
        d = cal.dual(ind)
        for s in sorted(sub):
            report.prop("dual of indicator matches link formula").record(
                d(s) == cal.link_dual_oracle(k, sub, s),
                lambda: {"complex": entry.name, "closed_support": sorted(map(list, sub))},
            )
    return report


def run_stiefel_suite(seed: int, trials: int, corpus: dict[str, CorpusEntry]) -> SuiteReport:
    rng = random.Random(seed)
    report = SuiteReport("stiefel", seed)
    for entry in corpus.values():
        k = entry.complex
        subdiv = barycentric_subdivision(k)
        if entry.euler:
            for i in range(k.dim + 1):
                s_i = sw.stiefel_chain(subdiv, i)
                report.prop("Stiefel chains of Euler spaces are cycles").record(
                    _is_flag_cycle(s_i),
                    lambda entry=entry, i=i: {"complex": entry.name, "i": i},
                )
        if entry.name == "delta2":
            report.prop("negative control: s_1 of the closed 2-simplex").record(
                not _is_flag_cycle(sw.stiefel_chain(subdiv, 1)),
                lambda entry=entry: {"complex": entry.name},
            )
        if not entry.euler:
            continue
        ones = cal.constant(k, 1, cal.RING_Z2)
        for i in range(k.dim + 1):
            # pi# of the flag walk against the rank-parity closed form, which reads no flag
            report.prop("moment-map representative equals Stiefel chain").record(
                sw.last_vertex_chain_map(subdiv, sw.stiefel_chain(subdiv, i)).support
                == sw.base_representative(k, ones, i).support,
                lambda: {"complex": entry.name, "i": i},
            )
        if entry.pure:
            fc = hom.fundamental_cycle(k)
            report.prop("top Stiefel chain is the subdivided fundamental cycle").record(
                sw.subdivision_chain_map(subdiv, fc).support
                == sw.stiefel_chain(subdiv, k.dim).support,
                lambda: {"complex": entry.name},
            )
        report.prop("degree of w0 equals chi mod 2").record(
            len(sw.sw_representative(subdiv, ones, 0).support) % 2 == cal.chi(ones) % 2,
            lambda: {"complex": entry.name},
        )
        for _ in range(max(1, trials // max(1, len(corpus)))):
            a = random_euler_function(rng, k)
            repro = lambda: _fn_repro(entry.name, a)
            reps = [sw.sw_representative(subdiv, a, i) for i in range(k.dim + 1)]
            for rep in reps:
                report.prop("representatives of Euler functions are cycles").record(
                    _is_flag_cycle(rep), repro
                )
            report.prop("degree of w0 equals chi mod 2").record(
                len(reps[0].support) % 2 == cal.chi(a) % 2, repro
            )
            b = random_euler_function(rng, k)
            for i in range(k.dim + 1):
                report.prop("representatives are additive in the function").record(
                    sw.sw_representative(subdiv, cal.add(a, b), i).support
                    == (reps[i] + sw.sw_representative(subdiv, b, i)).support,
                    lambda: _fn_repro(entry.name, a, {"fn2": function_to_dict(b)}),
                )
    return report


def run_polar_suite(seed: int, trials: int, corpus: dict[str, CorpusEntry]) -> SuiteReport:
    rng = random.Random(seed)
    report = SuiteReport("polar", seed)
    # one subdivision and its moment maps per Euler space, shared by the first and last sections
    subdivs = {e.name: barycentric_subdivision(e.complex) for e in corpus.values() if e.euler}
    moment_maps = {}
    for entry in corpus.values():
        if not entry.euler:
            continue
        k = entry.complex
        subdiv = subdivs[entry.name]
        ones_prime = cal.constant(subdiv.complex, 1, cal.RING_Z2)
        moment_maps[entry.name] = [polar.moment_map(subdiv, i) for i in range(k.dim + 1)]
        for i, f in enumerate(moment_maps[entry.name]):
            for r in polar.polar_census(f, ones_prime):
                report.prop("half-link parity chi+ = chi- mod 2").record(
                    r.chi_plus == r.chi_minus,
                    lambda: {"complex": entry.name, "i": i, "simplex": list(r.simplex)},
                )
    embedded = [e for e in corpus.values() if e.complex.coordinates is not None and e.euler]
    for entry in embedded:
        k = entry.complex
        ones = cal.constant(k, 1, cal.RING_Z2)
        n_pairs = max(2, trials // 10)
        for rank in range(1, k.dim + 2):
            i = rank - 1
            # sd#(sig) ~ s_i in K' exactly when sig ~ pi#(s_i) = R_i(1) in K
            s_i = sw.base_representative(k, ones, i)
            prev = None
            for j in range(n_pairs):
                f, sig = polar.sample_generic_subspace(ones, rank, seed=rng.randrange(10 ** 9))
                repro = lambda: _map_repro(entry.name, i, j, f)
                report.prop("projection chain is homologous to the Stiefel chain").record(
                    hom.homologous(k, sig, s_i), repro
                )
                if prev is not None:
                    report.prop("polar class is independent of the generic plane").record(
                        hom.homologous(k, sig, prev), repro
                    )
                prev = sig
    # restriction consistency on closed Euler subcomplexes of Euler spaces
    for entry in corpus.values():
        if not entry.euler or entry.complex.dim < 1:
            continue
        subdiv = subdivs[entry.name]
        kp = subdiv.complex
        # vertex links are closed Euler subcomplexes; random draws rarely are
        candidates = [
            set(link(kp, (v,)).simplices)
            for v in rng.sample(kp.vertices, min(2, len(kp.vertices)))
        ]
        candidates.extend(random_closed_subcomplex(rng, kp) for _ in range(3))
        for sub in candidates:
            if not sub:
                continue
            restricted = SimplicialComplex(sub)
            if not cal.is_euler_space(restricted).is_euler:
                continue
            ind = cal.indicator(kp, sub, cal.RING_Z2)
            d = restricted.dim
            for i, f in enumerate(moment_maps[entry.name][: d + 1]):
                # both functions are Euler because the restricted complex is an Euler space
                whole = polar.polar_chain(f, ind)
                f_restricted = polar.AffineVertexMap(
                    restricted, i + 1, {v: f.images[v] for v in restricted.vertices}, f.scale
                )
                part = polar.polar_chain(f_restricted, cal.constant(restricted, 1, cal.RING_Z2))
                report.prop("restriction consistency of weighted chains").record(
                    whole.support == part.support,
                    lambda: {"complex": entry.name, "i": i,
                             "closed_support": sorted(map(list, sub))},
                )
    return report


def run_axioms_suite(seed: int, trials: int, corpus: dict[str, CorpusEntry]) -> SuiteReport:
    rng = random.Random(seed)
    report = SuiteReport("axioms", seed)
    maps = load_map_suite()
    per_map = max(1, trials // max(1, len(maps)))
    for m in maps:
        k = m.map.domain
        ones = cal.constant(k, 1, cal.RING_Z2)
        candidates = [ones] if cal.is_euler_function(ones) else []
        candidates.extend(random_euler_function(rng, k) for _ in range(per_map))
        for a in candidates:
            for i in range(k.dim + 1):
                report.prop("pushforward axiom f_* w_i(a) = w_i(f_* a)").record(
                    sw.verify_pushforward_axiom(m.map, a, i),
                    lambda: _fn_repro(m.domain_name, a, {"map": m.name, "i": i}),
                )
    for entry in corpus.values():
        if not entry.euler:
            continue
        k = entry.complex
        sub1 = barycentric_subdivision(k)
        kp = sub1.complex
        sub2 = barycentric_subdivision(kp)
        for i in range(k.dim + 1):
            # pi# sd# = id, so sd#(s_i(K')) + s_i(K'') ~ 0 in K'' exactly when
            # s_i(K') + pi#(s_i(K'')) ~ 0 in K'; only the i-flags of K'' are read
            s2 = sw.stiefel_chain(sub2, i)
            diff = sw.stiefel_chain(sub1, i) + sw.last_vertex_chain_map(sub2, s2)
            ok = _is_flag_cycle(s2) and hom.is_cycle(kp, diff) and hom.is_boundary(kp, diff)[0]
            report.prop("subdivision invariance of the Stiefel class").record(
                ok, lambda: {"complex": entry.name, "i": i}
            )
    return report


_SUITES = {
    "calculus": run_calculus_suite,
    "stiefel": run_stiefel_suite,
    "polar": run_polar_suite,
    "axioms": run_axioms_suite,
}


def run_suite(
    suite: str, seed: int, trials: int, complexes_dir: Optional[str] = None
) -> SuiteReport:
    if suite not in _SUITES:
        raise WhitneyError(f"unknown suite {suite!r}; choose from {sorted(_SUITES)}")
    corpus = load_corpus(complexes_dir)
    report = _SUITES[suite](seed, trials, corpus)
    if not report.properties:
        raise InputError(f"suite {suite} has nothing to check in {complexes_dir}")
    return report
