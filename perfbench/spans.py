"""Timing wrappers around the layers' public functions, installed from outside.

``Tracer.install()`` replaces each named function in every ``whitney.*``
module namespace that binds it (``polar`` holds its own ``link``,
``homology`` its own ``Gf2System``), and in ``verify._SUITES``.  Each call
records a span: name, start, end, parent span, job id and two counts.
Spans stay in memory until ``write``; ``layer_metrics`` derives per-layer
calls, self times and counts from them.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); the name is "<module>.<function>"
TRACED = [
    ("cli", "main", "cli.main"),
    ("corpus", "load_corpus", "corpus.load_corpus"),
    ("simplicial", "link", "simplicial.link"),
    ("simplicial", "build_complex", "simplicial.build_complex"),
    ("simplicial", "barycentric_subdivision", "simplicial.barycentric_subdivision"),
    ("polar", "is_nondegenerate", "polar.is_nondegenerate"),
    ("polar", "half_link_report", "polar.half_link_report"),
    ("polar", "euler_singularity_chain", "polar.euler_singularity_chain"),
    ("polar", "moment_map", "polar.moment_map"),
    ("polar", "sample_generic_subspace", "polar.sample_generic_subspace"),
    ("exactlin", "affine_hyperplane", "exactlin.affine_hyperplane"),
    ("exactlin", "matrix_rank", "exactlin.matrix_rank"),
    ("calculus", "dual", "calculus.dual"),
    ("calculus", "is_euler_function", "calculus.is_euler_function"),
    ("calculus", "subdivide_function", "calculus.subdivide_function"),
    ("calculus", "pushforward", "calculus.pushforward"),
    ("calculus", "pullback", "calculus.pullback"),
    ("sw", "sw_representative", "sw.sw_representative"),
    ("sw", "stiefel_chain", "sw.stiefel_chain"),
    ("sw", "subdivision_chain_map", "sw.subdivision_chain_map"),
    ("homology", "is_boundary", "homology.is_boundary"),
    ("homology", "betti_mod2", "homology.betti_mod2"),
    ("homology", "is_cycle", "homology.is_cycle"),
    ("homology", "homologous", "homology.homologous"),
    ("gf2", "Gf2System", "gf2.eliminate"),
    ("verify", "run_calculus_suite", "verify.calculus"),
    ("verify", "run_stiefel_suite", "verify.stiefel"),
    ("verify", "run_polar_suite", "verify.polar"),
    ("verify", "run_axioms_suite", "verify.axioms"),
]
# fileio entry points, grouped into parse and serialize time
PARSE = ["load_json", "complex_from_dict", "chain_from_dict", "function_from_dict",
         "basis_from_dict", "affine_map_from_dict", "vertex_map_from_dict"]
SERIALIZE = ["dump_json", "complex_to_dict", "chain_to_dict", "function_to_dict",
             "half_link_report_to_dict", "subdivision_manifest"]


def _counts(name, args, result) -> tuple[int, int]:
    """The counts a span records: link size, columns and pivots, or bytes."""
    if name == "simplicial.link":
        return len(result.simplices), 0
    if name == "gf2.eliminate":
        return result.ncols, result.rank
    if name == "fileio.load_json":
        return os.path.getsize(args[0]), 0
    if name == "fileio.dump_json" and len(args) > 1 and args[1] is not None:
        return len(result.encode()), 0
    return 0, 0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job = None
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result, failed = None, 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                n, m = (0, 0) if failed else _counts(name, args, result)
                spans[idx] = (name, t0, t1, parent, self.job, n, m, failed)

        return traced

    def install(self):
        mods = {n.partition(".")[2]: m for n, m in sys.modules.items()
                if (n == "whitney" or n.startswith("whitney.")) and m is not None}
        targets = [(m, a, s) for m, a, s in TRACED]
        targets += [("fileio", a, f"fileio.{a}") for a in PARSE + SERIALIZE]
        for mod, attr, span in targets:
            original = getattr(mods[mod], attr)
            wrapped = self._wrap(span, original)
            for m in mods.values():
                if getattr(m, attr, None) is original:
                    self._undo.append((m, attr, original))
                    setattr(m, attr, wrapped)
            suites = mods["verify"]._SUITES
            for key, fn in suites.items():
                if fn is original:
                    self._undo.append((suites, key, original))
                    suites[key] = wrapped

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\tjob\tcount\tcount2\tfailed\n")
            for name, t0, t1, parent, job, n, m, failed in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{job}\t{n}\t{m}\t{failed}\n")

    def layer_metrics(self) -> dict[str, float]:
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for _name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                children[parent] += t1 - t0
        sampler_attempts = sampler_accepted = 0
        gf2_pivots = 0
        for idx, (name, t0, t1, parent, _job, n, m, failed) in enumerate(self.spans):
            calls[name] += 1
            total[name] += (t1 - t0) - children[idx]
            counts[name] += n
            gf2_pivots += m
            if name == "polar.sample_generic_subspace" and not failed:
                sampler_accepted += 1
            if (name == "polar.is_nondegenerate" and parent >= 0
                    and self.spans[parent][0] == "polar.sample_generic_subspace"):
                sampler_attempts += 1
        out: dict[str, float] = {}
        for _mod, _attr, span in TRACED:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = total[span]
        out["simplicial.link.out_simplices"] = counts["simplicial.link"]
        out["polar.sampler.attempts"] = sampler_attempts
        out["polar.sampler.useful_ratio"] = sampler_accepted / sampler_attempts if sampler_attempts else 0.0
        out["fileio.parse_s"] = sum(total[f"fileio.{a}"] for a in PARSE)
        out["fileio.serialize_s"] = sum(total[f"fileio.{a}"] for a in SERIALIZE)
        out["fileio.bytes_read"] = counts["fileio.load_json"]
        out["fileio.bytes_written"] = counts["fileio.dump_json"]
        out["gf2.columns"] = counts["gf2.eliminate"]
        out["gf2.pivot_ratio"] = gf2_pivots / out["gf2.columns"] if out["gf2.columns"] else 0.0
        return out
