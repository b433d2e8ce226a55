"""JSON parsing and canonical serialization for all artifact file types.

Rationals travel as "p/q" strings with q > 0.  Serialization sorts every
enumeration canonically, so parse-serialize round-trips are byte-stable.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from .calculus import (
    RING_Z,
    RING_Z2,
    ConstructibleFunction,
    from_values,
    indicator_sum,
)
from .errors import InputError
from .homology import Mod2Chain
from .polar import AffineVertexMap
from .simplicial import (
    Simplex,
    SimplicialComplex,
    Subdivision,
    build_complex,
    faces,
    make_simplex,
)

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str):
        raise InputError(f"rational must be a 'p/q' string, got {text!r}")
    m = _RATIONAL_RE.match(text)
    if not m:
        raise InputError(f"malformed rational {text!r}")
    p = int(m.group(1))
    q = int(m.group(2)) if m.group(2) is not None else 1
    if q == 0:
        raise InputError(f"zero denominator in rational {text!r}")
    return Fraction(p, q)


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _require(data: dict, key: str, context: str) -> Any:
    if key not in data:
        raise InputError(f"{context}: missing key {key!r}")
    return data[key]


def load_json(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return data


def dump_json(data: dict, path: Optional[str | Path]) -> str:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


# -- complexes ---------------------------------------------------------------

def complex_from_dict(data: dict) -> SimplicialComplex:
    vertices = _require(data, "vertices", "complex file")
    maximal = _require(data, "maximal_simplices", "complex file")
    coords = None
    if data.get("coordinates") is not None:
        coords = {
            v: tuple(parse_rational(x) for x in p)
            for v, p in data["coordinates"].items()
        }
    return build_complex(vertices, maximal, coords)


def complex_to_dict(k: SimplicialComplex) -> dict:
    maximal = [
        list(s)
        for s in k.simplices
        if len(k.cofaces[s]) == 1
    ]
    out: dict[str, Any] = {
        "vertices": list(k.vertices),
        "maximal_simplices": sorted(maximal),
    }
    if k.coordinates is not None:
        out["coordinates"] = {
            v: [format_rational(x) for x in p] for v, p in k.coordinates.items()
        }
    return out


def load_complex(path: str | Path) -> SimplicialComplex:
    return complex_from_dict(load_json(path))


# -- maps --------------------------------------------------------------------

def vertex_map_from_dict(data: dict) -> dict[str, str]:
    vm = _require(data, "vertex_map", "map file")
    if not isinstance(vm, dict):
        raise InputError("map file: vertex_map must be an object")
    return {str(k): str(v) for k, v in vm.items()}


# -- chains ------------------------------------------------------------------

def chain_from_dict(data: dict, k: Optional[SimplicialComplex] = None) -> Mod2Chain:
    dim = _require(data, "dim", "chain file")
    simplices = _require(data, "simplices", "chain file")
    support = frozenset(tuple(sorted(s)) for s in simplices)
    try:
        c = Mod2Chain(int(dim), support)
    except Exception as e:
        raise InputError(f"chain file: {e}") from e
    if k is not None:
        for s in c.support:
            if s not in k.simplex_set:
                raise InputError(f"chain simplex {list(s)} is not in the complex")
    return c


def chain_to_dict(c: Mod2Chain, provenance: Optional[dict] = None) -> dict:
    out: dict[str, Any] = dict(provenance or {})
    out["dim"] = c.dim
    out["simplices"] = [list(s) for s in c.sorted_support()]
    return out


# -- constructible functions --------------------------------------------------

def _simplex_key(s: Simplex) -> str:
    return ",".join(s)


def function_from_dict(data: dict, k: SimplicialComplex) -> ConstructibleFunction:
    ring = _require(data, "ring", "function file")
    if ring not in (RING_Z, RING_Z2):
        raise InputError(f"function file: unknown ring {ring!r}")
    if "terms" in data and "values" in data:
        raise InputError("function file: give either terms or values, not both")
    if "terms" in data:
        terms = []
        for term in data["terms"]:
            coeff = int(_require(term, "coeff", "function term"))
            maximal = _require(term, "closed_support", "function term")
            closure: set[Simplex] = set()
            for raw in maximal:
                closure.update(faces(make_simplex(raw)))
            terms.append((coeff, closure))
        try:
            return indicator_sum(k, terms, ring)
        except Exception as e:
            raise InputError(f"function file: {e}") from e
    if "values" in data:
        # keys are comma-joined sorted vertex ids; vertex names may contain
        # commas themselves, so match whole keys against the complex
        lookup: dict[str, Simplex] = {}
        for s in k.simplices:
            key = _simplex_key(s)
            if key in lookup:
                raise InputError(f"ambiguous simplex key {key!r} in this complex")
            lookup[key] = s
        values: dict[Simplex, int] = {}
        for key, v in data["values"].items():
            if key not in lookup:
                raise InputError(f"function file: unknown simplex key {key!r}")
            values[lookup[key]] = int(v)
        try:
            return from_values(k, values, ring)
        except Exception as e:
            raise InputError(f"function file: {e}") from e
    raise InputError("function file: needs either 'terms' or 'values'")


def function_to_dict(a: ConstructibleFunction) -> dict:
    return {
        "ring": a.ring,
        "values": {
            _simplex_key(s): a(s) for s in a.base.simplices if a(s) != 0
        },
    }


# -- bases and affine maps -----------------------------------------------------

def basis_from_dict(data: dict) -> list[tuple[Fraction, ...]]:
    n = int(_require(data, "ambient_dim", "basis file"))
    vectors = _require(data, "vectors", "basis file")
    out = []
    for vec in vectors:
        if len(vec) != n:
            raise InputError("basis file: vector length does not match ambient_dim")
        out.append(tuple(parse_rational(x) for x in vec))
    return out


def affine_map_from_dict(data: dict, k: SimplicialComplex) -> AffineVertexMap:
    m = int(_require(data, "target_dim", "affine map file"))
    images = _require(data, "images", "affine map file")
    parsed = {
        v: tuple(parse_rational(x) for x in p) for v, p in images.items()
    }
    try:
        return AffineVertexMap(k, m, parsed)
    except Exception as e:
        raise InputError(f"affine map file: {e}") from e


# -- subdivision manifest -------------------------------------------------------

def subdivision_manifest(sub: Subdivision) -> dict:
    return {
        "carriers": {v: list(s) for v, s in sorted(sub.carriers.items())},
    }


# -- half-link reports ----------------------------------------------------------

def half_link_report_to_dict(report) -> dict:
    return {
        "simplex": list(report.simplex),
        "normal": list(report.normal),
        "offset": format_rational(report.offset),
        "chi_plus": report.chi_plus,
        "chi_minus": report.chi_minus,
        "cells": [
            {
                "link_simplex": list(cell.link_simplex),
                "positive_cell": cell.positive_cell,
                "negative_cell": cell.negative_cell,
                "zero_cell": cell.zero_cell,
                "weight": cell.weight,
            }
            for cell in report.cells
        ],
    }
