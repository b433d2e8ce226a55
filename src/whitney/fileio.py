"""JSON parsing and canonical serialization for all artifact file types.

Rationals travel as "p/q" strings with q > 0, vertex ids as strings, and
integer fields as JSON integers.  Each field's JSON type is checked once,
on parse, so a malformed file is an InputError.  Serialization sorts every
enumeration canonically, so parse-serialize round-trips are byte-stable.
Function values are keyed by ``simplicial.simplex_key`` and read back
through ``SimplicialComplex.names``; so a complex in which two simplices
share a key takes no ``values`` file, and loading one is an InputError.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path
from typing import Any, Iterable, Optional

from .calculus import (
    RING_Z,
    RING_Z2,
    ConstructibleFunction,
    from_values,
    indicator_sum,
)
from .errors import ComplexError, InputError, WhitneyError
from .exactlin import clear_denominators
from .homology import Mod2Chain
from .polar import AffineVertexMap, HalfLinkReport
from .simplicial import (
    Simplex,
    SimplicialComplex,
    Subdivision,
    build_complex,
    faces,
    make_simplex,
    simplex_key,
)

# ASCII digits only, and nothing after them: "1/2\n" and Unicode digits are malformed
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str):
        raise InputError(f"rational must be a 'p/q' string, got {text!r}")
    m = _RATIONAL_RE.fullmatch(text)
    if not m:
        raise InputError(f"malformed rational {text!r}")
    try:
        p, q = int(m.group(1)), int(m.group(2) or 1)
    except ValueError:  # more digits than int() converts
        raise InputError(f"malformed rational of {len(text)} characters: too many digits") from None
    if q == 0:
        raise InputError(f"zero denominator in rational {text!r}")
    return Fraction(p, q)


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer", bool: "a boolean"}


def _check(value: Any, kind: type, what: str) -> Any:
    """value, which must be a JSON value of this kind; true and false are not integers."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise InputError(f"{what} must be {_KINDS[kind]}, got {value!r}")
    return value


def _require(data: dict, key: str, context: str, kind: type = object) -> Any:
    if key not in data:
        raise InputError(f"{context}: missing key {key!r}")
    return _check(data[key], kind, f"{context}: {key!r}")


def _ids(value: Any, what: str) -> list:
    """A list of vertex ids, which are strings."""
    if not all(map(isinstance, _check(value, list, what), repeat(str))):
        bad = next(v for v in value if not isinstance(v, str))
        raise InputError(f"{what}: vertex id must be a string, got {bad!r}")
    return value


def _lists(value: Any, what: str, ids: bool = False) -> list:
    """A list of lists; with ids, lists of vertex ids.  One pass per check, for long files.

    A row may also be a tuple, as the ``*_to_dict`` functions write them, so
    their data reads back without a pass through JSON text.
    """
    if not all(map(isinstance, _check(value, list, what), repeat((list, tuple)))):
        bad = next(inner for inner in value if not isinstance(inner, (list, tuple)))
        raise InputError(f"{what} entry must be a list, got {bad!r}")
    if ids:
        _ids(list(chain.from_iterable(value)), what)
    return value


def _simplex(raw: list, what: str) -> Simplex:
    """The canonical simplex on a list of vertex ids; empty or repeating ones are InputErrors."""
    try:
        return make_simplex(raw)
    except ComplexError as e:
        raise InputError(f"{what}: {e}") from e


def load_json(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}") from e
    except (RecursionError, UnicodeDecodeError) as e:  # nested too deep, or not UTF-8
        raise InputError(f"cannot parse {path}: {e}") from e
    except ValueError as e:  # the one left is an integer with more digits than int() converts
        limit = sys.get_int_max_str_digits()
        raise InputError(f"cannot parse {path}: an integer has more than {limit} digits") from e
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return data


_quote = json.encoder.encode_basestring_ascii


def _to_json(x: Any, pad: str) -> str:
    """x as ``json.dumps(x, indent=2, sort_keys=True)`` writes it, nested at indent ``pad``.

    The library's encoder runs in pure Python whenever it indents; this one
    joins a list of strings, such as a simplex, in one ``str.join``, and a
    list of nonempty lists of strings, such as a chain's or a complex's
    simplices, in one more ``str.join`` over its rows.
    """
    if isinstance(x, (list, tuple)) and x:
        inner = pad + "  "
        sep = ",\n" + inner
        try:
            return f"[\n{inner}{sep.join(map(_quote, x))}\n{pad}]"
        except TypeError:  # not all strings
            pass
        if all(map(isinstance, x, repeat((list, tuple)))) and all(x):
            # each row between "[" and "]", the rows joined by what closes one and opens the next
            start, end = f"[\n{inner}  ", f"\n{inner}]"
            try:
                body = (end + sep + start).join(
                    map((",\n  " + inner).join, map(map, repeat(_quote), x)))
                return f"[\n{inner}{start}{body}{end}\n{pad}]"
            except TypeError:  # not all strings
                pass
        body = sep.join([_to_json(v, inner) for v in x])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(x, str):
        return _quote(x)
    if isinstance(x, dict) and x and all(isinstance(key, str) for key in x):
        inner = pad + "  "
        body = (",\n" + inner).join(
            [f"{_quote(key)}: {_to_json(v, inner)}" for key, v in sorted(x.items())]
        )
        return f"{{\n{inner}{body}\n{pad}}}"
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    # floats, empty containers and keys that are not strings: the library's
    # encoder, indented to this depth
    return json.dumps(x, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def dump_json(data: dict, path: Optional[str | Path]) -> str:
    """Write data as ``json.dumps(data, indent=2, sort_keys=True)`` plus a newline; return the text."""
    return _write(_to_json(data, "") + "\n", path)


def _write(text: str, path: Optional[str | Path]) -> str:
    """Write text to path, unless path is None; return the text."""
    if path is not None:
        try:
            Path(path).write_text(text)
        except OSError as e:
            raise InputError(f"cannot write {path}: {e}") from e
    return text


# -- complexes ---------------------------------------------------------------

def complex_from_dict(data: dict) -> SimplicialComplex:
    vertices = _ids(_require(data, "vertices", "complex file"), "complex file: 'vertices'")
    # ids inside simplices are checked against the vertex list by build_complex
    maximal = _lists(_require(data, "maximal_simplices", "complex file"),
                     "complex file: 'maximal_simplices'")
    coords = None
    if data.get("coordinates") is not None:
        coords = {}
        for v, p in _check(data["coordinates"], dict, "complex file: 'coordinates'").items():
            if not isinstance(p, list):
                raise InputError(f"complex file: coordinates of {v!r} must be a list, got {p!r}")
            coords[v] = tuple(parse_rational(x) for x in p)
    return build_complex(vertices, maximal, coords)


def complex_to_dict(k: SimplicialComplex) -> dict:
    """k's file data: its vertices, its maximal simplices in canonical order and its coordinates.

    The maximal simplices are the sorted tuples of ``k.maximal()``, so a
    complex listed by them, such as a subdivision, is written without
    closing a level, and with no list per simplex; ``dump_json`` writes a
    tuple row as it writes a list.
    """
    out: dict[str, Any] = {
        "vertices": list(k.vertices),
        "maximal_simplices": k.maximal(),
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
    vm = _require(data, "vertex_map", "map file", dict)
    _ids(list(vm) + list(vm.values()), "map file: 'vertex_map'")
    return vm


# -- chains ------------------------------------------------------------------

def chain_from_dict(data: dict, k: Optional[SimplicialComplex] = None) -> Mod2Chain:
    dim = _require(data, "dim", "chain file", int)
    if dim < 0:
        raise InputError(f"chain file: 'dim' must be nonnegative, got {dim}")
    simplices = _lists(
        _require(data, "simplices", "chain file"), "chain file: 'simplices'", ids=True
    )
    listed = list(map(tuple, map(sorted, simplices)))
    support = frozenset(listed)
    # an empty, repeating or misdimensioned simplex, or one listed twice, fails
    # these counts; the loop then names the first one in file order
    sizes = set(map(len, listed)) | set(map(len, map(set, listed)))
    if len(support) < len(listed) or sizes - {dim + 1}:
        seen: set[Simplex] = set()
        for raw in simplices:
            s = _simplex(raw, "chain file")
            if s in seen:
                raise InputError(f"chain file: simplex {list(s)} is listed twice")
            if len(s) != dim + 1:
                raise InputError(
                    f"chain file: simplex {list(s)} has dimension {len(s) - 1}, chain has {dim}"
                )
            seen.add(s)
    if k is not None:
        # k's own simplex tuples, which hold k's vertex strings; only level dim is closed
        level = k.level_set(dim)
        own = frozenset(filter(support.__contains__, level))
        if len(own) < len(support):
            s = next(s for s in listed if s not in level)
            raise InputError(f"chain simplex {list(s)} is not in the complex")
        support = own
    return Mod2Chain(dim, support)


def chain_to_dict(c: Mod2Chain, provenance: Optional[dict] = None) -> dict:
    """c's file data: provenance, then its dimension and its simplices in canonical order.

    The simplices stay the sorted tuples of ``sorted_support``, with no list
    per simplex; ``dump_json`` writes a tuple row as it writes a list.
    """
    out: dict[str, Any] = dict(provenance or {})
    out["dim"] = c.dim
    out["simplices"] = c.sorted_support()
    return out


# -- constructible functions --------------------------------------------------

def function_from_dict(data: dict, k: SimplicialComplex) -> ConstructibleFunction:
    ring = _require(data, "ring", "function file")
    if ring not in (RING_Z, RING_Z2):
        raise InputError(f"function file: unknown ring {ring!r}")
    if "terms" in data and "values" in data:
        raise InputError("function file: give either terms or values, not both")
    if "terms" in data:
        terms = []
        for term in _check(data["terms"], list, "function file: 'terms'"):
            _check(term, dict, "function term")
            coeff = _require(term, "coeff", "function term", int)
            maximal = _lists(_require(term, "closed_support", "function term"),
                             "function term: 'closed_support'", ids=True)
            closure: set[Simplex] = set()
            for raw in maximal:
                closure.update(faces(_simplex(raw, "function file")))
            terms.append((coeff, closure))
        try:
            return indicator_sum(k, terms, ring)
        except WhitneyError as e:
            raise InputError(f"function file: {e}") from e
    if "values" in data:
        try:
            lookup = k.names()
        except ComplexError as e:
            raise InputError(str(e)) from e
        values: dict[Simplex, int] = {}
        for key, v in _check(data["values"], dict, "function file: 'values'").items():
            if key not in lookup:
                raise InputError(f"function file: unknown simplex key {key!r}")
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputError(f"function file: value of {key!r} must be an integer, got {v!r}")
            values[lookup[key]] = v
        try:
            return from_values(k, values, ring)
        except WhitneyError as e:
            raise InputError(f"function file: {e}") from e
    raise InputError("function file: needs either 'terms' or 'values'")


def function_to_dict(a: ConstructibleFunction) -> dict:
    return {
        "ring": a.ring,
        "values": {
            simplex_key(s): a(s) for s in a.base.simplices if a(s) != 0
        },
    }


# -- bases and affine maps -----------------------------------------------------

def basis_from_dict(data: dict) -> list[tuple[Fraction, ...]]:
    n = _require(data, "ambient_dim", "basis file", int)
    vectors = _lists(_require(data, "vectors", "basis file"), "basis file: 'vectors'")
    out = []
    for vec in vectors:
        if len(vec) != n:
            raise InputError("basis file: vector length does not match ambient_dim")
        out.append(tuple(parse_rational(x) for x in vec))
    return out


def affine_map_from_dict(data: dict, k: SimplicialComplex) -> AffineVertexMap:
    m = _require(data, "target_dim", "affine map file", int)
    images = _require(data, "images", "affine map file", dict)
    parsed = {}
    for v, p in images.items():
        if not isinstance(p, list):
            raise InputError(f"affine map file: image of {v!r} must be a list, got {p!r}")
        parsed[v] = tuple(parse_rational(x) for x in p)
    scale, ints = clear_denominators(parsed.values())
    try:
        return AffineVertexMap(k, m, dict(zip(parsed, ints)), scale)
    except WhitneyError as e:
        raise InputError(f"affine map file: {e}") from e


# -- corpus index ---------------------------------------------------------------

def corpus_index_from_dict(data: dict) -> list[dict]:
    """Entries of a corpus index.json: a unique string name and a file, and an optional description.

    An index only names files.  Other keys, such as ``euler`` or ``pure``,
    are ignored: those facts are derived from each complex.
    """
    items = _require(data, "complexes", "corpus index", list)
    names = set()
    for item in items:
        _check(item, dict, "corpus index: entry")
        for key in ("name", "file"):
            _require(item, key, "corpus index entry", str)
        _check(item.get("description", ""), str, "corpus index entry: 'description'")
        if item["name"] in names:
            raise InputError(f"corpus index: name {item['name']!r} appears twice")
        names.add(item["name"])
    return items


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


_BOOL = ("false", "true")


def dump_half_links(reports: Iterable[HalfLinkReport], path: Optional[str | Path]) -> str:
    """Write reports as ``dump_json`` writes ``{"half_links": [half_link_report_to_dict(r) ...]}``.

    Returns the text.  Each cell is one f-string and each list one join,
    with no dict per cell and no encoder call per value; the keys are
    written in sorted order, at the indents their nesting gives.
    """
    return _write(_half_links_text(reports), path)


def _half_links_text(reports: Iterable[HalfLinkReport]) -> str:
    """The text of ``dump_half_links``, built apart so the report texts are freed before the write.

    Each report's text holds what comes before it, so the text is one join.
    """
    join_items = ",\n        ".join    # a report's cells, normal and simplex
    join_ids = ",\n            ".join    # a cell's link simplex
    lead = '{\n  "half_links": [\n    '
    texts = []
    for r in reports:
        cells = join_items([
            f'{{\n          "link_simplex": [\n            {join_ids(map(_quote, c.link_simplex))}'
            f'\n          ],\n          "negative_cell": {_BOOL[c.negative_cell]},'
            f'\n          "positive_cell": {_BOOL[c.positive_cell]},'
            f'\n          "weight": {c.weight},'
            f'\n          "zero_cell": {_BOOL[c.zero_cell]}\n        }}'
            for c in r.cells
        ])
        cells = f"[\n        {cells}\n      ]" if cells else "[]"
        texts.append(
            f'{lead}{{\n      "cells": {cells},'
            f'\n      "chi_minus": {r.chi_minus},\n      "chi_plus": {r.chi_plus},'
            f'\n      "normal": [\n        {join_items(map(str, r.normal))}\n      ],'
            f'\n      "offset": "{format_rational(r.offset)}",'
            f'\n      "simplex": [\n        {join_items(map(_quote, r.simplex))}\n      ]\n    }}'
        )
        lead = ",\n    "
    if not texts:
        return '{\n  "half_links": []\n}\n'
    texts.append("\n  ]\n}\n")
    return "".join(texts)
