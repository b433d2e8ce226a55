"""Bundled complex corpus and simplicial map suite.

Every corpus space ships with its documented Euler / non-Euler status;
tests and the verification suites re-derive the classification rather
than trusting the label.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .calculus import is_euler_space
from .errors import InputError
from .fileio import complex_from_dict, corpus_index_from_dict, load_json
from .simplicial import SimplicialComplex, SimplicialMap, impure_simplex, validate_map


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    complex: SimplicialComplex
    euler: bool
    pure: bool
    description: str


def _data_dir() -> Path:
    return Path(resources.files("whitney").joinpath("corpus"))


def load_corpus(directory: Optional[str | Path] = None) -> dict[str, CorpusEntry]:
    """The bundled corpus, or every complex file of a user directory.

    User directories may have an index.json like the bundled one; without
    it, each *.json complex is loaded with its Euler status and purity
    derived from the complex.
    """
    base = Path(directory) if directory is not None else _data_dir()
    index_path = base / "index.json"
    entries: dict[str, CorpusEntry] = {}
    if index_path.exists():
        for item in corpus_index_from_dict(load_json(index_path)):
            k = complex_from_dict(load_json(base / item["file"]))
            entries[item["name"]] = CorpusEntry(
                item["name"], k, item["euler"], item["pure"], item.get("description", ""),
            )
        return entries
    for path in sorted(base.glob("*.json")):
        try:
            k = complex_from_dict(load_json(path))
        except InputError:
            continue
        entries[path.stem] = CorpusEntry(
            path.stem, k, is_euler_space(k).is_euler, impure_simplex(k) is None, ""
        )
    if not entries:
        raise InputError(f"no complexes found in {base}")
    return entries


@dataclass(frozen=True)
class MapEntry:
    name: str
    map: SimplicialMap
    domain_name: str
    codomain_name: str


def load_map_suite() -> list[MapEntry]:
    """Identity, double cover, fold, collapse-to-point, inclusion into a cone."""
    base = _data_dir()
    index = load_json(base / "maps.json")
    complexes: dict[str, SimplicialComplex] = {}

    def get(name: str) -> SimplicialComplex:
        if name not in complexes:
            complexes[name] = complex_from_dict(load_json(base / f"{name}.json"))
        return complexes[name]

    out = []
    for item in index["maps"]:
        f = validate_map(get(item["domain"]), get(item["codomain"]), item["vertex_map"])
        out.append(MapEntry(item["name"], f, item["domain"], item["codomain"]))
    return out
