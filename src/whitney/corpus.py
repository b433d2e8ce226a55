"""Bundled complex corpus and simplicial map suite.

Each space's Euler status and purity are derived from its complex on every
load; no corpus file states them.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .calculus import is_euler_space
from .errors import InputError, WhitneyError
from .fileio import complex_from_dict, corpus_index_from_dict, load_json
from .simplicial import SimplicialComplex, SimplicialMap, impure_simplex, validate_map


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    complex: SimplicialComplex
    euler: bool
    pure: bool


def _data_dir() -> Path:
    return Path(resources.files("whitney").joinpath("corpus"))


def load_corpus(directory: Optional[str | Path] = None) -> dict[str, CorpusEntry]:
    """The bundled corpus, or every complex file of a user directory.

    An index.json, when present, names the files to load; without one, each
    *.json file that reads as a complex is loaded and the others skipped.
    Euler status and purity are derived from each complex.  An error that
    ends the load names its file.
    """
    base = Path(directory) if directory is not None else _data_dir()
    indexed = (base / "index.json").exists()
    if indexed:
        listing = [(item["name"], item["file"])
                   for item in corpus_index_from_dict(load_json(base / "index.json"))]
    else:
        listing = [(path.stem, path.name) for path in sorted(base.glob("*.json"))]
    entries: dict[str, CorpusEntry] = {}
    for name, file in listing:
        try:
            data = load_json(base / file)  # its errors name the path already
            try:
                k = complex_from_dict(data)
            except WhitneyError as e:
                raise type(e)(f"{file}: {e}") from e
        except InputError:
            if indexed:
                raise
            continue
        euler = is_euler_space(k).is_euler
        entries[name] = CorpusEntry(name, k, euler, impure_simplex(k) is None)
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
