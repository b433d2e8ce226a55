"""The face closure the per-dimension levels of ``SimplicialComplex`` are checked against.

The library's former eager closure, kept in the tests as an oracle: it
closes every dimension at once, from the top down, sorts every simplex,
and sorts them again by size for ``by_dim``; its maximal simplices are
read off its coface table.  It shares no code with
``whitney.simplicial``.
"""

from __future__ import annotations

from itertools import chain, combinations, groupby, repeat

Simplex = tuple[str, ...]


class EagerComplex:
    """Every dimension of the face closure of the listed simplices, built at once."""

    def __init__(self, listed):
        by_size = {n: set(ss) for n, ss in groupby(sorted(map(tuple, map(sorted, listed)),
                                                          key=len), key=len)}
        closure: set[Simplex] = set()
        level: set[Simplex] = set()
        for n in range(max(by_size, default=0), 0, -1):
            level = set(chain.from_iterable(map(combinations, level, repeat(n))))
            level |= by_size.get(n, set())
            closure |= level
        self.simplices = tuple(sorted(closure))
        self.simplex_set = frozenset(self.simplices)
        self.dim = max((len(s) - 1 for s in self.simplices), default=-1)
        # a stable sort by size keeps the canonical order inside each dimension
        self.by_dim = {n - 1: tuple(ss)
                       for n, ss in groupby(sorted(self.simplices, key=len), key=len)}
        cofaces: dict[Simplex, list[Simplex]] = {s: [] for s in self.simplices}
        for t in self.simplices:
            for n in range(1, len(t) + 1):
                for f in combinations(t, n):
                    cofaces[f].append(t)
        self.cofaces = {s: tuple(ts) for s, ts in cofaces.items()}
        # the simplices with no coface but themselves, in canonical order
        self.maximal = [s for s in self.simplices if self.cofaces[s] == (s,)]

    def n_simplices(self, d: int) -> int:
        return len(self.by_dim.get(d, ()))
