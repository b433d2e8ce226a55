"""Vertex relabelling for the invariance properties: rename a complex's ids and carry
functions and chains along, and compare simplices of K' and of the renamed K' by flags."""

from hypothesis import strategies as st

from whitney import calculus as cal
from whitney.simplicial import build_complex


def relabel(k, new):
    """k with vertex v renamed new[v]; coordinates kept."""
    coords = None if k.coordinates is None else {new[v]: p for v, p in k.coordinates.items()}
    return build_complex(
        [new[v] for v in k.vertices], [[new[v] for v in s] for s in k.simplices], coords
    )


def reverse_order(k):
    """k relabelled so that its canonical vertex order is reversed."""
    n = len(k.vertices)
    return relabel(k, {v: f"v{n - 1 - j:03d}" for j, v in enumerate(k.vertices)})


def rename(s, new):
    """The simplex s with its vertices renamed by new, in canonical order."""
    return tuple(sorted(new[v] for v in s))


def relabel_function(a, k2, new):
    return cal.from_values(k2, {rename(s, new): x for s, x in a.values.items()}, a.ring)


def fresh_ids(data, k):
    """A bijection of k's vertex ids onto fresh string ids, drawn so that the canonical order changes."""
    order = data.draw(st.permutations(range(len(k.vertices))))
    return {v: f"x{j}" for v, j in zip(k.vertices, order)}


def flag_keys(sub, sub2, new):
    """Keys that compare simplices of K' and of K2' through their flags, K's simplices renamed by new."""
    return (
        lambda s: frozenset(rename(sub.carriers[w], new) for w in s),
        lambda s: frozenset(sub2.carriers[w] for w in s),
    )
