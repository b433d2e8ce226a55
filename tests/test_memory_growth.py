"""Memory-growth guards: each layer that is linear today stays within twice its input's growth.

Each layer runs at two sizes and its tracemalloc peak is taken, after
``gc.collect()``; the ratio of the peaks must stay under twice the ratio
of the simplex counts.  The sizes are sd^2 and sd^3 of ``torus_7`` (1,512
and 9,072 simplices) and, for ``polar_chain``, sd^1 and sd^2 of
``rp2_6_embedded`` (181 and 1,081), each a 6x step.  Under tracemalloc,
sd^3 to sd^4 would take four of the ``torus_7`` layers about 4.7 s, and
sd^3 of ``rp2_6_embedded`` another 0.5 s.  Every call runs on a complex
freshly built from its file data, with the same inputs made before
tracing at both sizes: a level, coface table or subdivision cached by an
earlier call would make one size look cheaper (reusing sd^4's parent read
15.6x for ``dual``).
``subdivide`` is guarded end to end: K' built, listed by its maximal
simplices and written.  ``chain_to_dict`` writes s_0, one row per simplex
of the complex; barycenter names grow longer at each step, so the written
files grow a little faster than the simplex counts (8.8x and 8.1x).
``is_boundary`` is guarded on a 0-chain that bounds, which is solved on a
spanning forest with no GF(2) elimination.  Its GF(2) path and
``betti_mod2`` have no guard here.  From sd^2 to sd^3 they read 7.0x and
6.7x, but pivots stored at full width, which grow with the square of the
rows, read 10.9x and 9.4x, also inside the bound: the square shows only
from sd^3 to sd^4, which takes seconds.  ``test_gf2.py`` guards the pivot
storage on a path instead.
"""

import gc
import tracemalloc

import pytest

from whitney import calculus as cal
from whitney import fileio, polar, sw
from whitney.homology import Mod2Chain, is_boundary
from whitney.simplicial import barycentric_subdivision, build_complex


def _peak(call) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _calls(data):
    """Layer name -> a call on fresh complexes built from ``data``, its inputs made beforehand."""
    fresh = fileio.complex_from_dict
    closed, unread, written, flagged, bounded, subdivided = (fresh(data) for _ in range(6))
    closed.simplices
    z2 = cal.constant(fresh(data), 1, cal.RING_Z2)
    ones = cal.constant(fresh(data), 1)
    # an even number of vertices of a connected complex bounds
    vertices = data["vertices"][:len(data["vertices"]) // 2 * 2]
    points = Mod2Chain(0, frozenset((v,) for v in vertices))
    s0 = sw.stiefel_chain(barycentric_subdivision(fresh(data)), 0)
    return {
        "build_complex": lambda: build_complex(data["vertices"], data["maximal_simplices"]).simplices,
        "cofaces": lambda: closed.cofaces,
        "barycentric_subdivision": lambda: barycentric_subdivision(unread).complex,
        "flags": lambda: barycentric_subdivision(flagged).flags(flagged.dim),
        "is_boundary": lambda: is_boundary(bounded, points)[0] or pytest.fail("no boundary"),
        "dual": lambda: cal.dual(z2),
        "base_representative": lambda: sw.base_representative(ones.base, ones, 1),
        "complex_to_dict": lambda: fileio.dump_json(fileio.complex_to_dict(written), None),
        "subdivide": lambda: fileio.dump_json(
            fileio.complex_to_dict(barycentric_subdivision(subdivided).complex), None),
        "chain_to_dict": lambda: fileio.dump_json(fileio.chain_to_dict(s0), None),
    }


def _polar_call(data):
    """``polar_chain`` on a fresh complex, of a generic projection sampled on another copy."""
    f, _chain = polar.sample_generic_subspace(cal.constant(fileio.complex_from_dict(data), 1), 2, 1)
    ones = cal.constant(fileio.complex_from_dict(data), 1)
    g = polar.AffineVertexMap(ones.base, f.target_dim, f.images, f.scale)
    return lambda: polar.polar_chain(g, ones)


def _ladder(k, top):
    """File data and simplex counts of sd^(top - 1) and sd^top of k."""
    out = []
    for _ in range(top):
        k = barycentric_subdivision(k).complex
        out.append((fileio.complex_to_dict(k), len(k.simplices)))
    return out[-2:]


@pytest.fixture(scope="module")
def peaks(corpus):
    """Layer name -> (peak ratio, simplex count ratio) from the small size to the large."""
    out = {}
    (small, n_small), (large, n_large) = _ladder(corpus["torus_7"].complex, 3)
    calls_small, calls_large = _calls(small), _calls(large)
    for name in calls_small:
        out[name] = _peak(calls_large[name]) / _peak(calls_small[name]), n_large / n_small
    (small, n_small), (large, n_large) = _ladder(corpus["rp2_6_embedded"].complex, 2)
    call_small, call_large = _polar_call(small), _polar_call(large)
    out["polar_chain"] = _peak(call_large) / _peak(call_small), n_large / n_small
    return out


@pytest.mark.parametrize("layer", ["build_complex", "cofaces", "barycentric_subdivision", "flags",
                                   "dual", "base_representative", "is_boundary", "complex_to_dict",
                                   "subdivide", "chain_to_dict", "polar_chain"])
def test_peak_grows_at_most_twice_as_fast_as_the_input(peaks, layer):
    grew, size = peaks[layer]
    assert size > 5
    assert grew < 2 * size, f"{layer}: peak grew {grew:.1f}x for {size:.1f}x the simplices"
