"""The per-mask reference of the oracle's walks: every bond subset
classified from scratch by a plain union-find, on the strip and on its
planar dual.  The library's memoised walks (``bruteforce._walk``) share
none of this code, so the tests compare them with it.

``bruteforce._dual_graph`` and ``bruteforce._check_edge_budget`` are looked
up through the module at each call, so a test that patches either patches
the reference and the paired walk alike.
"""

from typing import NamedTuple

from pottstrip import bruteforce


class DualityWitness(NamedTuple):
    """Per-configuration bookkeeping of the direct/dual weight match."""

    mask: int
    direct_ntc: int
    direct_trivial: int
    direct_bonds: int
    dual_ntc: int
    dual_trivial: int
    dual_bonds: int
    ok: bool


def duality_witnesses(strip):
    """Walk all bond subsets, pairing each with its complementary dual
    configuration and checking the weight identity

        Q**(1-F) * v**E * [Q**(j+1) * Q**t~ * vd**b~] == Q**j * Q**t * v**b

    with vd = Q/v the dual bond weight, t/t~ trivial-cluster counts and F, E
    the face and edge counts of the strip.  Both sides are monomials, so the
    check compares exponents exactly.  Dual edge k crosses bond k, so the
    complementary dual configuration is the bitwise NOT of the mask.
    """
    bruteforce._check_edge_budget(strip)
    dual_edges, cap_loops, n_dual = bruteforce._dual_graph(strip)
    dual_edges += cap_loops
    edges = strip.edges()
    n_edges = len(edges)
    full = (1 << n_edges) - 1
    loops = 3 << n_edges  # the two cap loops are always present
    F = strip.face_count

    for mask in range(1 << n_edges):
        n, b, j = _direct_stats(mask, edges, strip.vertex_count)
        t = n - j
        dn, db, dwind = _direct_stats(full ^ mask | loops, dual_edges, n_dual)
        db -= 2
        dt = dn - dwind
        # LHS exponents: Q: (1-F) + (j+1) + t~ + b~ ; v: E - b~
        ok = (
            dwind == j + 1
            and (1 - F) + (j + 1) + dt + db == j + t
            and n_edges - db == b
        )
        yield DualityWitness(mask, j, t, b, dwind, dt, db, ok)


def _direct_stats(mask, edges, n_vertices):
    """(clusters, bonds, winding clusters) of one bond subset."""
    parent = list(range(n_vertices))
    shift = [0] * n_vertices
    wrapped = [False] * n_vertices

    def find(x):
        d = 0
        while parent[x] != x:
            d += shift[x]
            x = parent[x]
        return x, d

    n = n_vertices
    b = 0
    for k, (uu, vv, disp) in enumerate(edges):
        if not mask >> k & 1:
            continue
        b += 1
        x, dx = find(uu)
        y, dy = find(vv)
        if x == y:
            if dy - dx != disp:
                wrapped[x] = True
        else:
            n -= 1
            parent[y] = x
            shift[y] = disp + dx - dy
            if wrapped[y]:
                wrapped[x] = True
    j = sum(1 for i in range(n_vertices) if parent[i] == i and wrapped[i])
    return n, b, j
