"""Exhaustive ground truth for everything the transfer matrices compute.

The cluster expansion of the Potts partition function on a graph G,

    Z = sum over bond subsets B of  Q**n(B) * v**|B|,

with n(B) the number of connected components, is evaluated here literally,
by iterating over all 2**E subsets.  Each subset is classified by

    n -- number of clusters,
    b -- number of bonds,
    j -- number of clusters winding around the periodic direction
         (non-trivial clusters, NTC),

using a union-find whose nodes carry an integer column displacement: merging
two already-connected endpoints whose recorded displacements disagree with
the new bond's displacement is exactly a cycle of non-zero winding, so the
cluster wraps.  Weights only depend on (n, b, j), so the enumeration
accumulates an integer histogram and the polynomials are assembled at the
end; all arithmetic is exact.

Everything here is deliberately independent of the transfer-matrix route:
no connectivity states, no matrix products, just subsets of edges.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

from .lattice import VERTICAL, CyclicStrip, square_strip
from .polynomial import MultiPoly

#: subsets beyond 2**24 are refused; the point of this module is certainty,
#: not scale.
MAX_EDGES = 24

#: spin sums beyond 10**7 terms are refused.
MAX_SPIN_CONFIGS = 10 ** 7

Histogram = dict[tuple[int, int, int], int]


def _check_edge_budget(strip: CyclicStrip) -> None:
    if strip.edge_count > MAX_EDGES:
        raise ValueError(
            f"{strip} has {strip.edge_count} edges; exhaustive enumeration is "
            f"capped at {MAX_EDGES} (use a smaller strip)"
        )


def _subset_histogram(
    edges: tuple[tuple[int, int, int], ...], n_vertices: int, lo: int, hi: int
) -> Histogram:
    """Classify the bond subsets with indices in [lo, hi)."""
    n_edges = len(edges)
    eu = [e[0] for e in edges]
    ev = [e[1] for e in edges]
    ed = [e[2] for e in edges]
    bit_index = {1 << k: k for k in range(n_edges)}

    counts: Histogram = {}
    parent0 = list(range(n_vertices))
    zeros = [0] * n_vertices
    falses = [False] * n_vertices
    parent = list(parent0)
    shift = list(zeros)
    wrapped = list(falses)

    for mask in range(lo, hi):
        parent[:] = parent0
        shift[:] = zeros
        wrapped[:] = falses
        n = n_vertices
        b = 0
        m = mask
        while m:
            low = m & -m
            m ^= low
            k = bit_index[low]
            b += 1
            x = eu[k]
            dx = 0
            while parent[x] != x:
                dx += shift[x]
                x = parent[x]
            y = ev[k]
            dy = 0
            while parent[y] != y:
                dy += shift[y]
                y = parent[y]
            if x == y:
                if dy - dx != ed[k]:
                    wrapped[x] = True
            else:
                n -= 1
                parent[y] = x
                shift[y] = ed[k] + dx - dy
                if wrapped[y]:
                    wrapped[x] = True
        j = 0
        for i in range(n_vertices):
            if parent[i] == i and wrapped[i]:
                j += 1
        key = (n, b, j)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _histogram_chunk(args) -> Histogram:
    edges, n_vertices, lo, hi = args
    return _subset_histogram(edges, n_vertices, lo, hi)


_HISTOGRAM_CACHE: dict[CyclicStrip, Histogram] = {}


def fk_histogram(strip: CyclicStrip, workers: int = 1) -> Histogram:
    """Counts of bond subsets per (clusters, bonds, winding clusters).

    With workers > 1 the subset range is split into equal chunks processed
    in separate processes, at most one per CPU; the merge is a plain sum per
    key, so the result is identical for every worker count.
    """
    cached = _HISTOGRAM_CACHE.get(strip)
    if cached is not None:
        return cached
    _check_edge_budget(strip)
    edges = strip.edges()
    total = 1 << strip.edge_count
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or total < 1 << 12:
        counts = _subset_histogram(edges, strip.vertex_count, 0, total)
    else:
        bounds = [total * k // workers for k in range(workers + 1)]
        jobs = [
            (edges, strip.vertex_count, bounds[k], bounds[k + 1])
            for k in range(workers)
        ]
        counts = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_histogram_chunk, jobs):
                for key, c in part.items():
                    counts[key] = counts.get(key, 0) + c
    _HISTOGRAM_CACHE[strip] = counts
    return counts


@dataclass(frozen=True)
class NtcSpectrum:
    """The cluster expansion refined by winding-cluster count.

    ``sectors[j]`` is the sum of Q**n v**b over bond subsets with exactly j
    winding clusters; the sectors add up to the full partition function.
    """

    width: int
    sectors: tuple[MultiPoly, ...]

    def __getitem__(self, j: int) -> MultiPoly:
        if not 0 <= j <= self.width:
            raise ValueError(f"sector {j} outside range(0, {self.width + 1})")
        return self.sectors[j]

    def items(self) -> Iterator[tuple[int, MultiPoly]]:
        return iter(enumerate(self.sectors))

    def total(self) -> MultiPoly:
        out = MultiPoly.zero()
        for p in self.sectors:
            out = out + p
        return out


def fk_spectrum(strip: CyclicStrip, workers: int = 1) -> NtcSpectrum:
    """Partition function split by number of winding clusters.

    >>> sectors = fk_spectrum(square_strip(1, 2))
    >>> print(sectors[0]); print(sectors[1])
    Q^2 + 2*Q*v
    Q*v^2
    """
    counts = fk_histogram(strip, workers=workers)
    sectors: list[dict] = [dict() for _ in range(strip.width + 1)]
    for (n, b, j), c in counts.items():
        key = (n, b, 0)
        sectors[j][key] = sectors[j].get(key, 0) + c
    return NtcSpectrum(strip.width, tuple(MultiPoly(s) for s in sectors))


def fk_z(strip: CyclicStrip, workers: int = 1) -> MultiPoly:
    """The full cluster-expansion partition function."""
    return fk_spectrum(strip, workers=workers).total()


def dual_boundary_z(strip: CyclicStrip, workers: int = 1) -> MultiPoly:
    """Cluster expansion where one winding cluster is weighted Q0 instead
    of Q: configurations with j >= 1 winding clusters get Q0 * Q**(n-1) *
    v**b, configurations with none keep Q**n * v**b.

    >>> print(dual_boundary_z(square_strip(1, 2)))
    Q^2 + 2*Q*v + v^2*Q0
    """
    counts = fk_histogram(strip, workers=workers)
    terms: dict = {}
    for (n, b, j), c in counts.items():
        if j >= 1:
            key = (n - 1, b, 1)
        else:
            key = (n, b, 0)
        terms[key] = terms.get(key, 0) + c
    return MultiPoly(terms)


def spin_z(strip: CyclicStrip, q: int, v: Fraction | int) -> Fraction:
    """Potts partition function by explicit spin sum: sum over q**V spin
    assignments of the product over bonds of (1 + v * delta).

    An entirely independent second oracle: it never sees clusters at all.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    nv = strip.vertex_count
    if q ** nv > MAX_SPIN_CONFIGS:
        raise ValueError(
            f"spin sum over {q}**{nv} configurations exceeds the "
            f"{MAX_SPIN_CONFIGS} budget"
        )
    v = Fraction(v)
    pairs = [(u, w) for u, w, _ in strip.edges()]
    total = Fraction(0)
    for spins in product(range(q), repeat=nv):
        weight = Fraction(1)
        for u, w in pairs:
            if spins[u] == spins[w]:
                weight *= 1 + v
        total += weight
    return total


def fixed_boundary_spin_z(
    width: int, length: int, q: int, v: Fraction | int
) -> Fraction:
    """Spin sum for the strip with first and last rows frozen to spin 0.

    All bonds of the cyclic strip contribute, including the bonds inside
    each frozen row (each worth 1+v); only rows 1..width-2 are summed over.
    Width 2 has no free rows at all and is excluded as degenerate.
    """
    if width < 3:
        raise ValueError("fixed-boundary strips need width >= 3")
    if length < 1:
        raise ValueError("length must be >= 1")
    if q < 1:
        raise ValueError("q must be a positive integer")
    free = (width - 2) * length
    if q ** free > MAX_SPIN_CONFIGS:
        raise ValueError(
            f"spin sum over {q}**{free} configurations exceeds the "
            f"{MAX_SPIN_CONFIGS} budget"
        )
    v = Fraction(v)
    pairs = [(u, w) for u, w, _ in square_strip(width, length).edges()]
    total = Fraction(0)
    for assignment in product(range(q), repeat=free):
        spins = []
        for col in range(length):
            spins.append(0)
            spins.extend(assignment[col * (width - 2) : (col + 1) * (width - 2)])
            spins.append(0)
        weight = Fraction(1)
        for u, w in pairs:
            if spins[u] == spins[w]:
                weight *= 1 + v
        total += weight
    return total


# ----------------------------------------------------------------------
# planar duality


def _require_square(strip: CyclicStrip) -> None:
    if strip != square_strip(strip.width, strip.length):
        raise ValueError("dual construction is implemented for square strips only")


def _dual_graph(strip: CyclicStrip):
    """The planar dual of the annulus-embedded square strip.

    Interior faces form an (L-1) x N strip of dual vertices; the two annulus
    caps contribute one exterior dual vertex each.  Dual edge k crosses
    direct edge k (same index), so complementing a bond subset is a bitwise
    NOT of the mask.

    Returns (dual edge list, number of dual vertices, exterior pair).
    Dual edges between interior vertices carry a column displacement for
    winding detection; edges touching an exterior vertex have displacement
    None (clusters through the caps count as winding by convention, so their
    displacement is never consulted).
    """
    _require_square(strip)
    L, N = strip.width, strip.length

    def face(r: int, t: int) -> int:
        return r + (L - 1) * (t % N)

    n_interior = (L - 1) * N
    bottom = n_interior
    top = n_interior + 1
    dual_edges: list[tuple[int, int, int | None]] = []
    for t in range(N):
        for op in strip.column_program:
            if op.kind == VERTICAL:
                # crossing a vertical bond: step between neighbouring columns
                dual_edges.append((face(op.site, t - 1), face(op.site, t), 1))
            else:
                r = op.site
                below = bottom if r == 0 else face(r - 1, t)
                above = top if r == L - 1 else face(r, t)
                if below >= n_interior or above >= n_interior:
                    dual_edges.append((below, above, None))
                else:
                    dual_edges.append((below, above, 0))
    return tuple(dual_edges), n_interior + 2, (bottom, top)


def _dual_stats(dual_mask: int, dual_edges, n_dual: int, exterior: tuple[int, int]):
    """(clusters, bonds, winding clusters) of one dual bond configuration.

    A dual cluster is winding when it contains an exterior vertex or when
    its interior part winds the annulus; a cluster through both caps still
    counts once.
    """
    parent = list(range(n_dual))
    shift = [0] * n_dual
    wrapped = [False] * n_dual

    def find(x: int) -> tuple[int, int]:
        d = 0
        while parent[x] != x:
            d += shift[x]
            x = parent[x]
        return x, d

    n = n_dual
    b = 0
    # interior displacement pass
    for k, (uu, vv, disp) in enumerate(dual_edges):
        if not dual_mask >> k & 1:
            continue
        b += 1
        if disp is None:
            continue
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
    # now merge through the caps (winding no longer matters for these)
    for k, (uu, vv, disp) in enumerate(dual_edges):
        if disp is not None or not dual_mask >> k & 1:
            continue
        x, _ = find(uu)
        y, _ = find(vv)
        if x != y:
            n -= 1
            parent[y] = x
            if wrapped[y]:
                wrapped[x] = True
    winding = 0
    ext_roots = {find(e)[0] for e in exterior}
    for i in range(n_dual):
        if parent[i] == i and (wrapped[i] or i in ext_roots):
            winding += 1
    return n, b, winding


@dataclass(frozen=True)
class DualityWitness:
    """Per-configuration bookkeeping of the direct/dual weight match."""

    mask: int
    direct_ntc: int
    direct_trivial: int
    direct_bonds: int
    dual_ntc: int
    dual_trivial: int
    dual_bonds: int
    ok: bool


def duality_witnesses(strip: CyclicStrip) -> Iterator[DualityWitness]:
    """Walk all bond subsets, pairing each with its complementary dual
    configuration and checking the weight identity

        Q**(1-F) * v**E * [Q**(j+1) * Q**t~ * vd**b~] == Q**j * Q**t * v**b

    with vd = Q/v the dual bond weight, t/t~ trivial-cluster counts and F, E
    the face and edge counts of the strip.  Both sides are monomials, so the
    check compares exponents exactly.
    """
    _check_edge_budget(strip)
    dual_edges, n_dual, exterior = _dual_graph(strip)
    edges = strip.edges()
    n_edges = len(edges)
    full = (1 << n_edges) - 1
    F = strip.face_count

    for mask in range(1 << n_edges):
        n, b, j = _direct_stats(mask, edges, strip.vertex_count)
        t = n - j
        dn, db, dwind = _dual_stats(full ^ mask, dual_edges, n_dual, exterior)
        dt = dn - dwind
        # LHS exponents: Q: (1-F) + (j+1) + t~ + b~ ; v: E - b~
        ok = (
            dwind == j + 1
            and (1 - F) + (j + 1) + dt + db == j + t
            and n_edges - db == b
        )
        yield DualityWitness(mask, j, t, b, dwind, dt, db, ok)


def _direct_stats(mask: int, edges, n_vertices: int) -> tuple[int, int, int]:
    counts = _subset_histogram(edges, n_vertices, mask, mask + 1)
    ((n, b, j),) = counts.keys()
    return n, b, j


def duality_witness_check(strip: CyclicStrip) -> bool:
    """True iff every configuration's weight identity holds *and* the
    aggregate identity Q**(1-F) * v**E * Zdual(Q/v) == Z(v) holds, checked
    with its denominators cleared, with Zdual the plain cluster expansion of
    the dual graph.
    """
    _check_edge_budget(strip)
    dual_edges, n_dual, exterior = _dual_graph(strip)
    edges = strip.edges()
    n_edges = len(edges)
    full = (1 << n_edges) - 1
    F = strip.face_count

    aggregate: dict = {}
    for w in duality_witnesses(strip):
        if not w.ok:
            return False
    for mask in range(1 << n_edges):
        dmask = full ^ mask
        dn, db, _ = _dual_stats(dmask, dual_edges, n_dual, exterior)
        # Q**(1-F) v**E * Q**dn * (Q/v)**db, multiplied by Q**(F-1):
        key = (dn + db, n_edges - db, 0)
        aggregate[key] = aggregate.get(key, 0) + 1
    lhs = MultiPoly(aggregate)  # = Q**(F-1) * v**E * Zdual(Q/v)
    rhs = fk_z(strip)
    qpow = MultiPoly.monomial(1, (F - 1, 0, 0))
    return lhs == qpow * rhs


__all__ = [
    "MAX_EDGES",
    "MAX_SPIN_CONFIGS",
    "NtcSpectrum",
    "DualityWitness",
    "fk_histogram",
    "fk_spectrum",
    "fk_z",
    "dual_boundary_z",
    "spin_z",
    "fixed_boundary_spin_z",
    "duality_witnesses",
    "duality_witness_check",
]
