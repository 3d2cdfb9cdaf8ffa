"""Exhaustive ground truth for everything the transfer matrices compute.

The cluster expansion of the Potts partition function on a graph G,

    Z = sum over bond subsets B of  Q**n(B) * v**|B|,

with n(B) the number of connected components, is evaluated here literally:
every one of the 2**E subsets is visited and classified by

    n -- number of clusters,
    b -- number of bonds,
    j -- number of clusters winding around the periodic direction
         (non-trivial clusters, NTC),

using a union-find whose nodes carry an integer column displacement: a bond
between two already-connected endpoints whose recorded displacements
disagree with the bond's displacement closes a cycle of non-zero winding,
so the cluster wraps.  The subsets are the leaves of a depth-first walk
that decides the edges in order, each excluded and then included, on one
union-find without path compression that every include undoes on the way
back; so the walk does about one union per subset, where classifying a
subset on its own takes one per bond.  Weights only depend on (n, b, j),
so the walk accumulates an integer histogram and the polynomials are
assembled at the end; all arithmetic is exact.

When the width reflection, row -> L-1-row, maps the first column's bonds
onto themselves, it is a symmetry of the whole strip, and a subset and its
mirror image have the same (n, b, j).  The walk then prunes one of each
pair of mirror-image first-column bond patterns and counts the subtree of
the other twice.  The reflection is read off the edge list itself.

On a strip of three or more columns every subset is still counted, but the
subtree below a column boundary is walked once per frontier signature.  The
edges from the boundary on touch only the live vertices, their endpoints,
so every find below it starts at a live vertex, and a step changes the key
through three things alone: whether two live vertices share a root, their
relative displacement when the root is not wrapped, and the roots' wrapped
flags.  A union below the boundary only sets a relative shift, so the same
three things decide every later step too.  The signature records exactly
these (roots by first appearance, displacements relative to the root's
first live vertex), so two visits with one signature see the same key
changes; the first walks the subtree and keeps its changes, and every
later one adds them to its own key.

Everything here is deliberately independent of the transfer-matrix route:
no connectivity states, no matrix products, just subsets of edges.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product
from typing import Iterator

from .lattice import VERTICAL, CyclicStrip, Edge, square_strip
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
    edges: tuple[Edge, ...],
    n_vertices: int,
    depth: int = 0,
    prefix: int = 0,
    mirror: tuple[tuple[int, int], ...] = (),
    period: int = 0,
) -> Histogram:
    """Classify the bond subsets that agree with ``prefix`` on the first
    ``depth`` edges (bit k of ``prefix`` set: edge k is in the subset).

    A depth-first walk decides the edges in order, excluded first, on one
    union-find that each include undoes on the way back.  The walk carries
    (n, b, j) packed in one int: joining two roots drops n by one, and j by
    one more if both were wrapped; a bond closing a cycle of non-zero
    winding in an unwrapped root raises j by one.  A leaf adds 1 to the
    count of its key.

    ``mirror`` lists the pairs (a, b), a < b, that a symmetry of the graph
    swaps among the edges up to the last b; it fixes the other edges up to
    there, may permute the later ones, and keeps every subset's (n, b, j).
    Of each pattern on those first edges and its mirror image only one is
    walked: at the first pair to be decided whose two edges differ, the
    earlier edge must be in.  The leaves below that pair go to a second
    block of counts, which is added twice at the end.

    With ``period`` p > 0, every multiple k of p from the end of the head
    edges to before the last edge is a column boundary.  There the walk
    reads the frontier signature of the live vertices (the endpoints of the
    edges from k on): each one's root in first-seen order, and its
    displacement from the first live vertex of that root, or None when the
    root is wrapped.  The key changes below k depend on nothing else (see
    the module docstring), so the subtree is walked once per signature and
    k, into a fresh list of counts sized to the changes it can make, and
    kept as (key change, count) pairs; every visit with that signature adds
    them to its own key.  The memo dies with the call.

    >>> counts = _subset_histogram(((0, 0, 1),), 1)
    >>> sorted(counts.items())
    [((1, 0, 0), 1), ((1, 1, 1), 1)]
    """
    n_edges = len(edges)
    parent = list(range(n_vertices))
    shift = [0] * n_vertices
    wrapped = [False] * n_vertices
    # key = n * n_step + b * b_step + j, with b <= E and j <= n <= V, plus
    # size for a leaf that also stands for its mirror image
    b_step = n_vertices + 1
    n_step = b_step * (n_edges + 1)
    size = n_step * b_step
    counts = [0] * (2 * size if mirror else size)
    # the head edges are fixed by the prefix or closed by a mirror pair
    closes = [-1] * n_edges
    head = depth
    for a, b in mirror:
        closes[b] = a
        head = max(head, b + 1)
    taken = [False] * head
    last = n_edges - 1
    # one lookup per node picks out the head edges and the column boundaries
    special = [k < head for k in range(n_edges)]
    live: dict[int, list[int]] = {}
    window: dict[int, tuple[int, int]] = {}
    for k in range(period, last, period) if period else ():
        if k >= head:
            special[k] = True
            live[k] = sorted({x for u, w, _ in edges[k:] for x in (u, w)})
            # below k, n drops by at most one per live vertex but the first
            # and per edge left, b rises by at most the edges left, and j
            # moves by at most V < b_step: every key change lies in
            # (-base, span - base)
            base = min(len(live[k]) - 1, n_edges - k) * n_step + b_step
            window[k] = base, base + (n_edges - k + 1) * b_step
    memo: dict[tuple[int | None, ...], list[tuple[int, int]]] = {}

    def frontier(k: int) -> tuple[int | None, ...]:
        first: dict[int, tuple[int, int]] = {}
        signature: list[int | None] = [k]
        for x in live[k]:
            dx = 0
            while parent[x] != x:
                dx += shift[x]
                x = parent[x]
            seen = first.get(x)
            if seen is None:
                seen = first[x] = len(first), dx
            # displacements stop mattering once a root is wrapped: None
            # stands for both
            signature += seen[0], None if wrapped[x] else dx - seen[1]
        return tuple(signature)

    # kept out of walk: its locals would enlarge every frame of walk, which
    # slowed walks without memo points by about a tenth
    def memoised(k: int, key: int) -> None:
        nonlocal counts
        signature = frontier(k)
        below = memo.get(signature)
        if below is None:
            base, span = window[k]
            outer, counts = counts, [0] * span
            # walk node k itself once, without looking it up again
            special[k] = False
            walk(k, base)
            special[k] = True
            below = memo[signature] = [
                (i - base, counts[i]) for i in compress(range(span), counts)
            ]
            counts = outer
        for delta, c in below:
            counts[key + delta] += c

    def walk(k: int, key: int) -> None:
        if special[k]:
            if k >= head:
                memoised(k, key)
                return
            taken[k] = False
            skip_key = key
            may_take = True
            a = closes[k]
            if a >= 0 and key < size:  # the pattern is its own mirror so far
                if taken[a]:
                    skip_key += size
                else:
                    may_take = False
            if k < depth:
                if prefix >> k & 1:
                    skip_key = -1
                else:
                    may_take = False
            if skip_key >= 0:
                if k == last:
                    counts[skip_key] += 1
                else:
                    walk(k + 1, skip_key)
            if not may_take:
                return
            taken[k] = True
        elif k == last:
            counts[key] += 1
        else:
            walk(k + 1, key)
        u, w, d = edges[k]
        x = u
        dx = 0
        while parent[x] != x:
            dx += shift[x]
            x = parent[x]
        y = w
        dy = 0
        while parent[y] != y:
            dy += shift[y]
            y = parent[y]
        wx = wrapped[x]
        key += b_step
        if x != y:
            key -= n_step
            if wx and wrapped[y]:
                key -= 1
        elif not wx and dy - dx != d:
            key += 1
        if k == last:
            counts[key] += 1
            return
        if x != y:
            parent[y] = x
            shift[y] = d + dx - dy
            wrapped[x] = wx or wrapped[y]
            walk(k + 1, key)
            parent[y] = y
        else:
            wrapped[x] = wx or dy - dx != d
            walk(k + 1, key)
        wrapped[x] = wx

    if n_edges:
        walk(0, n_vertices * n_step)
    else:
        counts[n_vertices * n_step] = 1
    if mirror:
        counts = [c + 2 * twice for c, twice in zip(counts, counts[size:])]
    return {
        (key // n_step, key % n_step // b_step, key % b_step): c
        for key, c in enumerate(counts)
        if c
    }


def _histogram_chunk(args) -> Histogram:
    return _subset_histogram(*args)


def _first_column_mirror(
    width: int, first: tuple[Edge, ...]
) -> tuple[tuple[int, int], ...]:
    """The pairs (a, b), a < b, of first-column edges ``first`` that the
    width reflection, row -> width-1-row in every column, swaps; () unless
    it maps them onto themselves, displacement-0 edges as unordered pairs
    and displacement-1 edges with their direction.

    Every column repeats the first one's program, so the reflection is
    then a symmetry of the whole strip that keeps each subset's (n, b, j).
    """
    slots: dict[Edge, list[int]] = {}
    for k, (u, w, d) in enumerate(first):
        slots.setdefault((u, w, d) if d or u < w else (w, u, d), []).append(k)
    pairs = []
    for k, (u, w, d) in enumerate(first):
        u += width - 1 - 2 * (u % width)
        w += width - 1 - 2 * (w % width)
        free = slots.get((u, w, d) if d or u < w else (w, u, d))
        if not free:
            return ()
        image = free.pop(0)
        if k < image:
            pairs.append((k, image))
    return tuple(pairs)


#: histograms kept, in order of last use; the least recently used is
#: evicted first.  ``verify --suite all --Lmax 3 --Nmax 4`` revisits 12 strips.
_HISTOGRAM_CACHE_SIZE = 16
_HISTOGRAM_CACHE: dict[CyclicStrip, Histogram] = {}

#: a walk over fewer subsets takes a few milliseconds; it runs whole, in
#: this process: on 2x1 to 4x1 the reflection's bookkeeping cost more than
#: it saved.
_SMALL_WALK = 1 << 12

#: a walk without column boundaries to memoise at (one or two columns)
#: runs in a process pool only from this many subsets on.  On two cores,
#: fresh process per run, medians of 8 alternating runs, serial -> two
#: workers: 2^18 (5x2) 0.085 -> 0.101 s, 2^19 (10x1) 0.174 -> 0.177 s,
#: 2^21 (11x1) 0.70 -> 0.47 s, 2^22 (6x2) 1.44 -> 0.85 s.
_POOL_WALK = 1 << 20

#: prefix jobs per pool worker, so that an uneven split of the subtrees
#: leaves no worker idle for long.
_JOBS_PER_WORKER = 4


def fk_histogram(strip: CyclicStrip, workers: int = 1) -> Histogram:
    """Counts of bond subsets per (clusters, bonds, winding clusters).

    From 2**12 subsets on, when the width reflection maps the strip onto
    itself, the walk covers one first-column bond pattern of each mirror
    pair and counts it twice; and on a strip of three or more columns it
    walks the subtree below each column boundary once per frontier
    signature.  That memoised walk runs in this process for any
    ``workers``.

    A strip of one or two columns has no boundary worth memoising at.  From
    2**20 subsets on, with workers > 1 (at most one per CPU), its walk is
    split by fixing the choices on the first d edges: the 2**d prefix jobs,
    a few per worker, run in separate processes and each walks the subsets
    below its prefix.  The merge is a plain sum per key, so the result is
    identical for every worker count.
    """
    cached = _HISTOGRAM_CACHE.pop(strip, None)
    if cached is not None:
        _HISTOGRAM_CACHE[strip] = cached
        return cached
    _check_edge_budget(strip)
    edges = strip.edges()
    workers = min(workers, os.cpu_count() or 1)
    mirror = ()
    depth = 0
    period = 0
    if 1 << strip.edge_count >= _SMALL_WALK:
        mirror = _first_column_mirror(strip.width, edges[: len(strip.column_program)])
        if strip.length >= 3:
            period = len(strip.column_program)
        elif workers > 1 and 1 << strip.edge_count >= _POOL_WALK:
            depth = min((_JOBS_PER_WORKER * workers - 1).bit_length(), strip.edge_count)
    jobs = [(edges, strip.vertex_count, depth, p, mirror, period) for p in range(1 << depth)]
    if depth:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_histogram_chunk, jobs))
    else:
        parts = list(map(_histogram_chunk, jobs))
    counts = parts[0]
    for part in parts[1:]:
        for key, c in part.items():
            counts[key] = counts.get(key, 0) + c
    _HISTOGRAM_CACHE[strip] = counts
    if len(_HISTOGRAM_CACHE) > _HISTOGRAM_CACHE_SIZE:
        del _HISTOGRAM_CACHE[next(iter(_HISTOGRAM_CACHE))]
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


def _spin_sum(strip: CyclicStrip, q: int, v: Fraction | int, pinned: set[int]) -> Fraction:
    """sum over q**(V - |pinned|) assignments of the unpinned sites, pinned
    sites held at spin 0, of (1 + v)**(number of bonds with equal ends)."""
    free = [x for x in range(strip.vertex_count) if x not in pinned]
    pairs = [(u, w) for u, w, _ in strip.edges()]
    spins = [0] * strip.vertex_count
    counts = [0] * (len(pairs) + 1)
    for assignment in product(range(q), repeat=len(free)):
        for x, s in zip(free, assignment):
            spins[x] = s
        counts[sum(spins[u] == spins[w] for u, w in pairs)] += 1
    one_plus_v = 1 + Fraction(v)
    return sum(c * one_plus_v ** k for k, c in enumerate(counts) if c)


def _check_spin_budget(q: int, sites: int) -> None:
    """Refuse q**sites spin configurations beyond MAX_SPIN_CONFIGS without
    building the power: each factor q >= 2 at least doubles the product."""
    configs = 1
    for _ in range(sites if q > 1 else 0):
        configs *= q
        if configs > MAX_SPIN_CONFIGS:
            raise ValueError(
                f"spin sum over {q}**{sites} configurations exceeds the "
                f"{MAX_SPIN_CONFIGS} budget"
            )


def spin_z(strip: CyclicStrip, q: int, v: Fraction | int) -> Fraction:
    """Potts partition function by explicit spin sum: sum over q**V spin
    assignments of the product over bonds of (1 + v * delta).

    An entirely independent second oracle: it never sees clusters at all.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    _check_spin_budget(q, strip.vertex_count)
    return _spin_sum(strip, q, v, set())


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
    _check_spin_budget(q, (width - 2) * length)
    strip = square_strip(width, length)
    pinned = {strip.vertex(row, t) for row in (0, width - 1) for t in range(length)}
    return _spin_sum(strip, q, v, pinned)


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

    Returns (dual edges, cap loops, number of dual vertices).  Dual edges are
    ordinary (u, w, column displacement) edges, those touching a cap with
    displacement 0.  The two cap loops (c, c, 1) come after them: a loop
    whose ends disagree by one column marks its cluster as winding, which
    is the convention for every dual cluster through a cap (a cluster
    through both caps still counts once).
    """
    _require_square(strip)
    L, N = strip.width, strip.length

    def face(r: int, t: int) -> int:
        return r + (L - 1) * (t % N)

    n_interior = (L - 1) * N
    bottom = n_interior
    top = n_interior + 1
    dual_edges: list[tuple[int, int, int]] = []
    for t in range(N):
        for op in strip.column_program:
            if op.kind == VERTICAL:
                # crossing a vertical bond: step between neighbouring columns
                dual_edges.append((face(op.site, t - 1), face(op.site, t), 1))
            else:
                r = op.site
                below = bottom if r == 0 else face(r - 1, t)
                above = top if r == L - 1 else face(r, t)
                dual_edges.append((below, above, 0))
    return tuple(dual_edges), ((bottom, bottom, 1), (top, top, 1)), n_interior + 2


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
    dual_edges, cap_loops, n_dual = _dual_graph(strip)
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


def _direct_stats(mask: int, edges, n_vertices: int) -> tuple[int, int, int]:
    """(clusters, bonds, winding clusters) of one bond subset."""
    parent = list(range(n_vertices))
    shift = [0] * n_vertices
    wrapped = [False] * n_vertices

    def find(x: int) -> tuple[int, int]:
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


def duality_witness_check(strip: CyclicStrip, workers: int = 1) -> bool:
    """True iff every configuration's weight identity holds *and* the
    aggregate identity Q**(1-F) * v**E * Zdual(Q/v) == Z(v) holds, checked
    with its denominators cleared, with Zdual the plain cluster expansion of
    the dual graph.  ``workers`` goes to the ``fk_z`` enumeration.
    """
    E = strip.edge_count
    F = strip.face_count
    aggregate: dict = {}
    for w in duality_witnesses(strip):
        if not w.ok:
            return False
        # Q**(1-F) v**E * Q**dn * (Q/v)**db, multiplied by Q**(F-1):
        db = w.dual_bonds
        key = (w.dual_ntc + w.dual_trivial + db, E - db, 0)
        aggregate[key] = aggregate.get(key, 0) + 1
    lhs = MultiPoly(aggregate)  # = Q**(F-1) * v**E * Zdual(Q/v)
    rhs = fk_z(strip, workers=workers)
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
