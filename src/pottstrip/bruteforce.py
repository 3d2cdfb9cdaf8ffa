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

The walk runs along the strip's longer side.  While the length N is at
most the width L plus one, it takes the edges row by row (each row's N
horizontal bonds, then its N vertical bonds to the next row), so only about
N to 2N vertices are live at a time; otherwise it takes them column by
column in program order, where about 2L are.  Every subset is counted, but
the subtree below a memo point -- every N edges in row order, every column
in column order -- is walked once per frontier signature.  The edges from
the point on touch only the live vertices, their endpoints, so every find
below it starts at a live vertex, and a step changes the key through three
things alone: whether two live vertices share a root, their relative
displacement when the root is not wrapped, and the roots' wrapped flags.
A union below the point only sets a relative shift, so the same three
things decide every later step too.  The signature records exactly these
(roots by first appearance, displacements relative to the root's first
live vertex), so two visits with one signature see the same key changes;
the first walks the subtree and keeps its changes, and every later one
adds them to its own key.  An edge's row is read off its vertex indices.

Planar duality is checked by the same walk, paired, over the bonds of a
square strip.  Dual edge k crosses bond k, so excluding the bond includes
the dual edge and the reverse: each step does one union, on the strip or on
its dual graph, and a leaf counts the configuration under the joint key of
both sides' (n, b, j).  Both sides share the union-find, the dual vertices
numbered after the strip's, and a direct vertex never joins a dual one, so
the signature over the live vertices of both sides decides the key changes
below a memo point as it does for one side.  The bonds go in the order the
FK walk takes them, each with its dual edge.  The per-configuration
identity is checked once per key, which covers every configuration in it.

The spin sums are one frontier sweep over the bonds in ``_order``'s order,
so one function decides which side of a strip every oracle sweeps.  Its
state maps the spins of the live sites, digits of a base-q key, to int
weights scaled by v's denominator, which is divided out at the end.  A
site enters at its first bond and is summed out after its last; pinned
sites hold spin 0, and an unpinned site with no bond is a factor q.  With
w the most sites live at once a sweep makes about q**(w + 1) * E weight
updates, on weights of up to E bond factors' bits; counting one step per
update and 2**13 bits, one check against ``MAX_SPIN_STEPS`` is the sweep's
one refusal: at a lower bound on w read off the column program before any
bond is listed, then at w before any state is built.

Everything here is deliberately independent of the transfer-matrix route:
no connectivity states, no matrix products, just subsets of edges and
spins of sites.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Iterator

from ._record import Record
from .lattice import VERTICAL, CyclicStrip, Edge, square_strip
from .polynomial import MultiPoly, Q0

#: subsets beyond 2**24 are refused; the point of this module is certainty,
#: not scale.
MAX_EDGES = 24

#: spin sweeps beyond 10**8 steps (weight updates, per 2**13 bits) are refused.
MAX_SPIN_STEPS = 10 ** 8

#: (clusters, bonds, winding clusters) of one configuration
Stats = tuple[int, int, int]
Histogram = dict[Stats, int]

#: one union of the walk: (u, w, displacement, n step, b step, j step), the
#: steps being what one cluster, bond and winding cluster of the edge's side
#: weigh in the packed key
Move = tuple[int, int, int, int, int, int]


def _check_edge_budget(strip: CyclicStrip) -> None:
    if strip.edge_count > MAX_EDGES:
        raise ValueError(f"{strip} has {strip.edge_count_text} edges; exhaustive enumeration "
                         f"is capped at {MAX_EDGES} (use a smaller strip)")


def _walk(
    moves: list[tuple[Move | None, Move]],
    wrapped: list[bool],
    period: int,
    key: int,
) -> dict[int, int]:
    """Counts per packed key of the leaves of a depth-first walk that
    decides the bonds in order, each by its first move and then its second,
    starting from ``key`` and singletons with the flags ``wrapped``, which
    the walk changes and restores.

    A move None changes nothing.  A move (u, w, d, n_step, b_step, j_step)
    joins u and w by an edge of displacement d on one union-find, which the
    walk undoes on the way back.  The key gains b_step; joining two roots
    takes n_step off it, and j_step more if both were wrapped; an edge
    closing a cycle of non-zero winding in an unwrapped root adds j_step.

    With ``period`` p > 0, every multiple k of p before the last bond is a
    memo point.  There the walk reads the frontier signature of the live
    vertices (the endpoints of the moves from k on): each one's root in
    first-seen order, and its displacement from the first live vertex of
    that root, or None when the root is wrapped.  The key changes below k
    depend on nothing else (see the module docstring), so the subtree is
    walked once per signature and k, from key 0, and its counts are kept;
    every visit with that signature adds them to its own key.  The memo
    dies with the call.
    """
    n_vertices = len(wrapped)
    parent = list(range(n_vertices))
    shift = [0] * n_vertices
    last = len(moves) - 1
    memo_point = [False] * len(moves)
    live: dict[int, list[int]] = {}
    for k in range(period, last, period) if period else ():
        memo_point[k] = True
        live[k] = sorted({x for pair in moves[k:] for m in pair if m for x in m[:2]})
    memo: dict[tuple[int | None, ...], list[tuple[int, int]]] = {}
    counts: dict[int, int] = defaultdict(int)

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

    def memoised(k: int, key: int) -> None:
        nonlocal counts
        signature = frontier(k)
        below = memo.get(signature)
        if below is None:
            outer, counts = counts, defaultdict(int)
            # walk node k itself once, without looking it up again
            memo_point[k] = False
            walk(k, 0)
            memo_point[k] = True
            below = memo[signature] = list(counts.items())
            counts = outer
        for delta, c in below:
            counts[key + delta] += c

    def walk(k: int, key: int) -> None:
        if memo_point[k]:
            memoised(k, key)
            return
        for move in moves[k]:
            if move is None:
                if k == last:
                    counts[key] += 1
                else:
                    walk(k + 1, key)
                continue
            u, w, d, n_step, b_step, j_step = move
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
            branch = key + b_step
            if x != y:
                branch -= n_step
                if wx and wrapped[y]:
                    branch -= j_step
            elif not wx and dy - dx != d:
                branch += j_step
            if k == last:
                counts[branch] += 1
                continue
            if x != y:
                parent[y] = x
                shift[y] = d + dx - dy
                wrapped[x] = wx or wrapped[y]
                walk(k + 1, branch)
                parent[y] = y
            else:
                wrapped[x] = wx or dy - dx != d
                walk(k + 1, branch)
            wrapped[x] = wx

    if moves:
        walk(0, key)
    else:
        counts[key] = 1
    return counts


def _subset_histogram(
    edges: tuple[Edge, ...], n_vertices: int, period: int = 0
) -> Histogram:
    """Counts per (n, b, j) of all bond subsets of ``edges``.

    ``_walk`` with the moves (nothing, the bond) per bond, its key holding
    n, b and j as three digits of base max(V, E) + 1, highest first.

    >>> counts = _subset_histogram(((0, 0, 1),), 1)
    >>> sorted(counts.items())
    [((1, 0, 0), 1), ((1, 1, 1), 1)]
    """
    base = max(n_vertices, len(edges)) + 1
    steps = (base * base, base, 1)
    moves = [(None, (u, w, d, *steps)) for u, w, d in edges]
    counts = _walk(moves, [False] * n_vertices, period, n_vertices * steps[0])
    return {tuple(key // s % base for s in steps): c for key, c in counts.items()}


def _paired_histogram(strip: CyclicStrip) -> dict[tuple[Stats, Stats], int]:
    """Counts per (direct (n, b, j), dual (n, b, j)) of all bond subsets of
    a square strip, each paired with its complementary dual configuration.

    ``_walk`` with the moves (dual edge k, bond k) per bond, in the order
    and with the memo period ``_order`` picks for the strip.  The dual
    vertices are numbered after the strip's, and the two cap loops are
    applied before the walk: the caps start wrapped.  The key holds the
    direct (n, b, j) and the dual (n, b, j) as six digits, highest first,
    of base max(V, E) + 1 with V the vertices of both sides.

    >>> paired = _paired_histogram(square_strip(1, 1))
    >>> sorted(paired.items())
    [(((1, 0, 0), (1, 1, 1)), 1), (((1, 1, 1), (2, 0, 2)), 1)]
    """
    _check_edge_budget(strip)
    dual_edges, cap_loops, n_dual = _dual_graph(strip)
    n_direct = strip.vertex_count
    edges = strip.edges()
    base = max(n_direct + n_dual, len(edges)) + 1
    steps = [base ** i for i in reversed(range(6))]
    wrapped = [False] * (n_direct + n_dual)
    for c, _, _ in cap_loops:  # a loop (c, c, 1) wraps its cap
        wrapped[n_direct + c] = True
    order, period = _order(strip)
    dual = [(n_direct + u, n_direct + w, d) for u, w, d in dual_edges]
    moves = [((*dual[k], *steps[3:]), (*edges[k], *steps[:3])) for k in order]
    start = n_direct * steps[0] + n_dual * steps[3] + len(cap_loops) * steps[5]
    out = {}
    for key, c in _walk(moves, wrapped, period, start).items():
        digits = tuple(key // s % base for s in steps)
        out[digits[:3], digits[3:]] = c
    return out


def _rows(strip: CyclicStrip) -> tuple[tuple[int, ...], int]:
    """The edge indices row by row, each row's horizontal bonds before its
    vertical ones (a vertical bond belongs to its lower row), in the order
    of ``strip.edges()`` within each run; and the memo period, the length.
    """
    width = strip.width
    edges = strip.edges()

    def run(k: int) -> tuple[int, bool]:
        a, b = edges[k][0] % width, edges[k][1] % width
        return min(a, b), a != b

    return tuple(sorted(range(len(edges)), key=run)), strip.length


def _columns(strip: CyclicStrip) -> tuple[tuple[int, ...], int]:
    """The edge indices column by column in program order, and the memo
    period, the length of the column program."""
    return tuple(range(strip.edge_count)), len(strip.column_program)


def _order(strip: CyclicStrip) -> tuple[tuple[int, ...], int]:
    """The edge indices of the walk and its memo period: rows while
    N <= max(L + 1, 2L - 2), else columns; a column frontier also keeps the
    first column until the seam."""
    order = _rows if strip.length <= max(strip.width + 1, 2 * strip.width - 2) else _columns
    return order(strip)


#: histograms kept, in order of last use; the least recently used is
#: evicted first.  ``verify --suite all --Lmax 3 --Nmax 4`` revisits 12 strips.
_HISTOGRAM_CACHE_SIZE = 16
_HISTOGRAM_CACHE: dict[CyclicStrip, Histogram] = {}


def fk_histogram(strip: CyclicStrip, _ignored: object = None, /) -> Histogram:
    """Counts of bond subsets per (clusters, bonds, winding clusters).

    One memoised walk in this process, in the order ``_order`` picks.  A
    second positional argument is accepted and ignored: perfbench's traced
    job still passes the worker count of the process pool this walk no
    longer needs.
    """
    cached = _HISTOGRAM_CACHE.pop(strip, None)
    if cached is not None:
        _HISTOGRAM_CACHE[strip] = cached
        return cached
    _check_edge_budget(strip)
    order, period = _order(strip)
    edges = strip.edges()
    ordered = tuple(edges[k] for k in order)
    counts = _subset_histogram(ordered, strip.vertex_count, period)
    _HISTOGRAM_CACHE[strip] = counts
    if len(_HISTOGRAM_CACHE) > _HISTOGRAM_CACHE_SIZE:
        del _HISTOGRAM_CACHE[next(iter(_HISTOGRAM_CACHE))]
    return counts


class NtcSpectrum(Record):
    """The cluster expansion refined by winding-cluster count.

    ``sectors[j]`` is the sum of Q**n v**b over bond subsets with exactly j
    winding clusters; the sectors add up to the full partition function.
    """

    __slots__ = ("width", "sectors")

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


def fk_spectrum(strip: CyclicStrip) -> NtcSpectrum:
    """Partition function split by number of winding clusters.

    >>> sectors = fk_spectrum(square_strip(1, 2))
    >>> print(sectors[0]); print(sectors[1])
    Q^2 + 2*Q*v
    Q*v^2
    """
    counts = fk_histogram(strip)
    sectors: list[dict] = [dict() for _ in range(strip.width + 1)]
    for (n, b, j), c in counts.items():
        key = (n, b, 0)
        sectors[j][key] = sectors[j].get(key, 0) + c
    return NtcSpectrum(strip.width, tuple(MultiPoly(s) for s in sectors))


def fk_z(strip: CyclicStrip) -> MultiPoly:
    """The full cluster-expansion partition function."""
    return fk_spectrum(strip).total()


def dual_boundary_z(strip: CyclicStrip) -> MultiPoly:
    """Cluster expansion where one winding cluster is weighted Q0 instead
    of Q: configurations with j >= 1 winding clusters get Q0 * Q**(n-1) *
    v**b, configurations with none keep Q**n * v**b.  That is
    Z_1 + Q0 * (Z - Z_1) / Q, the division checked term by term.

    >>> print(dual_boundary_z(square_strip(1, 2)))
    Q^2 + 2*Q*v + v^2*Q0
    """
    spectrum = fk_spectrum(strip)
    z1 = spectrum[0]
    return z1 + Q0 * (spectrum.total() - z1).quotient_by_monomial((1, 0, 0))


def _spin_sum(
    strip: CyclicStrip, q: int, v: Fraction | int, pinned_rows: tuple[int, ...] = ()
) -> Fraction:
    """The sum over the spins of the sites outside ``pinned_rows``, those in
    them held at 0, of the product over bonds of (1 + v * [equal ends])."""
    if type(q) is not int or type(v) not in (int, Fraction):
        raise TypeError(f"q must be an int and v an int or a Fraction, not {q!r} and {v!r}")
    if q < 1:
        raise ValueError("q must be a positive integer")
    n_edges, v = strip.edge_count, Fraction(v)
    one, same = v.denominator, v.denominator + v.numerator
    # a step per weight update and 2**13 bits of it; weights reach E factors' bits
    bits = max(abs(same), one).bit_length()
    steps = n_edges * (1 + n_edges * bits // 2 ** 13)

    def check(front: int, at_least: str) -> None:  # ``front``: the most sites live at once
        # for q >= 2 a power past the cap's bit length is past the cap, and never built
        if steps * q ** min(front + 1, MAX_SPIN_STEPS.bit_length()) > MAX_SPIN_STEPS:
            raise ValueError(f"the spin sweep of {strip} at q = {q} takes {at_least}{q}**{front + 1}"
                             f" * E * (1 + E * {bits} // 2**13) steps for its {strip.edge_count_text}"
                             f" bonds, over the spin budget of {MAX_SPIN_STEPS}")

    # w >= this: a vertical bond holds its unpinned ends live; a free row's
    # ring of N sites holds min(N, 3), its first bond's ends until a third enters
    check(max(((op.site not in pinned_rows) + (op.site + 1 not in pinned_rows) if op.kind == VERTICAL
               else (op.site not in pinned_rows) * (1 + (strip.length > 1) + (strip.length > 2))
               for op in strip.column_program), default=0), "at least ")
    if q == 1:  # every bond has equal ends
        return (1 + v) ** n_edges
    edges = strip.edges()
    ordered = [edges[k] for k in _order(strip)[0]]
    free = [x % strip.width not in pinned_rows for x in range(strip.vertex_count)]
    last = {x: i for i, bond in enumerate(ordered) for x in bond[:2] if free[x]}
    live: dict[int, int] = {}  # each live site's digit; digit -1 stands for a pinned 0
    spare, plan, widest = [], [], 0
    for i, (u, w, _) in enumerate(ordered):
        ends = {x for x in (u, w) if free[x]}
        enter = [x for x in ends if x not in live]
        for x in enter:
            live[x] = spare.pop() if spare else len(live)
        widest = max(widest, len(live))
        # the bond's digits are read before its leaving sites hand theirs on
        plan.append((live.get(u, -1), live.get(w, -1), [live[x] for x in enter],
                     [live.pop(x) for x in ends if last[x] == i]))
        spare += plan[-1][3]
    check(widest, "")
    power = [q ** j for j in range(widest + 1)]  # power[-1]: a digit no key reaches
    state = {0: 1}
    for u, w, enter, leave in plan:
        pu, pw = power[u], power[w]
        for j in enter:
            state = {key + s * power[j]: c for key, c in state.items() for s in range(q)}
        out: dict[int, int] = defaultdict(int)
        for key, c in state.items():
            c *= same if key // pu % q == key // pw % q else one
            for j in leave:
                key -= key // power[j] % q * power[j]
            out[key] += c
        state = out
    isolated = free.count(True) - len(last)  # unpinned sites with no bond
    return Fraction(sum(state.values()) * q ** isolated, one ** n_edges)


def spin_z(strip: CyclicStrip, q: int, v: Fraction | int) -> Fraction:
    """Potts partition function as a spin sum over q**V assignments of the
    product over bonds of (1 + v * delta), by the sweep of the module
    docstring.

    An entirely independent second oracle: it never sees clusters at all.
    """
    return _spin_sum(strip, q, v)


def fixed_boundary_spin_z(
    width: int, length: int, q: int, v: Fraction | int
) -> Fraction:
    """Spin sum for the strip with first and last rows frozen to spin 0.

    All bonds of the cyclic strip contribute, including the bonds inside
    each frozen row (each worth 1+v); only rows 1..width-2 are summed over,
    by the sweep.  Width 2 has no free rows at all and is excluded.
    """
    if width < 3:
        raise ValueError("fixed-boundary strips need width >= 3")
    return _spin_sum(square_strip(width, length), q, v, (0, width - 1))


# ----------------------------------------------------------------------
# planar duality


def _require_square(strip: CyclicStrip) -> None:
    if strip != square_strip(strip.width, strip.length):
        raise ValueError("dual construction is implemented for square strips only")


def _dual_graph(strip: CyclicStrip):
    """The planar dual of the annulus-embedded square strip.

    Interior faces form an (L-1) x N strip of dual vertices; the two annulus
    caps contribute one exterior dual vertex each.  Dual edge k crosses
    direct edge k (same index).

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


def duality_witness_check(strip: CyclicStrip) -> bool:
    """True iff every configuration's weight identity holds *and* the
    aggregate identity Q**(1-F) * v**E * Zdual(Q/v) == Z(v) holds, checked
    with its denominators cleared, with Zdual the plain cluster expansion of
    the dual graph.

    A bond subset with b bonds, j winding and t non-winding clusters is
    paired with the complementary dual configuration, with b~ bonds, j~
    winding and t~ non-winding clusters.  Its weight identity is

        Q**(1-F) * v**E * [Q**(j+1) * Q**t~ * vd**b~] == Q**j * Q**t * v**b

    with vd = Q/v the dual bond weight, F the faces and E the edges of the
    strip.  Both sides are monomials, so it holds iff j~ == j + 1 and the
    exponents of Q and v agree.

    The configurations come from the joint histogram of
    ``_paired_histogram``: each lands in exactly one (direct, dual) key, so
    checking the identity on every key checks every configuration, and the
    aggregate's left side sums the counts.

    >>> duality_witness_check(square_strip(2, 2))
    True
    """
    E = strip.edge_count
    F = strip.face_count
    aggregate: dict = {}
    for ((n, b, j), (dn, db, dwind)), count in _paired_histogram(strip).items():
        t = n - j
        dt = dn - dwind
        if not (
            dwind == j + 1
            and (1 - F) + (j + 1) + dt + db == j + t
            and E - db == b
        ):
            return False
        # Q**(1-F) v**E * Q**dn * (Q/v)**db, multiplied by Q**(F-1):
        key = (dn + db, E - db, 0)
        aggregate[key] = aggregate.get(key, 0) + count
    lhs = MultiPoly(aggregate)  # = Q**(F-1) * v**E * Zdual(Q/v)
    rhs = fk_z(strip)
    qpow = MultiPoly.monomial(1, (F - 1, 0, 0))
    return lhs == qpow * rhs

