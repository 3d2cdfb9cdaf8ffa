"""Cluster transfer matrices on connectivity states, and their characters.

One column of a strip acts on a slice by its column program.  On a
connectivity state the two bond types act as

    vertical(i)   =  1 + v * J(i, i+1)     J: join the two blocks
    horizontal(i) =  v * 1 + D(i)          D: detach the point

where D pays a factor Q when it vacates an unmarked block (a finished
cluster), a factor 1 when the block keeps other points, and *drops* the
transition when it vacates a marked block -- that move lowers the mark
count and belongs to a different sector.  Likewise the join branch of a
vertical bond is dropped when it would fuse two marked blocks.  With those
rules the matrix T_l on the states with l marks is the diagonal sub-block
of the full transfer matrix in the l-bridge sector, and the character

    K(l) = trace(T_l ** N)

is an exact polynomial in Q and v.  Each bond's action is compiled once per
(width, marks, bond) into an index table, in one cache that characters,
``column_transfer`` and the block check share.  Compilation applies the bond
moves of ``connectivity`` to raw state keys, builds no state object, and
checks every target key against the enumerated basis of validated states,
so a target outside it raises.  One loop, ``_push``, pushes a start column
through a program of E bonds; K(l) pushes start states through N copies of
the column program and sums the diagonal entries they return to.  No matrix power is ever formed, no eigenvalues, no floats.

The width reflection P, point i -> L-1-i, maps the bonds of a square
column onto themselves, and bonds of one kind commute, so P commutes with
T_l and (T_l ** N)_ss = (T_l ** N)_{Ps,Ps}.  K(l) therefore pushes one
state per P-orbit and counts the diagonal entry of a pair twice; a column
program that P does not map onto itself, up to reordering within runs of
one bond kind, pushes every state.

``_push`` never multiplies polynomials.  Every branch weight is a sum of
distinct monomials from {1, v, Q} with coefficient 1, so after Kronecker
substitution, v -> 2**w and Q -> 2**(w*(E+1)), an entry is one Python int
and a bond is a few shifts and adds.  The substitution is exact when no
coefficient reaches 2**w.  At Q = v = 1 a state's branch weights add up to
at most 2 (``_compile`` checks both properties for every table), so after
k bonds every coefficient is at most 2**k, a trace over n states (the
weighted sum over orbits is that trace) is below n * 2**E, and
deg_Q + deg_v <= E fits the E + 1 slots per power of Q.  Hence
w = E + n.bit_length() + 1, rounded up to whole bytes, needs no first
pass.  Entries are unpacked to ``MultiPoly`` once, at the boundary,
in one pass over their bytes.

``verify_block_structure`` rebuilds the *full* transfer matrix on two-slice
states and checks the claimed structure directly: bridge count never
increases, states of fixed bridge count split by left profile into
n(L, l) groups of size n(L, l) with no transitions between groups, and
every group's sub-matrix equals T_l on the nose.  A two-slice state is an
unmarked state of 2L points, so the full matrix is the column program moved
onto the right slice and compiled through the same cached ``_bond_table``
of width 2L and no marks.  Both sides are pushed at one slot width and
compared as packed ints, which is exact because the packing is injective
under the bound ``_compile`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from operator import attrgetter
from typing import Callable, Sequence

from .connectivity import (
    ConnectivityState,
    DetachTag,
    StateKey,
    bridge_count,
    count_states,
    detach,
    enumerate_states,
    join,
    left_profile,
    reduced,
    render_two_slice,
    right_position,
)
from .lattice import HORIZONTAL, VERTICAL, CyclicStrip, EdgeOp
from .polynomial import ZERO, MultiPoly

Row = tuple[MultiPoly, ...]

# A branch weight is a sum of distinct monomials from {1, v, Q}, each with
# coefficient 1, coded as a bit mask over the three; small ints are shared
# objects, so a table holds no weight of its own.
_ONE, _V, _Q = 1, 2, 4
#: The number of monomials in each non-empty weight mask.
_MONOMIALS = {mask: mask.bit_count() for mask in range(1, 8)}

#: ``table[b]`` lists the (target index, weight mask) branches of one bond
#: on basis state b.
BondTable = tuple[tuple[tuple[int, int], ...], ...]

#: The bound of every cache in this module.  A width-6 strip compiles
#: (L+1)(2L-1) = 77 bond tables.
_CACHE_SIZE = 128

#: ``character_K`` predicts the cost of a sector with n states and E bonds
#: before building any state, from the packed size of one entry,
#: w * (E + 1)**2 bits, and refuses it when its column of n entries would
#: exceed MAX_COLUMN_BITS (32 MiB) ...
MAX_COLUMN_BITS = 1 << 28
#: ... or when n pushes through E bonds would shift and add more than
#: MAX_PUSH_BITS bits, n * E * (column bits).  That is about two minutes
#: of CPU at 4e10 bits/s (a 2-core VM, Python 3.11); 6x6 and 3x40 fit,
#: 7x4 and width 9 do not.
MAX_PUSH_BITS = 1 << 42
_CAPS = (
    f"the caps are {MAX_COLUMN_BITS} bits per column and {MAX_PUSH_BITS} bits "
    "pushed (use a smaller strip)"
)


@dataclass(frozen=True)
class TransferBlock:
    """An exact matrix over the canonical basis of connectivity states.

    ``rows[a][b]`` is the amplitude from basis state b to basis state a.
    """

    width: int
    marks: int
    basis: tuple[ConnectivityState, ...]
    rows: tuple[Row, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def entry(self, a: int, b: int) -> MultiPoly:
        return self.rows[a][b]


@lru_cache(maxsize=_CACHE_SIZE)
def _basis(width: int, marks: int) -> tuple[ConnectivityState, ...]:
    return tuple(enumerate_states(width, marks))


def _action(op: EdgeOp, key: StateKey) -> list[tuple[StateKey, int]]:
    """Sparse action of one bond on one raw state key (dropped transitions
    omitted), as (target key, weight mask) branches."""
    if op.kind == VERTICAL:
        joined = join(key, op.site)
        if joined is key:
            return [(key, _ONE | _V)]
        if len(joined[1]) < len(key[1]):
            return [(key, _ONE)]  # the join would fuse two marked blocks
        return [(key, _ONE), (joined, _V)]
    tag, detached = detach(key, op.site)
    if tag is DetachTag.TERMINATED_MARKED:
        return [(key, _V)]
    if tag is DetachTag.COMPLETED_UNMARKED:
        return [(key, _Q | _V)]
    return [(key, _V), (detached, _ONE)]


def _compile(keys: Sequence, action: Callable, op: EdgeOp) -> BondTable:
    """The bond ``op`` as an index table over the basis with raw ``keys``.

    Raises AssertionError unless every branch weight is a non-empty mask
    over {1, v, Q} and every state's weights add up to at most 2 at
    Q = v = 1: the packing in ``_push`` is exact only under that bound.
    Raises AssertionError too when a branch leaves the basis.  The keys are
    those of an enumerated basis of validated states, so membership carries
    every property the state constructor checks.  ``_bond_table`` is the
    one caller: characters, ``column_transfer`` and the two-slice block
    check all read its cached tables.
    """
    index = {key: k for k, key in enumerate(keys)}
    table = []
    for key in keys:
        branches = action(op, key)
        # a mask outside {1, v, Q} counts 3, over the bound on its own
        if sum([_MONOMIALS.get(weight, 3) for _, weight in branches]) > 2:
            raise AssertionError(f"{op} on {key} breaks the packing bound: {branches}")
        try:
            table.append(tuple([(index[target], weight) for target, weight in branches]))
        except KeyError as missing:
            raise AssertionError(f"{op} on {key} leaves the basis: {missing.args[0]}") from None
    return tuple(table)


@lru_cache(maxsize=_CACHE_SIZE)
def _bond_table(width: int, marks: int, op: EdgeOp) -> BondTable:
    return _compile([s.key for s in _basis(width, marks)], _action, op)


@lru_cache(maxsize=_CACHE_SIZE)
def _reflection_orbits(width: int, marks: int) -> tuple[tuple[int, int], ...]:
    """One (index, weight) per orbit of the width reflection P, point
    i -> width-1-i, on ``_basis(width, marks)``: the lower index of the
    orbit, with weight 1 for a state P fixes and 2 otherwise."""
    basis = _basis(width, marks)
    index = {s.key: k for k, s in enumerate(basis)}
    orbits = []
    for k, state in enumerate(basis):
        raw = sorted(
            (tuple(sorted(width - 1 - p for p in block)), i in state.marked)
            for i, block in enumerate(state.blocks)
        )
        marked = tuple(i for i, (_, m) in enumerate(raw) if m)
        image = index[tuple(b for b, _ in raw), marked]
        if k <= image:
            orbits.append((k, 1 if k == image else 2))
    return tuple(orbits)


def _reflection_invariant(program: Sequence[EdgeOp], width: int) -> bool:
    """True when the width reflection maps ``program`` onto itself up to
    reordering within maximal runs of one bond kind.  Bonds of one kind
    commute, so the column transfer then commutes with P."""

    def runs(ops):
        return [
            (kind, sorted(op.site for op in run))
            for kind, run in groupby(ops, attrgetter("kind"))
        ]

    top = {VERTICAL: width - 2, HORIZONTAL: width - 1}
    mirrored = (EdgeOp(op.kind, top[op.kind] - op.site) for op in program)
    return runs(program) == runs(mirrored)


def _column_program(strip: CyclicStrip, marks: int) -> tuple[BondTable, ...]:
    return tuple(_bond_table(strip.width, marks, op) for op in strip.column_program)


def _slot_width(bonds: int, states: int) -> int:
    """Bits per Kronecker slot for a program of ``bonds`` bonds whose
    entries, or whose trace over ``states`` start states, are unpacked."""
    return -(-(bonds + states.bit_length() + 1) // 8) * 8


@lru_cache(maxsize=_CACHE_SIZE)
def _shifts(w: int, bonds: int) -> tuple[tuple[int, ...], ...]:
    """The shifts of each weight mask's monomials, v -> 2**w and
    Q -> 2**(w * (bonds + 1)), indexed by mask."""
    slot = ((_ONE, 0), (_V, w), (_Q, w * (bonds + 1)))
    return tuple(tuple(s for mask, s in slot if code & mask) for code in range(8))


def _push(program: Sequence[BondTable], start: int, w: int) -> dict[int, int]:
    """Column ``start`` of the ordered product of ``program``'s bonds (first
    bond applied first), as a sparse {row: entry} map of packed entries,
    v -> 2**w and Q -> 2**(w * (len(program) + 1))."""
    shifts = _shifts(w, len(program))
    col = {start: 1}
    for table in program:
        out: dict[int, int] = {}
        get = out.get
        for k, c in col.items():
            for a, code in table[k]:
                for s in shifts[code]:
                    out[a] = get(a, 0) + (c << s)
        col = out
    return col


def _unpack(packed: int, w: int, bonds: int) -> MultiPoly:
    """The polynomial behind a packed entry of a ``bonds``-bond program with
    slot width ``w``, read in one pass over its bytes."""
    size = w // 8
    data = packed.to_bytes(-(-packed.bit_length() // 8), "little")
    terms = {}
    for i in range(0, len(data), size):
        c = int.from_bytes(data[i : i + size], "little")
        if c:
            dq, dv = divmod(i // size, bonds + 1)
            terms[(dq, dv, 0)] = c
    return MultiPoly(terms)


def _block(width: int, marks: int, program: Sequence[BondTable]) -> TransferBlock:
    """The product of ``program`` on the ``marks``-mark basis, with its
    non-zero entries unpacked; equal entries share one polynomial."""
    basis = _basis(width, marks)
    n = len(basis)
    w = _slot_width(len(program), n)
    cols = [_push(program, b, w) for b in range(n)]
    polys = {c: _unpack(c, w, len(program)) for c in {c for col in cols for c in col.values()}}
    rows = tuple(
        tuple(polys[cols[b][a]] if a in cols[b] else ZERO for b in range(n)) for a in range(n)
    )
    return TransferBlock(width, marks, basis, rows)


def edge_operator(width: int, marks: int, op: EdgeOp) -> TransferBlock:
    """The matrix of a single bond on the states with ``marks`` marks.

    >>> from .lattice import horizontal
    >>> blk = edge_operator(1, 0, horizontal(0))
    >>> print(blk.rows[0][0])
    Q + v
    """
    return _block(width, marks, (_bond_table(width, marks, op),))


@lru_cache(maxsize=_CACHE_SIZE)
def column_transfer(strip: CyclicStrip, marks: int) -> TransferBlock:
    """The ordered product of the column program's bond operators (first
    bond applied first) on the fixed-mark basis.

    For the square strip of width 3, the one-mark block is 9 x 9:

    >>> from .lattice import square_strip
    >>> column_transfer(square_strip(3, 2), 1).dimension
    9
    """
    if marks > strip.width:
        raise ValueError(f"cannot mark {marks} blocks on width {strip.width}")
    return _block(strip.width, marks, _column_program(strip, marks))


def check_character_budget(strip: CyclicStrip, marks: int) -> tuple[int, int, int]:
    """The cost of K(marks) on ``strip``, predicted without building a
    state: (states n, bonds E, slot width w).  Raises ValueError when the
    packed column or the bits pushed are above ``MAX_COLUMN_BITS`` or
    ``MAX_PUSH_BITS``; a strip whose bond count alone puts every non-empty
    sector over the column cap is refused before its states are counted.

    The bits pushed are counted for all n starts, although ``character_K``
    pushes only one per orbit of the width reflection: counting the
    states the reflection fixes without building them needs a formula
    this module does not have.  So the prediction errs on the safe side,
    by at most a factor of two.

    >>> from .lattice import square_strip
    >>> check_character_budget(square_strip(3, 10), 1)
    (9, 50, 56)
    """
    bonds = len(strip.column_program) * strip.length
    # one state at one byte per slot, the floor of every non-empty sector,
    # is tested before the state count, a binomial in the width; E is shown
    # as its two factors, so no product past the int-to-string limit is
    # formatted.  A sector with more marks than sites is empty and free.
    if marks <= strip.width and 8 * (bonds + 1) ** 2 > MAX_COLUMN_BITS:
        raise ValueError(
            f"K({marks}) of {strip} needs at least 8 * (E + 1)**2 bits per packed "
            f"column for its E = {len(strip.column_program)} x {strip.length} bonds; "
            + _CAPS
        )
    n = count_states(strip.width, marks)
    w = _slot_width(bonds, n)
    column_bits = n * w * (bonds + 1) ** 2
    if column_bits > MAX_COLUMN_BITS or n * bonds * column_bits > MAX_PUSH_BITS:
        raise ValueError(
            f"K({marks}) of {strip} needs {_shown(n)} states x {bonds} bonds of "
            f"packed columns of {_shown(column_bits)} bits; " + _CAPS
        )
    return n, bonds, w


def _shown(count: int) -> str:
    """``count`` in digits, or past 64 bits as the power of two it exceeds:
    a state count grows as 4**width, past any readable (or, beyond 4300
    digits, printable) length."""
    return str(count) if count.bit_length() <= 64 else f"over 2**{count.bit_length() - 1}"


@lru_cache(maxsize=_CACHE_SIZE)
def character_K(strip: CyclicStrip, marks: int) -> MultiPoly:
    """The character K(1, 2l+1) = trace(T_l ** N), an exact polynomial.

    Each start state is pushed through the E = N * |column program| bonds
    on its own, as one packed int per entry, so only one column of T_l ** N
    is held at a time; the diagonal ints, weighted by orbit size when the
    program is reflection-invariant, are summed and the sum is unpacked
    once.  Zero for l > L: a width-L slice cannot seed more than L wrapping
    clusters.  Results are cached, so every decomposition of a strip
    shares one computation of each K(l).

    Before any state is built, ``check_character_budget`` predicts the
    cost and refuses a sector beyond the caps with ValueError.

    >>> from .lattice import square_strip
    >>> print(character_K(square_strip(1, 3), 0))
    Q^3 + 3*Q^2*v + 3*Q*v^2 + v^3
    >>> print(character_K(square_strip(1, 3), 1))
    v^3
    """
    if marks < 0:
        raise ValueError("marks must be >= 0")
    if marks > strip.width:
        return MultiPoly.zero()
    n, bonds, w = check_character_budget(strip, marks)
    program = _column_program(strip, marks) * strip.length
    if _reflection_invariant(strip.column_program, strip.width):
        starts = _reflection_orbits(strip.width, marks)
    else:
        starts = [(b, 1) for b in range(n)]
    trace = sum(weight * _push(program, b, w).get(b, 0) for b, weight in starts)
    return _unpack(trace, w, bonds)


# ----------------------------------------------------------------------
# full-matrix verification


def _on_right_slice(op: EdgeOp, width: int) -> EdgeOp:
    """``op`` on the right slice of a two-slice key, right point k at point
    2L-1-k: the join of right points i, i+1 is the join at point 2L-2-i."""
    return EdgeOp(op.kind, right_position(width, op.site + (op.kind == VERTICAL)))


@dataclass(frozen=True)
class SectorReport:
    """Findings for one bridge sector of the full transfer matrix."""

    bridges: int
    group_count: int
    expected_groups: int
    group_sizes: tuple[int, ...]
    expected_size: int
    cross_group_zero: bool
    matches_reference: bool


@dataclass(frozen=True)
class BlockStructureReport:
    """Outcome of checking the full transfer matrix against its claimed
    decomposition into reference blocks."""

    width: int
    dimension: int
    triangular_ok: bool
    sectors: tuple[SectorReport, ...]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_block_structure(strip: CyclicStrip) -> BlockStructureReport:
    """Build the column transfer on the full two-slice basis and verify:

    * bridge count never increases across a non-zero entry;
    * for each l, the l-bridge states split by left profile into
      count_states(L, l) groups of count_states(L, l) states each;
    * entries between different groups of the same bridge count vanish;
    * each group's sub-matrix, rows and columns ordered by the canonical
      order of the reduced states, equals T_l, the column program's
      product on the l-mark states.

    The two-slice basis is ``_basis(2L, 0)``, the unmarked states of 2L
    points, and each bond, moved by ``_on_right_slice``, is the cached
    ``_bond_table`` of that basis.  Every column, two-slice or reference,
    is pushed at one slot width: both programs have the same E bonds and
    ``_compile`` bounds both, so equal polynomials pack to equal ints and
    the sub-matrices are compared as packed ints.  Only the two entries of
    a mismatch are unpacked, for its message.

    Kept to widths <= 4; the basis has Catalan(2L) states.
    """
    if strip.width > 4:
        raise ValueError("block-structure verification is capped at width 4")
    width = strip.width
    basis = [s.blocks for s in _basis(2 * width, 0)]
    n = len(basis)
    bonds = len(strip.column_program)
    w = _slot_width(bonds, n)
    program = [_bond_table(2 * width, 0, _on_right_slice(op, width)) for op in strip.column_program]
    cols = [_push(program, b, w) for b in range(n)]

    def move(b: int, a: int) -> str:
        return f"{render_two_slice(basis[b], width)} -> {render_two_slice(basis[a], width)}"

    bridges = [bridge_count(blocks, width) for blocks in basis]
    failures: list[str] = []

    triangular_ok = True
    for b, col in enumerate(cols):
        for a in col:
            if bridges[a] > bridges[b]:
                triangular_ok = False
                failures.append(
                    f"bridge count grows {bridges[b]} -> {bridges[a]} on {move(b, a)}"
                )

    # group the l-bridge states by left profile
    groups: dict[tuple, list[int]] = {}
    for k, blocks in enumerate(basis):
        groups.setdefault((bridges[k], left_profile(blocks, width)), []).append(k)
    group_of = [0] * n
    for gid, members in enumerate(groups.values()):
        for k in members:
            group_of[k] = gid

    sector_reports = []
    for l in range(width + 1):
        expected = count_states(width, l)
        sector_groups = sorted(
            (key, members) for key, members in groups.items() if key[0] == l
        )
        group_sizes = tuple(len(m) for _, m in sector_groups)
        cross_zero = True
        matches = True
        ref_program = _column_program(strip, l)
        reference = [_push(ref_program, b, w) for b in range(expected)]
        ref_index = {s.key: i for i, s in enumerate(_basis(width, l))}
        for _, members in sector_groups:
            for b in members:
                for a in cols[b]:
                    if bridges[a] == l and group_of[a] != group_of[b]:
                        cross_zero = False
                        failures.append(
                            f"leakage between sub-blocks at l={l}: {move(b, a)}"
                        )
            # order group members by their reduced state and compare
            order = [ref_index.get(reduced(basis[k], width)) for k in members]
            if None in order or sorted(order) != list(range(expected)):
                matches = False
                failures.append(
                    f"group at l={l} does not reduce onto the reference basis"
                )
                continue
            ordered = [k for _, k in sorted(zip(order, members))]
            for ref_col, b in zip(reference, ordered):
                col = cols[b]
                for aa, a in enumerate(ordered):
                    got, want = col.get(a, 0), ref_col.get(aa, 0)
                    if got != want:
                        matches = False
                        failures.append(
                            f"entry mismatch at l={l}, {move(b, a)}: "
                            f"{_unpack(got, w, bonds)} != {_unpack(want, w, bonds)}"
                        )
        sector_reports.append(
            SectorReport(
                bridges=l,
                group_count=len(sector_groups),
                expected_groups=expected,
                group_sizes=group_sizes,
                expected_size=expected,
                cross_group_zero=cross_zero,
                matches_reference=matches,
            )
        )
        if len(sector_groups) != expected:
            failures.append(
                f"sector l={l} has {len(sector_groups)} sub-blocks, expected {expected}"
            )
        if any(size != expected for size in group_sizes):
            failures.append(
                f"sector l={l} has sub-block sizes {group_sizes}, expected all {expected}"
            )

    return BlockStructureReport(
        width=strip.width,
        dimension=n,
        triangular_ok=triangular_ok,
        sectors=tuple(sector_reports),
        failures=tuple(failures),
    )
