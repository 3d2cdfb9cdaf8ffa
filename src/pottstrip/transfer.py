"""Cluster transfer matrices on connectivity states, and their characters.

One column of a strip acts on a slice by its column program.  On a
connectivity state the two bond types act as

    vertical(i)   =  1 + v * J(i, i+1)     J: join the two blocks
    horizontal(i) =  v * 1 + D(i)          D: detach the point

where D pays a factor Q when it vacates an unmarked block (a finished
cluster), a factor 1 when the block keeps other points, and *drops* the
transition when it vacates a marked block -- that move lowers the mark
count and belongs to a different sector.  Likewise the join branch of a
vertical bond is dropped when it would fuse two marked blocks.  Each move
says so itself by returning None, so a bond's action is one lookup in the
``_MOVES`` table.  With those rules the matrix T_l on the states with l
marks is the diagonal sub-block of the full transfer matrix in the
l-bridge sector, and the character

    K(l) = trace(T_l ** N)

is an exact polynomial in Q and v.  Each bond's action is compiled once per
(width, marks, bond) into an index table, in one cache that characters,
``column_transfer`` and the block check share.  Compilation applies the bond
moves of ``connectivity`` to the keys ``enumerate_states`` returns, indexed
once per (width, marks) in a cache that every ``TransferBlock`` takes its
basis from; it never reads a key's layout, and a target outside the basis
raises.  One loop, ``_push``, pushes a start column through a program of E
bonds; K(l) pushes start states through N copies of the column program and
sums the diagonal entries they return to; reading nothing else, from the
bond before the last column on it adds a branch only into a row that can
still reach the start, by masks ``_reach`` reads backward off the same bond
tables.  A dropped branch adds nothing to the start's entry, so the packed
trace is the same int.  No
matrix power is ever formed, no eigenvalues, no floats, and no state is
built before ``check_character_budget``, the engine's one refusal, passes.

The width reflection P, point i -> L-1-i, maps the bonds of a square
column onto themselves, and bonds of one kind commute, so P commutes with
T_l and (T_l ** N)_ss = (T_l ** N)_{Ps,Ps}.  K(l) therefore pushes one
state per P-orbit and counts the diagonal entry of a pair twice; a column
program that P does not map onto itself, up to reordering within runs of
one bond kind, pushes every state.

``_push`` never multiplies polynomials: an entry is one Python int, each
monomial in its slot of the packed layout ``_Layout`` states, and a bond is
a few shifts and adds.  Entries are unpacked to ``MultiPoly`` once, at the
boundary, in one pass over their bytes.

``verify_block_structure`` checks the claimed block structure of the *full*
transfer matrix on two-slice states bond by bond, through the same cached
``_bond_table`` at width 2L and no marks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Sequence

from ._record import Record
from .connectivity import (
    StateKey,
    count_states,
    detach,
    enumerate_states,
    join,
    mirror,
    render_two_slice,
    right_position,
    split_two_slice,
)
from .lattice import HORIZONTAL, VERTICAL, CyclicStrip, EdgeOp
from .polynomial import ZERO, MultiPoly

# A branch weight is a sum of distinct monomials from {1, v, Q}, each with
# coefficient 1, coded as a bit mask over the three; small ints are shared
# objects, so a table holds no weight of its own.
_ONE, _V, _Q = 1, 2, 4


class _Layout:
    """The packed slot layout, stated once.  ``MONOMIALS`` gives each weight
    bit's monomial (deg_Q, deg_v).  An entry of an E-bond program is one int
    of ``slots(E)`` slots of w bits, Q^a v^b in slot ``slot(a, b, E)`` and
    back by ``monomial``: v -> 2**w, Q -> 2**(w * (E + 1)).  A bit's monomial
    has degree <= 1, so deg_Q + deg_v <= E.  ``_compile`` keeps a state's
    weights at Q = v = 1 to at most 2, so after k bonds a coefficient is at
    most 2**k, and a trace over n states (or its sum over orbits) is below
    n * 2**E < 2**w for ``_slot_width``'s w = E + n.bit_length() + 1.
    """

    MONOMIALS = {_ONE: (0, 0), _V: (0, 1), _Q: (1, 0)}
    slot = staticmethod(lambda deg_q, deg_v, bonds: deg_q * (bonds + 1) + deg_v)
    monomial = staticmethod(lambda slot, bonds: divmod(slot, bonds + 1))
    slots = staticmethod(lambda bonds: (bonds + 1) ** 2)
    #: ``slots(E)`` as the budget refusal prints it, since E may be too
    #: long to print as a number.
    SLOTS_TEXT = "(E + 1)**2"


#: ``table[b]`` lists the (target index, weight mask) branches of one bond
#: on basis state b.
BondTable = tuple[tuple[tuple[int, int], ...], ...]

#: The bound of every cache here.  ``characters --l all`` compiles (L+1)(2L-1) bond tables,
#: 135 at width 8, past it: harmless, as one sector's 2L-1 fit and none is read once done.
_CACHE_SIZE = 128

#: ``character_K`` predicts the cost of a sector with n states and E bonds
#: before building any state, from the packed size of one entry, w bits per
#: slot of ``_Layout``, and refuses it when its column of n entries would
#: exceed MAX_COLUMN_BITS (32 MiB) ...
MAX_COLUMN_BITS = 1 << 28
#: ... or when n pushes through E bonds would shift and add more than
#: MAX_PUSH_BITS bits, n * E * (column bits).  That is about two minutes
#: of CPU at 4e10 bits/s (a 2-core VM, Python 3.11); 6x6 and 3x40 fit,
#: 7x4 and width 9 do not.
MAX_PUSH_BITS = 1 << 42


class TransferBlock(Record):
    """An exact matrix over the canonical basis of connectivity states.

    ``basis`` holds the states' keys, in the order of ``enumerate_states``;
    ``rows[a][b]`` is the amplitude from basis state b to basis state a.
    """

    __slots__ = ("width", "marks", "basis", "rows")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def entry(self, a: int, b: int) -> MultiPoly:
        return self.rows[a][b]


#: Each bond kind as (move, weight kept, weight moved, weight when the move
#: returns the key itself): vertical = 1 + v J, horizontal = v + D, where a
#: detach that returns the key vacates a finished cluster, worth Q.
_MOVES = {VERTICAL: (join, _ONE, _V, _ONE | _V), HORIZONTAL: (detach, _V, _ONE, _Q | _V)}


def _compile(index: dict, op: EdgeOp) -> BondTable:
    """The bond ``op`` as an index table over the basis whose keys ``index``
    maps to their places, in basis order: per state, the move of the bond's
    kind in ``_MOVES`` and its weights; a move that leaves the sector (None)
    keeps only the unmoved branch.

    Raises AssertionError unless every weight is a non-empty mask over the
    bits of ``_Layout.MONOMIALS`` and a state's weights add up to at most 2
    at Q = v = 1: the packing is exact only under that bound.  Raises
    AssertionError too when a move leaves the basis.  The keys are those of
    an enumerated basis, each a state the constructor accepts, so
    membership carries every property the constructor checks.
    """
    move, kept, moved, unchanged = _MOVES[op.kind]
    known = sum(_Layout.MONOMIALS)
    # an empty mask or one off the layout's bits counts 3, over the bound on its own
    terms = [m.bit_count() if m and not m & ~known else 3 for m in (kept, moved, unchanged)]
    if max(terms[0] + terms[1], terms[2]) > 2:
        raise AssertionError(f"{op} breaks the packing bound: {_MOVES[op.kind]}")
    table = []
    for k, key in enumerate(index):
        target = move(key, op.site)
        if target is key:
            table.append(((k, unchanged),))
        elif target is None:
            table.append(((k, kept),))
        else:
            try:
                table.append(((k, kept), (index[target], moved)))
            except KeyError:
                raise AssertionError(f"{op} on {key} leaves the basis: {target}") from None
    return tuple(table)


@lru_cache(maxsize=_CACHE_SIZE)  # re-read by every bond table, character and column block
def _index(width: int, marks: int) -> dict[StateKey, int]:
    """Each key of ``enumerate_states(width, marks)`` mapped to its index."""
    return {key: k for k, key in enumerate(enumerate_states(width, marks))}


@lru_cache(maxsize=_CACHE_SIZE)  # re-read by every character, column block and block check
def _bond_table(width: int, marks: int, op: EdgeOp) -> BondTable:
    return _compile(_index(width, marks), op)


def _reach(width: int, marks: int, program: tuple[EdgeOp, ...]) -> tuple[tuple[int, ...], ...]:
    """Masks for each bond j of the column ``program`` and after its last
    bond: ``reach[j][a]`` is the bit mask of the rows that bonds j.. carry
    basis state a to, read backward off ``_bond_table``, where a row reaches
    what its one or two targets do; after the last bond a row reaches only
    itself.  Built per character and freed with it, not cached."""
    after = tuple(1 << a for a in range(len(_index(width, marks))))
    reach = [after]
    for op in reversed(program):
        after = tuple(after[r[0][0]] | after[r[-1][0]] for r in _bond_table(width, marks, op))
        reach.append(after)
    return tuple(reversed(reach))


def _reflection_orbits(width: int, marks: int) -> tuple[tuple[int, int], ...]:
    """One (index, weight) per orbit of the width reflection P, point
    i -> width-1-i, on the basis ``_index(width, marks)``: the lower index
    of the orbit, weight 1 if P fixes it, else 2.  Built per character, not cached."""
    index = _index(width, marks)
    images = [index[mirror(key)] for key in index]
    return tuple((k, 1 if k == image else 2) for k, image in enumerate(images) if k <= image)


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


@lru_cache(maxsize=_CACHE_SIZE)  # re-read by every push
def _shifts(w: int, bonds: int) -> tuple[tuple[int, ...], ...]:
    """The shifts of each weight mask's monomials in a ``bonds``-bond
    program with slot width ``w``, indexed by mask."""
    shift = [(bit, w * _Layout.slot(*mono, bonds)) for bit, mono in _Layout.MONOMIALS.items()]
    return tuple(tuple(s for bit, s in shift if code & bit) for code in range(8))


def _push(program: Sequence[BondTable], start: int, w: int, reach: tuple = ()) -> dict[int, int]:
    """Column ``start`` of the ordered product of ``program``'s bonds (first
    bond applied first), as a sparse {row: entry} map of entries packed as
    ``_Layout`` states for a ``len(program)``-bond program with slot width
    ``w``.  Given a last column's ``_reach`` masks, each bond from the one
    before that column on adds a branch only into a row whose mask for the
    next bond holds the start, so only the start's entry stays exact."""
    shifts = _shifts(w, len(program))
    # each bond's masks of its targets; all ones before the filter starts
    every_row = (-1,) * len(program[0]) if program else ()
    masks = ((every_row,) * len(program) + reach)[-len(program):]
    bit = 1 << start
    col = {start: 1}
    for table, after in zip(program, masks):
        out: dict[int, int] = {}
        get = out.get
        for k, c in col.items():
            for a, code in table[k]:
                if after[a] & bit:
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
            terms[(*_Layout.monomial(i // size, bonds), 0)] = c
    return MultiPoly(terms)


def edge_operator(width: int, marks: int, op: EdgeOp) -> TransferBlock:
    """The matrix of a single bond on the states with ``marks`` marks: the
    ``column_transfer`` of the one-bond strip ``CyclicStrip(width, 1, (op,))``,
    which raises ValueError for a bond that does not fit the width.

    >>> from .lattice import horizontal
    >>> blk = edge_operator(1, 0, horizontal(0))
    >>> print(blk.rows[0][0])
    Q + v
    """
    return column_transfer(CyclicStrip(width, 1, (op,)), marks)


@lru_cache(maxsize=_CACHE_SIZE)  # re-read by edge_operator, repeat calls and perfbench's miss count
def column_transfer(strip: CyclicStrip, marks: int) -> TransferBlock:
    """The ordered product of the column program's bond operators (first
    bond applied first) on the fixed-mark basis, pushed column by column;
    each distinct non-zero entry is unpacked once and shared.  One column
    first passes ``check_character_budget``, and n x n entries, a 64-bit
    reference each, must fit ``MAX_COLUMN_BITS``.

    For the square strip of width 3, the one-mark block is 9 x 9:

    >>> from .lattice import square_strip
    >>> column_transfer(square_strip(3, 2), 1).dimension
    9
    """
    if marks > strip.width:
        raise ValueError(f"cannot mark {marks} blocks on width {strip.width}")
    n, _, w = check_character_budget(CyclicStrip(strip.width, 1, strip.column_program), marks)
    if n * n > MAX_COLUMN_BITS // 64:  # n <= 2048: width 8 but at 1-3 marks
        raise ValueError(f"the column block of {strip} on {marks} marks has {n} x {n} entries; "
                         f"the cap is {MAX_COLUMN_BITS // 64} (use a smaller strip)")
    program = _column_program(strip, marks)
    basis = tuple(_index(strip.width, marks))
    cols = [_push(program, b, w) for b in range(n)]
    polys = {c: _unpack(c, w, len(program)) for c in {c for col in cols for c in col.values()}}
    rows = tuple(
        tuple(polys[cols[b][a]] if a in cols[b] else ZERO for b in range(n)) for a in range(n)
    )
    return TransferBlock(strip.width, marks, basis, rows)


def check_character_budget(strip: CyclicStrip, marks: int) -> tuple[int, int, int]:
    """The cost of K(marks) on ``strip``, predicted without building a
    state: (states n, bonds E, slot width w).  The engine's one refusal,
    which every route into it takes, raises ValueError once when the packed
    column or the bits pushed are above ``MAX_COLUMN_BITS`` or
    ``MAX_PUSH_BITS``; a strip whose bond count alone puts every non-empty
    sector over the column cap is refused before its states are counted.

    The bits pushed are an upper bound, not an estimate.  They count all n
    starts, although ``character_K`` pushes only one per orbit of the width
    reflection (counting the states the reflection fixes without building
    them needs a formula this module does not have).  They count a full
    column, n rows of ``_Layout.slots(E)`` slots, at every bond, though a
    column pushed from one start fills in row by row and degree by degree,
    and from the bond before the last column on only branches into rows
    whose next ``_reach`` mask holds the start are added.  For l = 1 the
    prediction is 11 times the bits pushed on 3x10, 31 times on 4x4, 74
    times on 5x3 and 643 times on 6x2.

    >>> from .lattice import square_strip
    >>> check_character_budget(square_strip(3, 10), 1)
    (9, 50, 56)
    """
    bonds = strip.edge_count
    # the floor of every non-empty sector, one state at a byte per slot, comes before the
    # state count, a binomial in the width; a sector with more marks than sites is free.
    if marks <= strip.width and 8 * _Layout.slots(bonds) > MAX_COLUMN_BITS:
        needs = (f"at least 8 * {_Layout.SLOTS_TEXT} bits per packed column for its "
                 f"{strip.edge_count_text} bonds")
    else:
        n = count_states(strip.width, marks)
        w = _slot_width(bonds, n)
        column_bits = n * w * _Layout.slots(bonds)
        if column_bits <= MAX_COLUMN_BITS and n * bonds * column_bits <= MAX_PUSH_BITS:
            return n, bonds, w
        needs = (f"{_shown(n)} states x {bonds} bonds of packed columns of "
                 f"{_shown(column_bits)} bits")
    raise ValueError(
        f"K({marks}) of {strip} needs {needs}; the caps are {MAX_COLUMN_BITS} bits per column "
        f"and {MAX_PUSH_BITS} bits pushed (use a smaller strip)"
    )


def _shown(count: int) -> str:
    """``count`` in digits, or past 64 bits as the power of two it exceeds:
    a state count grows as 4**width, past any readable (or, beyond 4300
    digits, printable) length."""
    return str(count) if count.bit_length() <= 64 else f"over 2**{count.bit_length() - 1}"


@lru_cache(maxsize=_CACHE_SIZE)  # re-read by every decomposition of the strip
def character_K(strip: CyclicStrip, marks: int) -> MultiPoly:
    """The character K(1, 2l+1) = trace(T_l ** N), an exact polynomial.

    Each start state is pushed through the E = N * |column program| bonds
    on its own, as one packed int per entry, so only one column of T_l ** N
    is held at a time, and from the bond before its last column on a
    branch goes only into a row that can still return to the start
    (``_reach``); the diagonal ints, weighted by orbit size when the program
    is reflection-invariant, are summed and the sum is unpacked once.  Zero
    for l > L: a width-L slice cannot seed more than L wrapping clusters.
    Results are cached, so every decomposition of a strip shares one K(l);
    its reach masks and reflection orbits are built per call and freed.

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
    reach = _reach(strip.width, marks, strip.column_program)
    if _reflection_invariant(strip.column_program, strip.width):
        starts = _reflection_orbits(strip.width, marks)
    else:
        starts = [(b, 1) for b in range(n)]
    trace = sum(weight * _push(program, b, w, reach).get(b, 0) for b, weight in starts)
    return _unpack(trace, w, bonds)


def characters_of(strip: CyclicStrip, marks: Iterable[int]) -> dict[int, MultiPoly]:
    """K(m) for each distinct m of ``marks``, keyed by m in increasing order.
    Every m passes ``check_character_budget`` before any K(m) is computed, so
    one sector over the caps refuses the request before a state is built."""
    distinct = sorted(set(marks))
    for m in distinct:
        check_character_budget(strip, m)
    return {m: character_K(strip, m) for m in distinct}


# ----------------------------------------------------------------------
# full-matrix verification


def _on_right_slice(op: EdgeOp, width: int) -> EdgeOp:
    """``op`` on the right slice of a two-slice key, right point k at point
    2L-1-k: the join of right points i, i+1 is the join at point 2L-2-i."""
    return EdgeOp(op.kind, right_position(width, op.site + (op.kind == VERTICAL)))


def _weight(code: int) -> MultiPoly:
    """The polynomial of a weight mask, 0 for the empty mask."""
    return MultiPoly({(*mono, 0): 1 for bit, mono in _Layout.MONOMIALS.items() if code & bit})


class SectorReport(Record):
    """Findings for one bridge sector of the full transfer matrix."""

    __slots__ = (
        "bridges", "group_count", "expected_groups", "group_sizes",
        "expected_size", "cross_group_zero", "matches_reference",
    )


class BlockStructureReport(Record):
    """Outcome of checking the full transfer matrix against its claimed
    decomposition into reference blocks."""

    __slots__ = ("width", "dimension", "triangular_ok", "sectors", "failures")

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_block_structure(strip: CyclicStrip) -> BlockStructureReport:
    """Check the column transfer on the full two-slice basis, bond by bond.

    Each two-slice key is split once, by ``split_two_slice``, into its left
    and right halves, slice states with l marks for its l bridges: its group
    is the index of its left half in the l-mark basis, its place that of its
    right half.  The check finds

    * for each l, count_states(L, l) groups of count_states(L, l) states
      each;
    * no branch of a bond raises the bridge count or leads to another
      group of the same bridge count;
    * inside a group, a bond's branches, each state at its place, are its
      branches on the l-mark states, weight for weight.

    These give the claimed structure of the column product.  Bridge counts
    never rise, so a path of branches that ends at its starting bridge
    count keeps it at every step, and so stays in its group; each group
    block of the product is then the product of the sector tables, which
    is T_l.  The weights are positive monomials, so nothing cancels: the
    product's non-zero entries are the ends of such paths.  A mismatch
    names its bond and both weights; a sector with a half missing from the
    l-mark basis is reported and not compared.

    The two-slice basis is ``_index(2L, 0)``, each bond moved by
    ``_on_right_slice`` is its cached ``_bond_table``, and each state and
    each row is read once.  Kept to widths <= 5 (Catalan(2L) states).
    """
    if strip.width > 5:
        raise ValueError("block-structure verification is capped at width 5")
    width = strip.width
    basis = list(_index(2 * width, 0))
    sizes = [count_states(width, l) for l in range(width + 1)]
    places = [_index(width, l) for l in range(width + 1)]

    failures: list[str] = []
    triangular_ok = True
    cross_zero = [True] * (width + 1)
    reduces = [True] * (width + 1)  # sectors whose every half is in the l-mark basis
    # each key's bridge count, group and place, and the state at[l][group][place]
    bridges, group, place = [], [], []
    at: list[dict[int, dict[int, int]]] = [{} for _ in sizes]
    for k, key in enumerate(basis):
        left, right = split_two_slice(key, width)
        l = left[-1].bit_count()
        g, p = places[l].get(left), places[l].get(right)
        bridges.append(l)
        group.append(g)
        place.append(p)
        if g is not None and p is not None:
            at[l].setdefault(g, {})[p] = k
        elif reduces[l]:
            reduces[l] = False
            failures.append(f"group at l={l} does not reduce onto the reference basis")
    matches = reduces.copy()

    def move(b: int, a: int) -> str:
        return f"{render_two_slice(basis[b], width)} -> {render_two_slice(basis[a], width)}"

    for op in strip.column_program:
        sector = [[dict(row) for row in _bond_table(width, l, op)] for l in range(width + 1)]
        for b, branches in enumerate(_bond_table(2 * width, 0, _on_right_slice(op, width))):
            l, g = bridges[b], group[b]
            got = {}
            for a, code in branches:
                if bridges[a] > l:
                    triangular_ok = False
                    failures.append(f"bridge count grows {l} -> {bridges[a]} on {move(b, a)}")
                elif bridges[a] == l and group[a] != g:
                    cross_zero[l] = False
                    failures.append(f"leakage between sub-blocks at l={l}: {move(b, a)}")
                elif bridges[a] == l:
                    got[place[a]] = code
            want = sector[l][place[b]] if reduces[l] else got
            if got != want:
                matches[l] = False
                for p in sorted(got.keys() | want.keys()):
                    if got.get(p, 0) != want.get(p, 0):
                        failures.append(
                            f"entry mismatch at l={l}, {op} on {move(b, at[l][g][p])}: "
                            f"{_weight(got.get(p, 0))} != {_weight(want.get(p, 0))}"
                        )

    sector_reports = []
    for l, expected in enumerate(sizes):
        group_sizes = tuple(len(states) for _, states in sorted(at[l].items()))
        sector_reports.append(
            SectorReport(
                bridges=l,
                group_count=len(group_sizes),
                expected_groups=expected,
                group_sizes=group_sizes,
                expected_size=expected,
                cross_group_zero=cross_zero[l],
                matches_reference=matches[l],
            )
        )
        if len(group_sizes) != expected:
            failures.append(f"sector l={l} has {len(group_sizes)} sub-blocks, expected {expected}")
        if any(size != expected for size in group_sizes):
            failures.append(
                f"sector l={l} has sub-block sizes {group_sizes}, expected all {expected}"
            )

    return BlockStructureReport(
        width=strip.width,
        dimension=len(basis),
        triangular_ok=triangular_ok,
        sectors=tuple(sector_reports),
        failures=tuple(failures),
    )
