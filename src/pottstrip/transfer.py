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
(width, marks, bond) into an index table, and K(l) pushes every basis state
through N copies of the column program, one start column at a time, and
sums the diagonal entries it returns to; no matrix power is ever formed, no
eigenvalues, no floats.

``verify_block_structure`` rebuilds the *full* transfer matrix on two-slice
states and checks the claimed structure directly: bridge count never
increases, states of fixed bridge count split by left profile into
n(L, l) groups of size n(L, l) with no transitions between groups, and
every group's sub-matrix equals T_l on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .connectivity import (
    ConnectivityState,
    DetachTag,
    TwoSliceState,
    count_states,
    enumerate_states,
    enumerate_two_slice,
)
from .lattice import VERTICAL, CyclicStrip, EdgeOp
from .polynomial import ONE, ZERO, MultiPoly, Q, v

Row = tuple[MultiPoly, ...]

#: ``table[b]`` lists the (target index, weight) branches of one bond on
#: basis state b.
BondTable = tuple[tuple[tuple[int, MultiPoly], ...], ...]

#: The bound of every cache in this module.  A width-6 strip compiles
#: (L+1)(2L-1) = 77 bond tables.
_CACHE_SIZE = 128

# Bond weights are shared objects, so ``_push`` can tell a unit weight by
# identity and add instead of multiplying.
_ONE_PLUS_V = ONE + v
_Q_PLUS_V = Q + v


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


def _action(op: EdgeOp, state: ConnectivityState) -> list[tuple[ConnectivityState, MultiPoly]]:
    """Sparse action of one bond on one state (dropped transitions omitted)."""
    if op.kind == VERTICAL:
        i = op.site
        bi = state.block_index_of(i)
        bj = state.block_index_of(i + 1)
        if bi == bj:
            return [(state, _ONE_PLUS_V)]
        if state.is_marked(bi) and state.is_marked(bj):
            return [(state, ONE)]
        return [(state, ONE), (state.join(i, i + 1), v)]
    outcome = state.detach(op.site)
    if outcome.tag is DetachTag.TERMINATED_MARKED:
        return [(state, v)]
    if outcome.tag is DetachTag.COMPLETED_UNMARKED:
        return [(state, _Q_PLUS_V)]
    return [(state, v), (outcome.state, ONE)]


def _compile(basis: Sequence, action: Callable, op: EdgeOp) -> BondTable:
    """The bond ``op`` as an index table over ``basis``."""
    index = {s: k for k, s in enumerate(basis)}
    return tuple(
        tuple((index[target], weight) for target, weight in action(op, state))
        for state in basis
    )


@lru_cache(maxsize=_CACHE_SIZE)
def _bond_table(width: int, marks: int, op: EdgeOp) -> BondTable:
    return _compile(_basis(width, marks), _action, op)


def _column_program(strip: CyclicStrip, marks: int) -> tuple[BondTable, ...]:
    return tuple(_bond_table(strip.width, marks, op) for op in strip.column_program)


def _push(program: Sequence[BondTable], start: int) -> dict[int, MultiPoly]:
    """Column ``start`` of the ordered product of ``program``'s bonds (first
    bond applied first), as a sparse {row: entry} map."""
    col = {start: ONE}
    for table in program:
        out: dict[int, MultiPoly] = {}
        for k, coeff in col.items():
            for a, weight in table[k]:
                term = coeff if weight is ONE else coeff * weight
                prev = out.get(a)
                out[a] = term if prev is None else prev + term
        col = out
    return col


def _block(width: int, marks: int, program: Sequence[BondTable]) -> TransferBlock:
    basis = _basis(width, marks)
    n = len(basis)
    cols = [_push(program, b) for b in range(n)]
    rows = tuple(tuple(cols[b].get(a, ZERO) for b in range(n)) for a in range(n))
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


@lru_cache(maxsize=_CACHE_SIZE)
def character_K(strip: CyclicStrip, marks: int) -> MultiPoly:
    """The character K(1, 2l+1) = trace(T_l ** N), an exact polynomial.

    Each basis state is pushed through N columns on its own, so only one
    column of T_l ** N is held at a time.  Zero for l > L: a width-L slice
    cannot seed more than L wrapping clusters.  Results are cached, so every
    decomposition of a strip shares one computation of each K(l).

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
    program = _column_program(strip, marks) * strip.length
    total = MultiPoly.zero()
    for b in range(len(_basis(strip.width, marks))):
        diagonal = _push(program, b).get(b)
        if diagonal is not None:
            total = total + diagonal
    return total


# ----------------------------------------------------------------------
# full-matrix verification


def _two_slice_action(op: EdgeOp, state: TwoSliceState) -> list[tuple[TwoSliceState, MultiPoly]]:
    if op.kind == VERTICAL:
        i = op.site
        joined = state.join_right(i, i + 1)
        if joined == state:
            return [(state, _ONE_PLUS_V)]
        return [(state, ONE), (joined, v)]
    detached, completed = state.detach_right(op.site)
    weight = Q if completed else ONE
    if detached == state:
        return [(state, v + weight)]
    return [(state, v), (detached, weight)]


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
        return self.triangular_ok and not self.failures and all(
            s.group_count == s.expected_groups
            and all(n == s.expected_size for n in s.group_sizes)
            and s.cross_group_zero
            and s.matches_reference
            for s in self.sectors
        )


def verify_block_structure(strip: CyclicStrip) -> BlockStructureReport:
    """Build the column transfer on the full two-slice basis and verify:

    * bridge count never increases across a non-zero entry;
    * for each l, the l-bridge states split by left profile into
      count_states(L, l) groups of count_states(L, l) states each;
    * entries between different groups of the same bridge count vanish;
    * each group's sub-matrix, rows and columns ordered by the canonical
      order of the reduced states, equals column_transfer(strip, l).

    Kept to widths <= 4; the basis has Catalan(2L) states.
    """
    if strip.width > 4:
        raise ValueError("block-structure verification is capped at width 4")
    basis = enumerate_two_slice(strip.width)
    n = len(basis)
    program = [_compile(basis, _two_slice_action, op) for op in strip.column_program]
    cols = [_push(program, b) for b in range(n)]

    bridges = [s.bridge_count() for s in basis]
    failures: list[str] = []

    triangular_ok = True
    for b, col in enumerate(cols):
        for a, value in col.items():
            if value.is_zero:
                continue
            if bridges[a] > bridges[b]:
                triangular_ok = False
                failures.append(
                    f"bridge count grows {bridges[b]} -> {bridges[a]} on "
                    f"{basis[b].render()} -> {basis[a].render()}"
                )

    # group the l-bridge states by left profile
    groups: dict[tuple, list[int]] = {}
    for k, s in enumerate(basis):
        groups.setdefault((bridges[k], s.left_profile()), []).append(k)

    sector_reports = []
    for l in range(strip.width + 1):
        expected = count_states(strip.width, l)
        sector_groups = sorted(
            (key, members) for key, members in groups.items() if key[0] == l
        )
        group_sizes = tuple(len(m) for _, m in sector_groups)
        cross_zero = True
        matches = True
        reference = column_transfer(strip, l)
        ref_index = {s: i for i, s in enumerate(reference.basis)}
        members_by_group = [m for _, m in sector_groups]
        member_set_by_group = [set(m) for m in members_by_group]
        for gi, members in enumerate(members_by_group):
            others = {
                k
                for gj, s in enumerate(member_set_by_group)
                if gj != gi
                for k in s
            }
            for b in members:
                for a, value in cols[b].items():
                    if not value.is_zero and a in others:
                        cross_zero = False
                        failures.append(
                            f"leakage between sub-blocks at l={l}: "
                            f"{basis[b].render()} -> {basis[a].render()}"
                        )
            # order group members by their reduced state and compare
            reduced = {k: basis[k].reduced() for k in members}
            if sorted(ref_index[reduced[k]] for k in members) != list(
                range(reference.dimension)
            ):
                matches = False
                failures.append(
                    f"group at l={l} does not reduce onto the reference basis"
                )
                continue
            ordered = sorted(members, key=lambda k: ref_index[reduced[k]])
            for bb, b in enumerate(ordered):
                for aa, a in enumerate(ordered):
                    got = cols[b].get(a, ZERO)
                    want = reference.rows[aa][bb]
                    if got != want:
                        matches = False
                        failures.append(
                            f"entry mismatch at l={l}, "
                            f"{basis[b].render()} -> {basis[a].render()}: "
                            f"{got} != {want}"
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
