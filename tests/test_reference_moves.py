"""The bond tables against a reference implementation of the bond moves.

The engine's moves act on flat state keys (a restricted growth string of
block labels plus a bit mask of the marked labels).  The reference below
acts on ``(blocks, marked)`` pairs instead: blocks as sorted tuples in order
of their smallest point, and the indices of the marked blocks.  It is kept
only here, as an independent second implementation of each move with the
same contract: the key itself when nothing changes, None when the move
would lower the mark count, else a new key with the same marks.
"""

import pytest

from pottstrip import transfer
from pottstrip.connectivity import ConnectivityState, enumerate_states
from pottstrip.lattice import HORIZONTAL, VERTICAL, square_strip


def _block_of(blocks, point):
    for k, b in enumerate(blocks):
        if point in b:
            return k
    raise ValueError(f"point {point} is in no block of {blocks}")


def _key(blocks, marked):
    """The key of ``blocks`` in canonical block order, the ones listed in
    ``marked`` marked."""
    blocks.sort()
    return tuple(blocks), tuple(sorted(map(blocks.index, marked)))


def reference_join(key, i):
    blocks, marked = key
    bi, bj = _block_of(blocks, i), _block_of(blocks, i + 1)
    if bi == bj:
        return key
    if bi in marked and bj in marked:
        return None
    merged = tuple(sorted(blocks[bi] + blocks[bj]))
    rest = [b for k, b in enumerate(blocks) if k != bi and k != bj]
    rest.append(merged)
    marks = [merged if k in (bi, bj) else blocks[k] for k in marked]
    return _key(rest, marks)


def reference_detach(key, i):
    blocks, marked = key
    bi = _block_of(blocks, i)
    if len(blocks[bi]) == 1:
        return None if bi in marked else key
    left = tuple(p for p in blocks[bi] if p != i)
    rest = [b for k, b in enumerate(blocks) if k != bi]
    rest += left, (i,)
    marks = [left if k == bi else blocks[k] for k in marked]
    return _key(rest, marks)


# vertical = 1 + v J and horizontal = v + D, where a detach that returns
# the key itself vacates a finished cluster, worth Q
_ONE, _V, _Q = transfer._ONE, transfer._V, transfer._Q
_REFERENCE = {
    VERTICAL: (reference_join, _ONE, _V, _ONE | _V),
    HORIZONTAL: (reference_detach, _V, _ONE, _Q | _V),
}


def reference_table(width, marks, op):
    """The table of ``op`` on ``enumerate_states(width, marks)``, built with
    the reference moves on ``(blocks, marked)`` keys."""
    states = map(ConnectivityState.from_key, enumerate_states(width, marks))
    keys = [(s.blocks, s.marked) for s in states]
    index = {key: k for k, key in enumerate(keys)}
    move, kept, moved, unchanged = _REFERENCE[op.kind]
    table = []
    for key in keys:
        target = move(key, op.site)
        if target is key:
            table.append(((index[key], unchanged),))
        elif target is None:
            table.append(((index[key], kept),))
        else:
            table.append(((index[key], kept), (index[target], moved)))
    return tuple(table)


@pytest.mark.parametrize("width", range(1, 8))
def test_every_sector_table_equals_the_reference(width):
    for marks in range(width + 1):
        for op in square_strip(width, 1).column_program:
            assert transfer._bond_table(width, marks, op) == reference_table(width, marks, op)


def test_two_slice_tables_of_width_four_equal_the_reference():
    """The block check of width 4 compiles its bonds, moved onto the right
    slice, on the 1430 unmarked states of 8 points."""
    for op in square_strip(4, 1).column_program:
        moved = transfer._on_right_slice(op, 4)
        assert transfer._bond_table(8, 0, moved) == reference_table(8, 0, moved)
