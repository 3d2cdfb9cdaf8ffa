"""Connectivity states for cluster transfer matrices on a strip.

A slice of a width-L strip carries L points, numbered 0..L-1 from one edge
to the other.  The clusters of a partial bond configuration induce a
partition of those points; planarity of the strip forces the partition to be
non-crossing.  Blocks whose cluster also reaches back to the initial slice
(around the periodic direction) are *marked*: they are the seeds of
non-trivial, wrapping clusters.  A marked block can always be drawn out to
the boundary of the disk, so only blocks not nested inside another block's
span may carry a mark.

A state is its key, from enumeration on.  This module provides

* :class:`ConnectivityState` -- the validating, printable view of a key: a
  non-crossing partition with marked blocks, checked on construction or by
  :meth:`~ConnectivityState.from_key`, and the only reader of blocks.  The
  engine never builds one;
* the bond moves ``join`` and ``detach`` on the key of a state, a flat
  code: each point's block label in order of first occurrence (a
  restricted growth string), then a bit mask of the marked labels, e.g.
  ``(0, 0, 1, 0b01)`` for ``(12•)(3)``.  They are the one implementation
  of each move, compiled by the transfer engine without building states.
  Both share one contract: the key itself when the move leaves the state
  unchanged, None when it would lower the mark count (leave the sector),
  and otherwise a new key with the same marks; ``mirror`` reflects a key
  across the width, and no other module reads the code's layout;
* two-slice states, the basis of the full (untruncated) transfer matrix on
  which the block structure of the reduced matrices is verified.  A
  non-crossing partition of the 2L points of two slices is an unmarked
  state of 2L points, on which right point k sits at point 2L-1-k
  (:func:`right_position`); :func:`split_two_slice` reads it as the pair
  of slice states it is, and :func:`render_two_slice` prints it;
* enumeration of one sector's keys in canonical order by a single walk
  over the points that writes block labels and never enters a partition
  with too few unnested blocks, plus the ballot-number count

      count_states(L, l) = C(2L, L-l) - C(2L, L-l-1)

  of states with exactly l marks.

Points are 0-based throughout the API; the text rendering uses 1-based
labels, e.g. ``(12•)(3)`` for the width-3 state whose marked block is {0,1}.
"""

from __future__ import annotations

import itertools
from math import comb

from ._record import Record

Blocks = tuple[tuple[int, ...], ...]


def catalan(n: int) -> int:
    """The n-th Catalan number.

    >>> [catalan(n) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    if n < 0:
        raise ValueError("catalan is defined for n >= 0")
    return comb(2 * n, n) // (n + 1)


def count_states(width: int, marks: int) -> int:
    """Number of connectivity states of `width` points with `marks` marks.

    >>> [count_states(3, l) for l in range(4)]
    [5, 9, 5, 1]
    >>> sum(count_states(4, l) ** 2 for l in range(5)) == catalan(8)
    True
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if marks < 0:
        raise ValueError("marks must be >= 0")
    if marks > width:
        return 0
    low = comb(2 * width, width - marks)
    high = comb(2 * width, width - marks - 1) if width - marks - 1 >= 0 else 0
    return low - high


def _validate_partition(blocks: Blocks, n_points: int) -> list[bool]:
    """Check that ``blocks`` is a non-crossing partition of the points in
    canonical order; return one flag per block, True when it is unnested.

    One left-to-right pass keeps the open blocks on a stack: a block may
    continue only while it is on top (anything above it would cross it), and
    a block is unnested exactly when the stack is empty at its first point.
    """
    if not isinstance(blocks, tuple):
        raise ValueError(f"blocks must be a tuple, got {blocks}")
    owner = [-1] * n_points
    for k, b in enumerate(blocks):
        if not b or tuple(sorted(b)) != tuple(b):
            raise ValueError(f"blocks must be non-empty sorted tuples, got {b}")
        if k and b[0] < blocks[k - 1][0]:
            raise ValueError("blocks must be listed in order of smallest element")
        for p in (b[0], b[-1]):
            if not 0 <= p < n_points:
                raise ValueError(f"point {p} outside range(0, {n_points})")
        for p in b:
            if owner[p] >= 0:
                raise ValueError(f"point {p} appears in two blocks")
            owner[p] = k
    if -1 in owner:
        raise ValueError("blocks do not cover every point")
    unnested = [False] * len(blocks)
    stack: list[int] = []
    for p, k in enumerate(owner):
        b = blocks[k]
        if p == b[0]:
            unnested[k] = not stack
            stack.append(k)
        elif stack[-1] != k:
            raise ValueError(f"partition {blocks} is crossing")
        if p == b[-1]:
            stack.pop()
    return unnested


#: The key of a state: each point's block label, then the marked labels' bit mask.
StateKey = tuple[int, ...]


def _canonical(labels, mask: int) -> StateKey:
    """The key of the partition with point p in block ``labels[p]``, any
    int >= 0, the blocks whose label has its bit set in ``mask`` marked."""
    first: dict[int, int] = {}
    code = [first.setdefault(c, len(first)) for c in labels]
    code.append(sum([1 << k for c, k in first.items() if mask >> c & 1]))
    return tuple(code)


def _blocks(labels) -> Blocks:
    """The blocks, by smallest point, of the partition with p in ``labels[p]``."""
    blocks: dict[int, list[int]] = {}
    for p, label in enumerate(labels):
        blocks.setdefault(label, []).append(p)
    return tuple(map(tuple, blocks.values()))


def join(key: StateKey, i: int) -> StateKey | None:
    """Merge the blocks of points i and i+1 of a state key.

    The merged block is marked if either constituent was.  Returns ``key``
    itself when both points already share a block, and None when both
    blocks are marked: that merge would lower the mark count and leave the
    sector.  Arguments are not validated: pass a valid key and
    0 <= i < width - 1, and a new key is again valid, with the same marks.

    >>> join((0, 1, 2, 0b001), 0)
    (0, 0, 1, 1)
    >>> join((0, 1, 2, 0b011), 0) is None
    True
    """
    a, b = key[i], key[i + 1]
    if a == b:
        return key
    mask = key[-1]
    if mask >> a & mask >> b & 1:
        return None
    # the later label goes; the labels above it move down by one
    lo, hi = (a, b) if a < b else (b, a)
    code = [c if c < hi else lo if c == hi else c - 1 for c in key[:-1]]
    below = (1 << hi) - 1
    code.append(mask & below | mask >> 1 & ~below | (mask >> hi & 1) << lo)
    return tuple(code)


def detach(key: StateKey, i: int) -> StateKey | None:
    """Remove point i of a state key from its block and re-insert it as a
    fresh singleton.

    Returns ``key`` itself when i is an unmarked singleton (the vacated
    block is a finished cluster, which earns a weight Q upstream), and None
    when i is a marked singleton: vacating it would lower the mark count
    and leave the sector.  Otherwise the old block keeps its mark and the
    new key has the same marks.  Arguments are not validated.

    >>> detach((0, 0, 0b1), 0)
    (0, 1, 2)
    """
    labels, mask = key[:-1], key[-1]
    if labels.count(labels[i]) == 1:
        return None if mask >> labels[i] & 1 else key
    return _canonical(labels[:i] + (len(labels),) + labels[i + 1 :], mask)


def mirror(key: StateKey) -> StateKey:
    """The state key reflected across the width, point i -> width-1-i;
    marks follow their blocks.

    >>> mirror((0, 0, 1, 0b01))
    (0, 1, 1, 2)
    """
    return _canonical(key[-2::-1], key[-1])


class ConnectivityState(Record):
    """A non-crossing partition of slice points with marked, unnested blocks.

    ``blocks`` lists each block as a sorted tuple, blocks ordered by their
    smallest point; ``marked`` holds the indices (into ``blocks``) of the
    marked blocks, in increasing order.  The bond moves act on its
    :attr:`key`; :meth:`from_key` validates what they return.

    >>> s = ConnectivityState(3, ((0, 1), (2,)), (0,))
    >>> s.render(), s.key
    ('(12•)(3)', (0, 0, 1, 1))
    >>> ConnectivityState.from_key(detach(s.key, 0)).render()
    '(1)(2•)(3)'
    """

    __slots__ = ("width", "blocks", "marked")

    def __init__(self, width: int, blocks: Blocks, marked: tuple[int, ...] = ()):
        if width < 1:
            raise ValueError("width must be >= 1")
        unnested = _validate_partition(blocks, width)
        if marked:
            if tuple(sorted(set(marked))) != marked:
                raise ValueError("marked indices must be strictly increasing")
            for i in marked:
                if not 0 <= i < len(blocks):
                    raise ValueError(f"marked index {i} out of range")
                if not unnested[i]:
                    raise ValueError(f"block {blocks[i]} is nested and cannot be marked")
        super().__init__(width, blocks, marked)

    @classmethod
    def from_key(cls, key: StateKey) -> ConnectivityState:
        """The state of a key, through the validating constructor.  Raises
        ValueError unless ``key`` is the key of a valid state."""
        if not key or any(type(c) is not int for c in key):
            raise ValueError(f"{key!r} is not a tuple of ints")
        *labels, mask = key
        marked = tuple(k for k in range(mask.bit_length()) if mask >> k & 1)
        state = cls(len(labels), _blocks(labels), marked)
        if state.key != key:
            raise ValueError(f"{key} is not the key of {state}")
        return state

    @property
    def key(self) -> StateKey:
        """The flat code the bond moves act on (see the module docstring)."""
        code = [0] * (self.width + 1)
        for k, b in enumerate(self.blocks):
            for p in b:
                code[p] = k
        code[-1] = sum(1 << k for k in self.marked)
        return tuple(code)

    @property
    def mark_count(self) -> int:
        return len(self.marked)

    def render(self) -> str:
        """Human-readable form with 1-based labels, e.g. ``(12•)(3)``."""
        parts = []
        for i, b in enumerate(self.blocks):
            labels = [str(p + 1) for p in b]
            body = ",".join(labels) if self.width > 9 else "".join(labels)
            parts.append(f"({body}{'•' if i in self.marked else ''})")
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()


def enumerate_states(width: int, marks: int) -> list[StateKey]:
    """The keys of all connectivity states of ``width`` points with exactly
    ``marks`` marked blocks, in canonical order: lexicographic in the key's
    block labels, then in the mark flags listed in block order.

    One depth-first walk over the points writes the block labels in
    restricted-growth-string order, which is the labels' order, so nothing
    is sorted.  A branch is entered only if it can still end with ``marks``
    unnested blocks, so every branch yields a state and the cost follows
    the sector's size, not the Catalan(width) partitions.  The walk
    recurses once per point and writes only keys of valid states, which
    ``ConnectivityState.from_key`` turns into validated, printable ones.

    >>> enumerate_states(2, 1)
    [(0, 0, 1), (0, 1, 2), (0, 1, 1)]
    >>> [ConnectivityState.from_key(key).render() for key in enumerate_states(2, 1)]
    ['(12•)', '(1)(2•)', '(1•)(2)']
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if marks < 0:
        raise ValueError("marks must be >= 0")
    out: list[StateKey] = []
    labels: list[int] = []  # the block label of each point so far
    stack: list[int] = []  # labels of the open blocks, lowest first

    def walk(p: int, blocks: int) -> None:
        if p == width:
            # the blocks still open are exactly the unnested ones; reversed
            # combinations come in increasing order of the mark flags
            code = tuple(labels)
            for chosen in reversed(list(itertools.combinations(stack, marks))):
                out.append(code + (sum([1 << k for k in chosen]),))
            return
        # p joins the open block at depth d, which closes (nests) the ones
        # above it, or opens block number ``blocks``.  Open blocks plus
        # points left bound the unnested blocks; the first depth keeps that
        # bound >= marks.
        for d in range(max(0, marks - width + p), len(stack)):
            closed = stack[d + 1 :]
            del stack[d + 1 :]
            labels.append(stack[d])
            walk(p + 1, blocks)
            labels.pop()
            stack.extend(closed)
        stack.append(blocks)
        labels.append(blocks)
        walk(p + 1, blocks + 1)
        labels.pop()
        stack.pop()

    if marks <= width:
        walk(0, 0)
    return out


# ----------------------------------------------------------------------
# two-slice states
#
# A two-slice state is a planar pairing of two slices: a non-crossing
# partition of the 2L boundary points read in the order 1', 2', ..., L',
# L, ..., 2, 1 (left slice downward, then right slice back up).  That is an
# unmarked connectivity state of 2L points, so it needs no class of its
# own.  Blocks meeting both slices are *bridges*; their count can only
# decrease under transfer moves, which is the origin of the triangular block
# structure of the full transfer matrix.  An l-bridge state is exactly a
# pair (left slice state, right slice state), each with its l bridges
# marked, and ``split_two_slice`` is the one reader of those halves: the
# n(L, l)**2 pairs of each l, summed over l, are the Catalan(2L) states.


def right_position(width: int, point: int) -> int:
    """Boundary position of right-slice point k: the walk returns along the
    right slice in reverse, so point k sits at position 2L-1-k."""
    if not 0 <= point < width:
        raise ValueError(f"point {point} outside range(0, {width})")
    return 2 * width - 1 - point


def split_two_slice(key: StateKey, width: int) -> tuple[StateKey, StateKey]:
    """The pair of slice states a two-slice state is: the partitions it
    induces on the left slice and on the right slice (right point k at point
    2L-1-k), each with its bridges, the blocks meeting both slices, marked.
    Both are keys of width L with l marks, l the bridge count.

    Transfer moves act on the right slice only, so within a fixed bridge
    count the left half is conserved: the states of one left half form one
    diagonal sub-block of the full transfer matrix, each at the place of its
    right half in the l-mark basis.

    >>> split_two_slice((0, 1, 2, 0, 0), 2)
    ((0, 1, 1), (0, 1, 1))
    """
    left, right = key[:width], key[2 * width - 1 : width - 1 : -1]
    on_left, on_right = sum({1 << c for c in left}), sum({1 << c for c in right})
    return _canonical(left, on_right), _canonical(right, on_left)


def render_two_slice(key: StateKey, width: int) -> str:
    """A two-slice state with primed labels for the left slice.

    >>> render_two_slice((0, 1, 1, 0, 0), 2)
    "(1'1)(2'2)"
    """
    parts = []
    for b in _blocks(key[:-1]):
        labels = [f"{p + 1}'" if p < width else str(2 * width - p) for p in b]
        body = ",".join(labels) if width > 9 else "".join(labels)
        parts.append(f"({body})")
    return "".join(parts)


def enumerate_two_slice(width: int) -> list[StateKey]:
    """The keys of all two-slice states of a width-L strip, canonically
    ordered: the unmarked states of 2L points.  There are Catalan(2L) of them.

    >>> len(enumerate_two_slice(2)) == catalan(4)
    True
    """
    return enumerate_states(2 * width, 0)
