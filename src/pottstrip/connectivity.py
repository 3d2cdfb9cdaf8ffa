"""Connectivity states for cluster transfer matrices on a strip.

A slice of a width-L strip carries L points, numbered 0..L-1 from one edge
to the other.  The clusters of a partial bond configuration induce a
partition of those points; planarity of the strip forces the partition to be
non-crossing.  Blocks whose cluster also reaches back to the initial slice
(around the periodic direction) are *marked*: they are the seeds of
non-trivial, wrapping clusters.  A marked block can always be drawn out to
the boundary of the disk, so only blocks not nested inside another block's
span may carry a mark.

This module provides

* :class:`ConnectivityState` -- a non-crossing partition with marked blocks,
  the basis element of the reduced transfer matrices, validated on
  construction;
* the bond moves ``join`` and ``detach`` on the raw ``(blocks, marked)``
  key of a state: the one implementation of each move, which the transfer
  engine compiles without building states;
* two-slice states, the basis of the full (untruncated) transfer matrix on
  which the block structure of the reduced matrices is verified.  A
  non-crossing partition of the 2L points of two slices is an unmarked
  state of 2L points, on which right point k sits at point 2L-1-k
  (:func:`right_position`); plain functions read its bridges, its left
  profile and its reduction to the right slice;
* enumeration of one sector in canonical order by a single walk over the
  points that never enters a partition with too few unnested blocks,
  plus the ballot-number count

      count_states(L, l) = C(2L, L-l) - C(2L, L-l-1)

  of states with exactly l marks.

Points are 0-based throughout the API; the text rendering uses 1-based
labels, e.g. ``(12•)(3)`` for the width-3 state whose marked block is {0,1}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from math import comb

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


class DetachTag(Enum):
    """What happened to the block a point was detached from."""

    STILL_POPULATED = "still-populated"
    COMPLETED_UNMARKED = "completed-unmarked"
    TERMINATED_MARKED = "terminated-marked"


#: The raw key of a connectivity state: its ``(blocks, marked)`` pair.
StateKey = tuple[Blocks, tuple[int, ...]]


def _block_of(blocks: Blocks, point: int) -> int:
    for k, b in enumerate(blocks):
        if point in b:
            return k
    raise ValueError(f"point {point} is in no block of {blocks}")


def _key(blocks: list[tuple[int, ...]], marked: list[tuple[int, ...]]) -> StateKey:
    """The key of ``blocks`` in canonical block order, the ones listed in
    ``marked`` marked; with none marked it only sorts."""
    blocks.sort()
    return tuple(blocks), tuple(sorted(map(blocks.index, marked)))


def join(key: StateKey, i: int) -> StateKey:
    """Merge the blocks of points i and i+1 of a raw state key.

    The merged block is marked if either constituent was, so merging two
    marked blocks lowers the mark count by one.  Returns ``key`` itself when
    both points already share a block.  Arguments are not validated: pass a
    valid key and 0 <= i < width - 1, and the result is again a valid key.

    >>> join((((0,), (1,), (2,)), (0, 1)), 0)
    (((0, 1), (2,)), (0,))
    """
    blocks, marked = key
    bi, bj = _block_of(blocks, i), _block_of(blocks, i + 1)
    if bi == bj:
        return key
    merged = tuple(sorted(blocks[bi] + blocks[bj]))
    rest = [b for k, b in enumerate(blocks) if k != bi and k != bj]
    rest.append(merged)
    marks = [blocks[k] for k in marked if k != bi and k != bj]
    if len(marks) < len(marked):
        marks.append(merged)
    return _key(rest, marks)


def detach(key: StateKey, i: int) -> tuple[DetachTag, StateKey | None]:
    """Remove point i of a raw state key from its block and re-insert it as
    a fresh singleton: (tag, key).

    The tag records the fate of the old block: STILL_POPULATED if points
    remain in it (it keeps its mark), COMPLETED_UNMARKED if an unmarked
    block was vacated (the finished cluster earns a weight Q upstream; the
    key is ``key`` itself), TERMINATED_MARKED if a marked block was vacated
    (the key is None; fixed-mark transfer blocks drop the transition).
    Arguments are not validated.

    >>> detach((((0, 1),), (0,)), 0)
    (<DetachTag.STILL_POPULATED: 'still-populated'>, (((0,), (1,)), (1,)))
    """
    blocks, marked = key
    bi = _block_of(blocks, i)
    if len(blocks[bi]) == 1:
        if bi in marked:
            return DetachTag.TERMINATED_MARKED, None
        return DetachTag.COMPLETED_UNMARKED, key
    left = tuple(p for p in blocks[bi] if p != i)
    rest = [b for k, b in enumerate(blocks) if k != bi]
    rest += left, (i,)
    marks = [left if k == bi else blocks[k] for k in marked]
    return DetachTag.STILL_POPULATED, _key(rest, marks)


@dataclass(frozen=True)
class ConnectivityState:
    """A non-crossing partition of slice points with marked, unnested blocks.

    ``blocks`` lists each block as a sorted tuple, blocks ordered by their
    smallest point; ``marked`` holds the indices (into ``blocks``) of the
    marked blocks, in increasing order.  The bond moves act on its
    :attr:`key`; the constructor validates what they return.

    >>> s = ConnectivityState(3, ((0, 1), (2,)), (0,))
    >>> s.render()
    '(12•)(3)'
    >>> tag, key = detach(s.key, 0)
    >>> tag.value, ConnectivityState(3, *key).render()
    ('still-populated', '(1)(2•)(3)')
    """

    width: int
    blocks: Blocks
    marked: tuple[int, ...] = ()

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        unnested = _validate_partition(self.blocks, self.width)
        if not self.marked:
            return
        if tuple(sorted(set(self.marked))) != self.marked:
            raise ValueError("marked indices must be strictly increasing")
        for i in self.marked:
            if not 0 <= i < len(self.blocks):
                raise ValueError(f"marked index {i} out of range")
            if not unnested[i]:
                raise ValueError(
                    f"block {self.blocks[i]} is nested and cannot be marked"
                )

    @property
    def key(self) -> StateKey:
        """The raw ``(blocks, marked)`` key the bond moves act on."""
        return self.blocks, self.marked

    @property
    def mark_count(self) -> int:
        return len(self.marked)

    def code(self) -> bytes:
        """Injective byte encoding; lexicographic order on codes is the
        canonical state order used by all enumerations.

        The width, then each point's block index, then one mark flag per
        block.  Blocks are ordered by their smallest point, so the block
        indices form a restricted growth string.  Each number takes the s
        bytes the width needs, big-endian, so codes of one width compare
        point by point; when s > 1 (widths above 255) the code starts with a
        zero byte, which no narrower code does (no state has width 0), and s.
        """
        owner = [0] * self.width
        for k, b in enumerate(self.blocks):
            for p in b:
                owner[p] = k
        flags = bytearray(len(self.blocks))
        for k in self.marked:
            flags[k] = 1
        size = (self.width.bit_length() + 7) // 8
        head = bytes([0, size]) if size > 1 else b""
        numbers = b"".join(x.to_bytes(size, "big") for x in (self.width, *owner))
        return head + numbers + bytes(flags)

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


def enumerate_states(width: int, marks: int) -> list[ConnectivityState]:
    """All connectivity states of ``width`` points with exactly ``marks``
    marked blocks, in canonical (code-lexicographic) order.

    One depth-first walk over the points builds the partitions in
    restricted-growth-string order, which is code order, so nothing is
    sorted.  A branch is entered only if it can still end with ``marks``
    unnested blocks, so every branch yields a state and the cost follows
    the sector's size, not the Catalan(width) partitions.  The walk
    recurses once per point.

    >>> [s.render() for s in enumerate_states(2, 1)]
    ['(12•)', '(1)(2•)', '(1•)(2)']
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if marks < 0:
        raise ValueError("marks must be >= 0")
    out: list[ConnectivityState] = []
    blocks: list[list[int]] = []  # in order of smallest point
    stack: list[int] = []  # indices of the open blocks, lowest first

    def walk(p: int) -> None:
        if p == width:
            # the blocks still open are exactly the unnested ones; reversed
            # combinations come in increasing order of the mark flags
            frozen = tuple(map(tuple, blocks))
            for chosen in reversed(list(itertools.combinations(stack, marks))):
                out.append(ConnectivityState(width, frozen, chosen))
            return
        # p joins the open block at depth d, which closes (nests) the ones
        # above it, or opens a new block, in increasing block index.  Open
        # blocks plus points left bound the unnested blocks; the first
        # depth keeps that bound >= marks.
        for d in range(max(0, marks - width + p), len(stack)):
            closed = stack[d + 1 :]
            del stack[d + 1 :]
            blocks[stack[d]].append(p)
            walk(p + 1)
            blocks[stack[d]].pop()
            stack.extend(closed)
        stack.append(len(blocks))
        blocks.append([p])
        walk(p + 1)
        blocks.pop()
        stack.pop()

    if marks <= width:
        walk(0)
    return out


# ----------------------------------------------------------------------
# two-slice states
#
# A two-slice state is a planar pairing of two slices: a non-crossing
# partition of the 2L boundary points read in the order 1', 2', ..., L',
# L, ..., 2, 1 (left slice downward, then right slice back up).  That is an
# unmarked connectivity state of 2L points, so it needs no class of its
# own: the functions below read its blocks.  Blocks meeting both slices are
# *bridges*; their count can only decrease under transfer moves, which is
# the origin of the triangular block structure of the full transfer matrix.


def right_position(width: int, point: int) -> int:
    """Boundary position of right-slice point k: the walk returns along the
    right slice in reverse, so point k sits at position 2L-1-k."""
    if not 0 <= point < width:
        raise ValueError(f"point {point} outside range(0, {width})")
    return 2 * width - 1 - point


def reduced(blocks: Blocks, width: int) -> StateKey:
    """Forget the left slice of a two-slice state: the key of the partition
    induced on the right slice, bridge blocks marked.  Blocks living only on
    the left vanish.

    >>> reduced(((0, 3), (1,), (2,)), 2)
    (((0,), (1,)), (0,))
    """
    rights, bridges = [], []
    for b in blocks:
        # right point k sits at position 2L-1-k, so reversed order sorts them
        right = tuple(2 * width - 1 - p for p in reversed(b) if p >= width)
        if right:
            rights.append(right)
            if b[0] < width:
                bridges.append(right)
    return _key(rights, bridges)


def bridge_count(blocks: Blocks, width: int) -> int:
    """Number of blocks of a two-slice state meeting both slices."""
    return sum(1 for b in blocks if b[0] < width <= b[-1])


def left_profile(blocks: Blocks, width: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """The partition a two-slice state induces on the left slice, each
    induced block tagged True when its parent block reaches the right slice
    (a bridge).  Blocks are ordered by their smallest point, which is a left
    point whenever the block has one, so the profile comes out sorted.

    Transfer moves act on the right slice only, so within a fixed bridge
    count the left profile is conserved; states sharing a profile form one
    diagonal sub-block of the full transfer matrix.
    """
    return tuple(
        (tuple(p for p in b if p < width), b[-1] >= width) for b in blocks if b[0] < width
    )


def render_two_slice(blocks: Blocks, width: int) -> str:
    """A two-slice state with primed labels for the left slice.

    >>> render_two_slice(((0, 3), (1, 2)), 2)
    "(1'1)(2'2)"
    """
    parts = []
    for b in blocks:
        labels = [f"{p + 1}'" if p < width else str(2 * width - p) for p in b]
        body = ",".join(labels) if width > 9 else "".join(labels)
        parts.append(f"({body})")
    return "".join(parts)


def enumerate_two_slice(width: int) -> list[ConnectivityState]:
    """All two-slice states of a width-L strip, canonically ordered: the
    unmarked states of 2L points.  There are Catalan(2L) of them.

    >>> len(enumerate_two_slice(2)) == catalan(4)
    True
    """
    return enumerate_states(2 * width, 0)
