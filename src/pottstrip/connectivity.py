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
  the basis element of the reduced transfer matrices;
* :class:`TwoSliceState` -- a non-crossing partition of the 2L points of two
  slices, the basis of the full (untruncated) transfer matrix, on which the
  block structure of the reduced matrices is verified;
* the bond moves ``join`` and ``detach`` on the raw ``(blocks, marked)``
  key of a state: the one implementation of each move, which the transfer
  engine compiles without building states and the class's methods wrap
  with validation.  A two-slice state is moved by the same functions: its
  ``(blocks, ())`` key is an unmarked state of 2L points, on which right
  point k sits at point 2L-1-k (:func:`right_position`);
* enumeration in a canonical order, plus the ballot-number count

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
from typing import Iterator

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


def noncrossing_partitions(n: int) -> Iterator[Blocks]:
    """Yield every non-crossing partition of {0, ..., n-1}.

    Blocks are sorted tuples, listed in order of their smallest element.
    Generation walks the points once, keeping a stack of open blocks: each
    point either opens a new block or closes some suffix of the stack and
    joins the block below, which is exactly the nesting discipline that
    characterizes non-crossing partitions.

    >>> for p in noncrossing_partitions(3):
    ...     print(p)
    ((0,), (1,), (2,))
    ((0,), (1, 2))
    ((0, 2), (1,))
    ((0, 1), (2,))
    ((0, 1, 2),)
    >>> sum(1 for _ in noncrossing_partitions(6)) == catalan(6)
    True
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return

    done: list[list[int]] = []
    stack: list[list[int]] = []

    def walk(p: int) -> Iterator[Blocks]:
        if p == n:
            blocks = [tuple(b) for b in done] + [tuple(b) for b in stack]
            blocks.sort()
            yield tuple(blocks)
            return
        # open a fresh block with p
        stack.append([p])
        yield from walk(p + 1)
        stack.pop()
        # or close zero or more open blocks and append p to the one below
        closed: list[list[int]] = []
        while stack:
            stack[-1].append(p)
            yield from walk(p + 1)
            stack[-1].pop()
            block = stack.pop()
            closed.append(block)
            done.append(block)
        for block in reversed(closed):
            done.pop()
            stack.append(block)

    yield from walk(0)


def _is_noncrossing(blocks: Blocks) -> bool:
    spans = [(b[0], b[-1], i) for i, b in enumerate(blocks)]
    owner: dict[int, int] = {}
    for i, b in enumerate(blocks):
        for p in b:
            owner[p] = i
    for lo, hi, i in spans:
        for p in range(lo + 1, hi):
            if owner[p] == i:
                continue
            j = owner[p]
            # every block met inside the span must lie entirely inside it
            if blocks[j][0] < lo or blocks[j][-1] > hi:
                return False
    return True


def _unnested(blocks: Blocks) -> tuple[int, ...]:
    out = []
    for i, b in enumerate(blocks):
        lo, hi = b[0], b[-1]
        if not any(c[0] < lo and c[-1] > hi for c in blocks):
            out.append(i)
    return tuple(out)


def _validate_partition(blocks: Blocks, n_points: int) -> None:
    seen: set[int] = set()
    for b in blocks:
        if not b or tuple(sorted(b)) != tuple(b):
            raise ValueError(f"blocks must be non-empty sorted tuples, got {b}")
        for p in b:
            if not 0 <= p < n_points:
                raise ValueError(f"point {p} outside range(0, {n_points})")
            if p in seen:
                raise ValueError(f"point {p} appears in two blocks")
            seen.add(p)
    if len(seen) != n_points:
        raise ValueError("blocks do not cover every point")
    if tuple(sorted(blocks)) != blocks:
        raise ValueError("blocks must be listed in order of smallest element")
    if not _is_noncrossing(blocks):
        raise ValueError(f"partition {blocks} is crossing")


class DetachTag(Enum):
    """What happened to the block a point was detached from."""

    STILL_POPULATED = "still-populated"
    COMPLETED_UNMARKED = "completed-unmarked"
    TERMINATED_MARKED = "terminated-marked"


@dataclass(frozen=True)
class DetachOutcome:
    """Result of detaching a point: a tag, and the state when one remains.

    ``state`` is None exactly for TERMINATED_MARKED, where the transition is
    dropped from the fixed-mark transfer block because the mark count fell.
    """

    tag: DetachTag
    state: "ConnectivityState | None"


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
    both points already share a block.  Arguments are not validated; see
    :meth:`ConnectivityState.join`.

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
    a fresh singleton: (tag, key), with the tags of
    :meth:`ConnectivityState.detach`.  The key is ``key`` itself for
    COMPLETED_UNMARKED and None for TERMINATED_MARKED.  Arguments are not
    validated.

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
    marked blocks, in increasing order.

    >>> s = ConnectivityState(3, ((0, 1), (2,)), (0,))
    >>> s.render()
    '(12•)(3)'
    >>> s.detach(0).tag.value
    'still-populated'
    """

    width: int
    blocks: Blocks
    marked: tuple[int, ...] = ()

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        _validate_partition(self.blocks, self.width)
        if tuple(sorted(set(self.marked))) != self.marked:
            raise ValueError("marked indices must be strictly increasing")
        unnested = set(_unnested(self.blocks))
        for i in self.marked:
            if not 0 <= i < len(self.blocks):
                raise ValueError(f"marked index {i} out of range")
            if i not in unnested:
                raise ValueError(
                    f"block {self.blocks[i]} is nested and cannot be marked"
                )

    # ------------------------------------------------------------------

    @property
    def key(self) -> StateKey:
        """The raw ``(blocks, marked)`` key the bond moves act on."""
        return self.blocks, self.marked

    @property
    def mark_count(self) -> int:
        return len(self.marked)

    def block_index_of(self, point: int) -> int:
        for i, b in enumerate(self.blocks):
            if point in b:
                return i
        raise ValueError(f"point {point} outside range(0, {self.width})")

    # ------------------------------------------------------------------
    # transfer moves

    def join(self, i: int, j: int) -> "ConnectivityState":
        """Merge the blocks of two *adjacent* points (|i - j| must be 1).

        The merged block is marked if either constituent was; merging two
        marked blocks therefore lowers the mark count by one.  Non-adjacent
        joins are rejected: they are never produced by a strip bond and can
        break planarity.

        >>> a = ConnectivityState(2, ((0,), (1,)))
        >>> a.join(0, 1).render()
        '(12)'
        """
        if j < i:
            i, j = j, i
        if j != i + 1:
            raise ValueError(f"join requires adjacent points, got {i} and {j}")
        if i < 0 or j >= self.width:
            raise ValueError(f"points {i}, {j} outside range(0, {self.width})")
        key = self.key
        target = join(key, i)
        if target is key:
            return self
        return ConnectivityState(self.width, *target)

    def detach(self, i: int) -> DetachOutcome:
        """Remove point i from its block and re-insert it as a fresh singleton.

        The tag records the fate of the old block: STILL_POPULATED if points
        remain in it (it keeps its mark), COMPLETED_UNMARKED if an unmarked
        block was vacated (the finished cluster earns a weight Q upstream),
        TERMINATED_MARKED if a marked block was vacated (no resulting state;
        fixed-mark transfer blocks drop the transition).
        """
        if not 0 <= i < self.width:
            raise ValueError(f"point {i} outside range(0, {self.width})")
        tag, target = detach(self.key, i)
        if tag is DetachTag.STILL_POPULATED:
            return DetachOutcome(tag, ConnectivityState(self.width, *target))
        return DetachOutcome(tag, None if target is None else self)

    # ------------------------------------------------------------------
    # canonical encoding

    def code(self) -> bytes:
        """Injective byte encoding; lexicographic order on codes is the
        canonical state order used by all enumerations."""
        if self.width > 0xFF:
            raise ValueError("width too large to encode")
        rgs = bytearray()
        index_by_first: dict[int, int] = {}
        order: list[int] = []
        for p in range(self.width):
            b = self.block_index_of(p)
            if b not in index_by_first:
                index_by_first[b] = len(order)
                order.append(b)
            rgs.append(index_by_first[b])
        flags = bytes(1 if b in self.marked else 0 for b in order)
        return bytes([self.width]) + bytes(rgs) + flags

    @classmethod
    def from_code(cls, code: bytes) -> "ConnectivityState":
        """Inverse of :meth:`code`; raises ValueError on malformed input."""
        if len(code) < 2:
            raise ValueError("code too short")
        width = code[0]
        if width < 1:
            raise ValueError("width must be >= 1")
        rgs = code[1 : 1 + width]
        if len(rgs) != width:
            raise ValueError("truncated code")
        blocks_raw: list[list[int]] = []
        for p, b in enumerate(rgs):
            if b > len(blocks_raw):
                raise ValueError("malformed growth string")
            if b == len(blocks_raw):
                blocks_raw.append([])
            blocks_raw[b].append(p)
        flags = code[1 + width :]
        if len(flags) != len(blocks_raw):
            raise ValueError("mark flags do not match block count")
        if any(f not in (0, 1) for f in flags):
            raise ValueError("mark flags must be 0 or 1")
        raw = sorted(
            (tuple(b), bool(f)) for b, f in zip(blocks_raw, flags)
        )
        blocks = tuple(b for b, _ in raw)
        marked = tuple(i for i, (_, m) in enumerate(raw) if m)
        return cls(width, blocks, marked)

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

    >>> [s.render() for s in enumerate_states(2, 1)]
    ['(12•)', '(1)(2•)', '(1•)(2)']
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if marks < 0:
        raise ValueError("marks must be >= 0")
    out = []
    for blocks in noncrossing_partitions(width):
        free = _unnested(blocks)
        if len(free) < marks:
            continue
        for chosen in itertools.combinations(free, marks):
            out.append(ConnectivityState(width, blocks, chosen))
    out.sort(key=ConnectivityState.code)
    return out


# ----------------------------------------------------------------------
# two-slice states


def right_position(width: int, point: int) -> int:
    """Boundary position of right-slice point k: the walk returns along the
    right slice in reverse, so point k sits at position 2L-1-k."""
    if not 0 <= point < width:
        raise ValueError(f"point {point} outside range(0, {width})")
    return 2 * width - 1 - point


def reduced(blocks: Blocks, width: int) -> StateKey:
    """The key of :meth:`TwoSliceState.reduced` on raw two-slice blocks:
    the partition induced on the right slice, bridge blocks marked."""
    rights, bridges = [], []
    for b in blocks:
        # right point k sits at position 2L-1-k, so reversed order sorts them
        right = tuple(2 * width - 1 - p for p in reversed(b) if p >= width)
        if right:
            rights.append(right)
            if b[0] < width:
                bridges.append(right)
    return _key(rights, bridges)


@dataclass(frozen=True)
class TwoSliceState:
    """A planar pairing of two slices: a non-crossing partition of the 2L
    boundary points read in the order 1', 2', ..., L', L, ..., 2, 1 (left
    slice downward, then right slice back up).

    Blocks meeting both slices are *bridges*; their count can only decrease
    under transfer moves, which is the origin of the triangular block
    structure of the full transfer matrix.
    """

    width: int
    blocks: Blocks

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        _validate_partition(self.blocks, 2 * self.width)

    # ------------------------------------------------------------------

    def bridge_count(self) -> int:
        """Number of blocks containing points of both slices."""
        return sum(1 for b in self.blocks if b[0] < self.width <= b[-1])

    def left_profile(self) -> tuple[tuple[tuple[int, ...], bool], ...]:
        """The partition induced on the left slice, each induced block tagged
        True when its parent block reaches the right slice (a bridge).

        Transfer moves act on the right slice only, so within a fixed bridge
        count the left profile is conserved; states sharing a profile form
        one diagonal sub-block of the full transfer matrix.
        """
        w = self.width
        return tuple(
            sorted(
                (tuple(p for p in b if p < w), b[-1] >= w) for b in self.blocks if b[0] < w
            )
        )

    def reduced(self) -> ConnectivityState:
        """Forget the left slice: the partition induced on the right slice,
        with bridge blocks marked.  Blocks living only on the left vanish."""
        return ConnectivityState(self.width, *reduced(self.blocks, self.width))

    # ------------------------------------------------------------------

    def code(self) -> bytes:
        if self.width > 0x7F:
            raise ValueError("width too large to encode")
        owner: dict[int, int] = {}
        for k, b in enumerate(self.blocks):
            for p in b:
                owner[p] = k
        rgs = bytearray()
        seen: dict[int, int] = {}
        for p in range(2 * self.width):
            b = owner[p]
            if b not in seen:
                seen[b] = len(seen)
            rgs.append(seen[b])
        return bytes([self.width]) + bytes(rgs)

    def render(self) -> str:
        """Blocks with primed labels for the left slice, e.g. ``(1'12)(2')``."""
        w = self.width
        parts = []
        for b in self.blocks:
            labels = []
            for p in b:
                if p < w:
                    labels.append(f"{p + 1}'")
                else:
                    labels.append(str(2 * w - p))
            body = ",".join(labels) if w > 9 else "".join(labels)
            parts.append(f"({body})")
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()

    @classmethod
    def from_components(
        cls, width: int, components: list[tuple[str, ...]]
    ) -> "TwoSliceState":
        """Build from human-style labels: "3'" is left point 3, "2" right
        point 2 (both 1-based), matching :meth:`render`.

        >>> TwoSliceState.from_components(2, [("1'", "1"), ("2'", "2")]).bridge_count()
        2
        """
        blocks = []
        for comp in components:
            block = []
            for label in comp:
                if label.endswith("'"):
                    k = int(label[:-1])
                    if not 1 <= k <= width:
                        raise ValueError(f"left point {label} outside 1'..{width}'")
                    block.append(k - 1)
                else:
                    k = int(label)
                    block.append(right_position(width, k - 1))
            blocks.append(tuple(sorted(block)))
        return cls(width, tuple(sorted(blocks)))


def enumerate_two_slice(width: int) -> list[TwoSliceState]:
    """All two-slice states of a width-L strip, canonically ordered; there
    are Catalan(2L) of them.

    >>> len(enumerate_two_slice(2)) == catalan(4)
    True
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    out = [TwoSliceState(width, blocks) for blocks in noncrossing_partitions(2 * width)]
    out.sort(key=TwoSliceState.code)
    return out
