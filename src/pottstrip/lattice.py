"""Strip lattices: cyclic strips and the column programs they repeat.

A cyclic strip of width L and length N lives on an annulus: N columns of L
sites, consecutive columns joined by horizontal bonds, column N joined back
to column 1.  One column's worth of bonds is described by a *column
program*, a sequence of edge operations applied in order:

* ``vertical(i)``   -- bond between sites i and i+1 inside the column;
* ``horizontal(i)`` -- bond from site i to site i of the next column.

Each lattice kind is one entry of ``_KINDS``, its column program at a
width, built once per width and shared by every strip of that width.  The
square kind repeats [vertical(0..L-2), horizontal(0..L-1)] in each of the
N columns.  For N = 1 the horizontal bonds close onto their own column
(self-loops in the quotient graph); they are kept as distinct edges, which
the cluster expansion handles without special cases.

Vertex/edge/face counts satisfy Euler's formula on the sphere (the annulus
plus its two caps): F = E - V + 2.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record

VERTICAL = "vertical"
HORIZONTAL = "horizontal"


class EdgeOp(Record):
    """One bond of a column program."""

    __slots__ = ("kind", "site")

    def __init__(self, kind: str, site: int):
        if kind not in (VERTICAL, HORIZONTAL):
            raise ValueError(f"unknown edge kind {kind!r}")
        if site < 0:
            raise ValueError("site must be >= 0")
        super().__init__(kind, site)

    def __str__(self) -> str:
        return f"{self.kind}({self.site})"


def vertical(site: int) -> EdgeOp:
    return EdgeOp(VERTICAL, site)


def horizontal(site: int) -> EdgeOp:
    return EdgeOp(HORIZONTAL, site)


#: An edge of the quotient graph: (vertex u, vertex v, column displacement).
#: Horizontal edges carry displacement +1; a cluster whose internal
#: displacements are inconsistent winds around the annulus.
Edge = tuple[int, int, int]


class CyclicStrip(Record):
    """A width-L, length-N strip with periodic length direction.

    Vertices are indexed ``row + width * column``.  The same column program
    is applied for every column, so the transfer matrix is a fixed product
    of elementary operators.  ``edges()`` places each bond where that
    product acts: a ``vertical(i)`` between ``horizontal(i)`` and
    ``horizontal(i+1)`` in the program joins site (i, t+1) to (i+1, t), so
    the cluster expansion and the transfer route weigh identical edge sets.
    """

    __slots__ = ("width", "length", "column_program")

    def __init__(self, width: int, length: int, column_program: tuple[EdgeOp, ...]):
        if width < 1:
            raise ValueError("width must be >= 1")
        if length < 1:
            raise ValueError("length must be >= 1")
        for op in column_program:
            limit = width - 1 if op.kind == VERTICAL else width
            if op.site >= limit:
                raise ValueError(f"{op} does not fit a width-{width} strip")
        super().__init__(width, length, column_program)

    @property
    def vertex_count(self) -> int:
        return self.width * self.length

    @property
    def edge_count(self) -> int:
        return self.length * len(self.column_program)

    @property
    def face_count(self) -> int:
        return self.edge_count - self.vertex_count + 2

    @property
    def edge_count_text(self) -> str:
        """E as bonds per column x columns, for E past the int-to-string limit."""
        return f"E = {len(self.column_program)} x {self.length}"

    def vertex(self, row: int, column: int) -> int:
        if not 0 <= row < self.width:
            raise ValueError(f"row {row} outside range(0, {self.width})")
        return row + self.width * (column % self.length)

    def edges(self) -> tuple[Edge, ...]:
        """All bonds, column by column in program order.

        Row i stands at column c_i, which each ``horizontal(i)`` advances
        by one; ``vertical(i)`` joins the current sites of rows i and i+1,
        with displacement c_(i+1) - c_i.  For the square program every
        vertical bond of pass t lies in column t.

        >>> program = (vertical(0), horizontal(0), vertical(0), horizontal(1))
        >>> CyclicStrip(2, 2, program).edges()[:4]
        ((0, 1, 0), (0, 2, 1), (2, 1, -1), (1, 3, 1))
        """
        out: list[Edge] = []
        column = [0] * self.width
        for _ in range(self.length):
            for op in self.column_program:
                i = op.site
                c = column[i]
                if op.kind == VERTICAL:
                    d = column[i + 1] - c
                    out.append((self.vertex(i, c), self.vertex(i + 1, c + d), d))
                else:
                    out.append((self.vertex(i, c), self.vertex(i, c + 1), 1))
                    column[i] += 1
        return tuple(out)

    def __str__(self) -> str:
        """``kind:LxN`` for a strip whose program is that of a kind in
        ``_KINDS`` at its width, else the size and the column program.

        >>> str(CyclicStrip(2, 3, (horizontal(0), horizontal(1), vertical(0))))
        '2x3 strip of column program horizontal(0), horizontal(1), vertical(0)'
        """
        for kind, program in _KINDS.items():
            if program(self.width) == self.column_program:
                return f"{kind}:{self.width}x{self.length}"
        program = ", ".join(map(str, self.column_program))
        return f"{self.width}x{self.length} strip of column program {program}"


@lru_cache(maxsize=8, typed=True)
def _square_program(width: int) -> tuple[EdgeOp, ...]:
    return tuple(map(vertical, range(width - 1))) + tuple(map(horizontal, range(width)))


_KINDS = {"square": _square_program}


def square_strip(width: int, length: int) -> CyclicStrip:
    """The standard cyclic square strip.

    >>> s = square_strip(3, 4)
    >>> s.vertex_count, s.edge_count, s.face_count
    (12, 20, 10)
    """
    return CyclicStrip(width, length, _KINDS["square"](width))


#: The widest strip any command serves: no square strip wider than 2896 passes
#: the floor of ``transfer.check_character_budget``, one state at a byte per
#: slot of ``transfer._Layout``, and the fixed-boundary strip reads the
#: characters of width L - 1, hence 2897.
MAX_WIDTH = 2897


def parse_lattice(text: str) -> CyclicStrip:
    """Parse a lattice description like ``square:3x4``.  A width above
    ``MAX_WIDTH`` is refused before the column program is built.

    >>> parse_lattice("square:2x3").edge_count
    9
    """
    kind, sep, size = text.partition(":")
    if not sep or kind not in _KINDS:
        raise ValueError(f"unknown lattice description {text!r}; expected e.g. square:LxN")
    w, sep, n = size.partition("x")
    if not sep:
        raise ValueError(f"lattice size must look like LxN, got {size!r}")
    try:
        width, length = int(w), int(n)
    except ValueError:
        raise ValueError(f"lattice size must be integers, got {size!r}") from None
    if width > MAX_WIDTH:
        raise ValueError(f"width {width} is above {MAX_WIDTH}, the widest strip served")
    return CyclicStrip(width, length, _KINDS[kind](width))
