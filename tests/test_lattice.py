"""Cyclic strip geometry and lattice-description parsing."""

import pytest

from pottstrip.lattice import (
    HORIZONTAL,
    MAX_WIDTH,
    VERTICAL,
    CyclicStrip,
    horizontal,
    parse_lattice,
    square_strip,
    vertical,
)


def test_square_strip_counts():
    strip = square_strip(3, 4)
    assert strip.vertex_count == 12
    assert strip.edge_count == 20
    assert strip.face_count == 10  # Euler: F = E - V + 2
    assert str(strip) == "square:3x4"


def test_only_the_square_program_prints_as_square():
    """A strip reads ``square:LxN`` only when its program is the square one,
    so no message names a reordered strip as the square strip it is not;
    every square strip prints as before and reads back from its name."""
    reordered = CyclicStrip(2, 2, (horizontal(0), horizontal(1), vertical(0)))
    assert reordered != square_strip(2, 2)
    assert str(reordered) == "2x2 strip of column program horizontal(0), horizontal(1), vertical(0)"
    assert str(CyclicStrip(2, 1, (horizontal(0), horizontal(1)))).startswith("2x1 strip of")
    for width in range(1, 8):
        for length in range(1, 6):
            strip = square_strip(width, length)
            assert str(strip) == f"square:{width}x{length}"
            assert parse_lattice(str(strip)) == strip


def test_printing_a_strip_runs_its_builder_at_most_once(monkeypatch):
    """``str`` keeps each builder's program per width, so printing one
    strip again builds nothing: a wide strip's name used to cost a build of
    its whole program on every call."""
    from pottstrip import lattice

    calls = []

    def counted(width, length):
        calls.append((width, length))
        return square_strip(width, length)

    monkeypatch.setitem(lattice._BUILDERS, "square", counted)
    monkeypatch.setattr(lattice, "_PROGRAMS", {})
    strip = square_strip(5, 3)
    for _ in range(4):
        assert str(strip) == "square:5x3"
    assert len(calls) <= 1
    reordered = CyclicStrip(5, 3, strip.column_program[::-1])
    assert str(reordered).startswith("5x3 strip of column program")
    assert len(calls) <= 1


def test_width_one_strip_has_no_verticals():
    strip = square_strip(1, 3)
    assert strip.edge_count == 3
    assert all(op.kind == HORIZONTAL for op in strip.column_program)


def test_column_program_order():
    strip = square_strip(3, 1)
    kinds = [(op.kind, op.site) for op in strip.column_program]
    assert kinds == [
        (VERTICAL, 0),
        (VERTICAL, 1),
        (HORIZONTAL, 0),
        (HORIZONTAL, 1),
        (HORIZONTAL, 2),
    ]


def test_edges_wrap_the_periodic_direction():
    strip = square_strip(2, 2)
    edges = list(strip.edges())
    assert len(edges) == strip.edge_count
    horizontals = [(u, w, d) for (u, w, d) in edges if d == 1]
    assert ((0, 2, 1)) in horizontals  # column 0 -> column 1
    assert ((2, 0, 1)) in horizontals  # column 1 wraps to column 0
    verticals = [(u, w, d) for (u, w, d) in edges if d == 0]
    assert (0, 1, 0) in verticals


def test_square_vertical_bonds_stay_in_their_column():
    """In the square program every vertical bond comes before the
    horizontal ones, so pass t of the program lies in column t."""
    for width in range(1, 7):
        for length in range(1, 6):
            strip = square_strip(width, length)
            expected = []
            for t in range(length):
                expected += [
                    (strip.vertex(i, t), strip.vertex(i + 1, t), 0) for i in range(width - 1)
                ]
                expected += [
                    (strip.vertex(i, t), strip.vertex(i, t + 1), 1) for i in range(width)
                ]
            assert strip.edges() == tuple(expected), strip


def test_length_one_strip_has_self_loops():
    strip = square_strip(2, 1)
    loops = [(u, w, d) for (u, w, d) in strip.edges() if u == w]
    assert len(loops) == 2  # each horizontal bond closes on itself
    assert all(d == 1 for (_, _, d) in loops)


def test_vertex_indexing_wraps():
    strip = square_strip(3, 4)
    assert strip.vertex(1, 0) == 1
    assert strip.vertex(0, 1) == 3
    assert strip.vertex(0, 4) == strip.vertex(0, 0)


def test_invalid_dimensions():
    with pytest.raises(ValueError):
        square_strip(0, 2)
    with pytest.raises(ValueError):
        square_strip(2, 0)


def test_edge_op_constructors():
    assert vertical(1).kind == VERTICAL
    assert vertical(1).site == 1
    assert horizontal(0).kind == HORIZONTAL
    with pytest.raises(ValueError):
        vertical(-1)


def test_parse_lattice():
    strip = parse_lattice("square:2x3")
    assert strip == square_strip(2, 3)
    for bad in ("square:2", "square:2x", "hex:2x3", "square:2x3x4", "2x3",
                "square:ax3", "square:2x-1"):
        with pytest.raises(ValueError):
            parse_lattice(bad)
    assert parse_lattice(f"square:{MAX_WIDTH}x1").width == MAX_WIDTH
    with pytest.raises(ValueError, match=f"above {MAX_WIDTH}"):
        parse_lattice(f"square:{MAX_WIDTH + 1}x1")


def test_strip_is_hashable_and_frozen():
    strip = square_strip(2, 2)
    assert hash(strip) == hash(square_strip(2, 2))
    with pytest.raises(AttributeError):
        strip.width = 3
