"""Transfer blocks, edge operators, characters and block structure."""

import dataclasses

import pytest

from pottstrip.connectivity import count_states
from pottstrip.lattice import horizontal, square_strip, vertical
from pottstrip.polynomial import Q, MultiPoly, v
from pottstrip.transfer import (
    _CACHE_SIZE,
    character_K,
    column_transfer,
    edge_operator,
    verify_block_structure,
)


def test_edge_operator_width_one():
    h = edge_operator(1, 0, horizontal(0))
    assert h.dimension == 1
    assert h.entry(0, 0) == Q + v
    h1 = edge_operator(1, 1, horizontal(0))
    assert h1.entry(0, 0) == v  # detaching a bridge point drops the branch


def test_edge_operator_vertical_width_two():
    op = edge_operator(2, 0, vertical(0))
    basis = op.basis
    joined = next(i for i, s in enumerate(basis) if s.blocks == ((0, 1),))
    split = next(i for i, s in enumerate(basis) if s.blocks == ((0,), (1,)))
    # acting on the split state: identity branch plus v times the join
    assert op.entry(split, split) == MultiPoly.one()
    assert op.entry(joined, split) == v
    # acting on the joined state: both branches land on it, weight 1 + v
    assert op.entry(joined, joined) == MultiPoly.one() + v
    assert op.entry(split, joined).is_zero


def test_vertical_join_of_two_bridges_is_dropped():
    op = edge_operator(2, 2, vertical(0))
    assert op.dimension == 1  # only (1.)(2.) carries two marks
    assert op.entry(0, 0) == MultiPoly.one()  # the v-branch would merge marks


def test_column_transfer_dimensions():
    for width in (1, 2, 3):
        strip = square_strip(width, 1)
        for marks in range(width + 1):
            block = column_transfer(strip, marks)
            assert block.dimension == count_states(width, marks)


def test_closed_forms():
    for length in range(1, 5):
        strip = square_strip(1, length)
        assert character_K(strip, 0) == (Q + v) ** length
        assert character_K(strip, 1) == v ** length
    for width in (1, 2, 3):
        for length in (1, 2, 3):
            strip = square_strip(width, length)
            assert character_K(strip, width) == v ** (width * length)


def test_character_vanishes_beyond_width():
    strip = square_strip(2, 3)
    assert character_K(strip, 3).is_zero
    assert character_K(strip, 5).is_zero


def test_character_coefficients_are_nonnegative():
    for width in (1, 2, 3):
        for length in (1, 2, 3):
            strip = square_strip(width, length)
            for marks in range(width + 1):
                for _, coeff in character_K(strip, marks).terms():
                    assert coeff > 0


def test_trace_is_invariant_under_program_rotation():
    """Rotating the within-column bond order is a cyclic permutation of the
    transfer product, which cannot change the trace."""
    strip = square_strip(3, 2)
    program = strip.column_program
    for shift in range(1, len(program)):
        rotated = dataclasses.replace(
            strip, column_program=program[shift:] + program[:shift]
        )
        for marks in range(strip.width + 1):
            assert character_K(rotated, marks) == character_K(strip, marks)


def _matmul(a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), MultiPoly.zero()) for j in range(n)]
        for i in range(n)
    ]


def test_character_in_length_is_a_trace_power():
    """K on the length-N strip is the trace of the N-th power of the column
    transfer, and the column transfer is the ordered product of its bonds'
    edge operators; both powers and products are taken here with plain
    loops, independent of the engine's bond-by-bond propagation."""
    for width in (1, 2, 3):
        base = square_strip(width, 1)
        for marks in range(width + 1):
            block = column_transfer(base, marks)
            n = block.dimension
            product = [[MultiPoly.one() if a == b else MultiPoly.zero() for b in range(n)]
                       for a in range(n)]
            for op in base.column_program:
                product = _matmul(edge_operator(width, marks, op).rows, product)
            assert product == [list(row) for row in block.rows]
            power = block.rows
            for length in (1, 2, 3, 4):
                if length > 1:
                    power = _matmul(power, block.rows)
                trace = sum((power[a][a] for a in range(n)), MultiPoly.zero())
                assert character_K(square_strip(width, length), marks) == trace


def test_characters_are_computed_once():
    strip = square_strip(2, 3)
    first = character_K(strip, 1)
    assert character_K(strip, 1) is first
    assert character_K.cache_info().maxsize == _CACHE_SIZE


def test_block_structure_reports():
    report = verify_block_structure(square_strip(1, 1))
    assert report.passed
    assert report.dimension == 2
    assert [s.expected_groups for s in report.sectors] == [1, 1]

    report = verify_block_structure(square_strip(2, 1))
    assert report.passed
    assert report.dimension == 14
    assert [(s.bridges, s.group_count) for s in report.sectors] == [
        (0, 2),
        (1, 3),
        (2, 1),
    ]
    assert all(s.cross_group_zero for s in report.sectors)
    assert all(s.matches_reference for s in report.sectors)
    assert report.failures == ()


def test_block_structure_width_cap():
    with pytest.raises(ValueError):
        verify_block_structure(square_strip(5, 1))
