"""Transfer blocks, edge operators, characters and block structure."""

import dataclasses

import pytest

from pottstrip import transfer
from pottstrip.connectivity import (
    ConnectivityState,
    count_states,
    enumerate_states,
    enumerate_two_slice,
)
from pottstrip.lattice import CyclicStrip, horizontal, square_strip, vertical
from pottstrip.polynomial import Q, MultiPoly, v
from pottstrip.transfer import (
    _CACHE_SIZE,
    _column_program,
    _compile,
    _push,
    _slot_width,
    _unpack,
    character_K,
    check_character_budget,
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


def _mirror(state):
    """The state with point i moved to width-1-i, marks kept."""
    top = state.width - 1
    raw = sorted(
        (tuple(sorted(top - p for p in block)), i in state.marked)
        for i, block in enumerate(state.blocks)
    )
    return ConnectivityState(
        state.width,
        tuple(b for b, _ in raw),
        tuple(i for i, (_, marked) in enumerate(raw) if marked),
    )


def _full_diagonal(strip, marks):
    """(T_l^N)_ss for every start s, one push each, as packed ints."""
    n = count_states(strip.width, marks)
    program = _column_program(strip, marks) * strip.length
    w = _slot_width(len(program), n)
    return [_push(program, b, w).get(b, 0) for b in range(n)], w, len(program)


def test_diagonal_is_reflection_symmetric():
    """(T_l^N)_ss == (T_l^N)_{Ps,Ps} for the width reflection P on every
    square strip of width <= 8 and length <= 3 with n(L, l) <= 90, with the
    diagonal pushed from every start."""
    sectors = moved = 0
    for width in range(1, 9):
        for marks in range(width + 1):
            if count_states(width, marks) > 90:
                continue
            basis = enumerate_states(width, marks)
            index = {s: k for k, s in enumerate(basis)}
            image = [index[_mirror(s)] for s in basis]
            moved += sum(k != image[k] for k in range(len(basis)))
            for length in (1, 2, 3):
                diagonal, _, _ = _full_diagonal(square_strip(width, length), marks)
                assert all(diagonal[k] == diagonal[image[k]] for k in range(len(basis)))
                sectors += 1
    assert sectors == 3 * 28 and moved > 0


def test_character_pushes_one_start_per_reflection_orbit(monkeypatch):
    """Width 5 has 252 states over all l and 142 orbits of the reflection."""
    starts = []

    def counting_push(program, start, w):
        starts.append(start)
        return _push(program, start, w)

    monkeypatch.setattr(transfer, "_push", counting_push)
    strip = square_strip(5, 2)
    for marks in range(6):
        diagonal, w, bonds = _full_diagonal(strip, marks)
        del starts[:]
        assert character_K.__wrapped__(strip, marks) == _unpack(sum(diagonal), w, bonds)
        assert len(starts) == len(set(starts))
        assert len(starts) == len(transfer._reflection_orbits(5, marks))
    assert sum(count_states(5, l) for l in range(6)) == 252
    assert sum(len(transfer._reflection_orbits(5, l)) for l in range(6)) == 142


def test_non_invariant_program_sums_the_full_diagonal():
    """An interleaved program is not mapped onto itself by the reflection,
    so every start is pushed; a program equal to the square one up to
    reordering within runs of one bond kind takes the orbits."""
    interleaved = (vertical(0), horizontal(0), vertical(1), horizontal(1), horizontal(2))
    reordered = (vertical(1), vertical(0), horizontal(2), horizontal(0), horizontal(1))
    assert not transfer._reflection_invariant(interleaved, 3)
    assert transfer._reflection_invariant(reordered, 3)
    for length in (1, 2, 3):
        for marks in range(4):
            strip = CyclicStrip(3, length, interleaved)
            diagonal, w, bonds = _full_diagonal(strip, marks)
            assert character_K(strip, marks) == _unpack(sum(diagonal), w, bonds)
            assert character_K(CyclicStrip(3, length, reordered), marks) == character_K(
                square_strip(3, length), marks
            )


def test_characters_are_computed_once():
    strip = square_strip(2, 3)
    first = character_K(strip, 1)
    assert character_K(strip, 1) is first
    assert character_K.cache_info().maxsize == _CACHE_SIZE


def test_compile_refuses_weights_beyond_the_packing_bound():
    """An empty weight, a monomial outside {1, v, Q}, and branch weights
    adding up to 3 at Q = v = 1 would each break the slot width."""
    for branches in ([("s", 0)], [("s", 8)], [("s", 3), ("s", 1)]):
        with pytest.raises(AssertionError, match="packing bound"):
            _compile(("s",), lambda op, state: branches, vertical(0))


def test_compile_refuses_targets_outside_the_basis():
    """A branch to a key the enumerated basis does not hold, here a nested
    marked block that no valid state has, is refused by op and state
    rather than with a bare KeyError."""
    keys = [s.key for s in transfer._basis(3, 1)]
    nested = (((0, 2), (1,)), (1,))
    assert nested not in keys

    def leaving(op, key):
        return [(key, 1), (nested, 2)]

    with pytest.raises(AssertionError, match=r"vertical\(1\) on .* leaves the basis"):
        _compile(keys, leaving, vertical(1))


def test_character_budget():
    """Strips that run in two minutes or less are accepted; 7x4 would take
    several and is refused."""
    for width, length in ((6, 6), (5, 10), (3, 40), (8, 1)):
        strip = square_strip(width, length)
        for marks in range(width + 1):
            check_character_budget(strip, marks)
    assert check_character_budget(square_strip(2, 20), 2) == (1, 60, 64)
    with pytest.raises(ValueError, match="bits pushed"):
        check_character_budget(square_strip(7, 4), 1)
    with pytest.raises(ValueError):
        character_K(square_strip(2, 10**5), 0)


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


def test_block_structure_reports_a_wrong_weight(monkeypatch):
    """One branch of one two-slice state weighted Q instead of 1, still
    within the packing bound, fails the check in that state's sector, and
    the message shows the two entries unpacked as polynomials."""
    strip = square_strip(3, 1)
    basis = enumerate_two_slice(3)
    bridges = {(s.blocks, ()): s.bridge_count() for s in basis}
    action = transfer._action
    # horizontal(1) on the right slice: right point 1 sits at point 2L-2 = 4
    op = horizontal(4)
    # a state whose detach branch stays among the states of its bridge count;
    # its width-6 key cannot collide with the key of a width-3 reduced state
    wrong = next(
        key
        for key in bridges
        if len(branches := action(op, key)) == 2
        and bridges[branches[1][0]] == bridges[key]
    )

    def miscounted(bond, key):
        branches = action(bond, key)
        if bond == op and key == wrong:
            return [branches[0], (branches[1][0], transfer._Q)]
        return branches

    monkeypatch.setattr(transfer, "_action", miscounted)
    report = verify_block_structure(strip)
    # the reduced tables compile through ``_action`` too: drop those cached
    # under the patch, though the fault cannot reach a width-3 key
    monkeypatch.undo()
    transfer._bond_table.cache_clear()
    assert not report.passed
    sector = bridges[wrong]
    assert [s.matches_reference for s in report.sectors] == [
        l != sector for l in range(4)
    ]
    reference = {str(e) for row in column_transfer(strip, sector).rows for e in row}
    mismatches = [f for f in report.failures if f.startswith("entry mismatch")]
    assert mismatches and all(f.startswith(f"entry mismatch at l={sector}") for f in mismatches)
    for failure in mismatches:
        got, want = failure.rsplit(": ", 1)[1].split(" != ")
        assert want in reference
        assert "Q" in got and got not in reference


def test_block_structure_width_cap():
    with pytest.raises(ValueError):
        verify_block_structure(square_strip(5, 1))
