"""Transfer blocks, edge operators, characters and block structure."""

import ast
import inspect

import pytest
from block_reference import pushed_block_structure

from pottstrip import transfer
from pottstrip.connectivity import (
    ConnectivityState,
    catalan,
    count_states,
    enumerate_states,
    enumerate_two_slice,
    render_two_slice,
    split_two_slice,
)
from pottstrip.lattice import (
    HORIZONTAL,
    MAX_WIDTH,
    VERTICAL,
    CyclicStrip,
    horizontal,
    square_strip,
    vertical,
)
from pottstrip.polynomial import Q, MultiPoly, v
from pottstrip.transfer import (
    _CACHE_SIZE,
    _column_program,
    _compile,
    _push,
    _slot_width,
    _unpack,
    character_K,
    characters_of,
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
    joined = basis.index((0, 0, 0))
    split = basis.index((0, 1, 0))
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


@pytest.mark.parametrize(
    "width, op", [(3, vertical(2)), (1, vertical(0)), (2, horizontal(2))], ids=str
)
def test_edge_operator_refuses_a_bond_outside_the_width(width, op):
    """A bond is a one-bond strip, so a bond the width has no room for is
    refused by the strip, by name, and never read off a state's mark mask."""
    with pytest.raises(ValueError, match=rf"{op.kind}\({op.site}\) does not fit"):
        edge_operator(width, 0, op)


def test_edge_operator_refuses_more_marks_than_points():
    with pytest.raises(ValueError, match="cannot mark 3 blocks on width 2"):
        edge_operator(2, 3, vertical(0))


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
        rotated = CyclicStrip(3, 2, program[shift:] + program[:shift])
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


def _mirror(key):
    """The state key with point i moved to width-1-i, marks kept."""
    state = ConnectivityState.from_key(key)
    top = state.width - 1
    raw = sorted(
        (tuple(sorted(top - p for p in block)), i in state.marked)
        for i, block in enumerate(state.blocks)
    )
    return ConnectivityState(
        state.width,
        tuple(b for b, _ in raw),
        tuple(i for i, (_, marked) in enumerate(raw) if marked),
    ).key


@pytest.mark.parametrize("width", range(1, 7))
def test_reflection_orbits_cover_each_sector(width):
    """One start per orbit of the width reflection, named by its lower
    index, weighted 1 exactly when the reflection fixes it: the weights
    add up to the sector's size."""
    for marks in range(width + 1):
        basis = enumerate_states(width, marks)
        index = {s: k for k, s in enumerate(basis)}
        orbits = transfer._reflection_orbits(width, marks)
        assert sum(weight for _, weight in orbits) == count_states(width, marks)
        named = set()
        for k, weight in orbits:
            image = index[_mirror(basis[k])]
            assert k <= image and weight == (1 if k == image else 2)
            named |= {k, image}
        assert named == set(range(len(basis)))


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

    def counting_push(program, start, w, reach=()):
        starts.append(start)
        return _push(program, start, w, reach)

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


_INTERLEAVED = (vertical(0), horizontal(0), vertical(1), horizontal(1), horizontal(2))


def _places(poly, offset):
    """(c, a) of each monomial Q^a v^b of ``poly``, with c = a + b - offset."""
    return [(a + b - offset, a) for (a, b, _), _ in poly.terms()]


def _bond_counts(strip):
    """(horizontal bonds H, vertical bonds C) of one column of ``strip``."""
    h = sum(op.kind == HORIZONTAL for op in strip.column_program)
    return h, len(strip.column_program) - h


@pytest.mark.parametrize(
    "strip",
    [square_strip(width, 1) for width in range(1, 6)]
    + [pytest.param(CyclicStrip(3, 1, _INTERLEAVED), id="interleaved:3x1")],
    ids=str,
)
def test_column_entries_obey_the_euler_relation(strip):
    """A horizontal bond weighs v, or detaches its point into a new block
    (1) or off a finished cluster (Q); a vertical bond weighs 1, or v as it
    merges two blocks or closes a cycle inside one.  So every monomial
    Q^a v^b of the entry from state s to state t has
    c = a + b - H - (blocks(s) - blocks(t)) cycles closed, 0 <= c <= C,
    and (c, a) places each monomial of an entry once."""
    h, c_max = _bond_counts(strip)
    for marks in range(strip.width + 1):
        block = column_transfer(strip, marks)
        blocks = [len(ConnectivityState.from_key(key).blocks) for key in block.basis]
        for t, row in enumerate(block.rows):
            for s, entry in enumerate(row):
                places = _places(entry, h + blocks[s] - blocks[t])
                assert all(0 <= c <= c_max for c, _ in places), (marks, s, t, places)
                assert len(set(places)) == len(places)


@pytest.mark.parametrize(
    "strip", [square_strip(width, length) for width in range(1, 6) for length in (1, 2, 3)], ids=str
)
def test_characters_obey_the_euler_relation(strip):
    """On the trace the block counts cancel: each monomial of K(l) closes
    c = a + b - N H cycles, 0 <= c <= N C."""
    h, c_max = _bond_counts(strip)
    for marks in range(strip.width + 1):
        places = _places(character_K(strip, marks), strip.length * h)
        assert all(0 <= c <= strip.length * c_max for c, _ in places), (marks, places)
        assert len(set(places)) == len(places)


def _pruned_diagonal(strip, marks):
    """(T_l^N)_ss for every start s, each pushed with the last column's
    reach masks as ``character_K`` pushes it, as packed ints."""
    n = count_states(strip.width, marks)
    program = _column_program(strip, marks) * strip.length
    reach = transfer._reach(strip.width, marks, strip.column_program)
    w = _slot_width(len(program), n)
    cols = [_push(program, b, w, reach) for b in range(n)]
    assert all(col.keys() <= {b} for b, col in enumerate(cols))  # only the start is left
    return [col.get(b, 0) for b, col in enumerate(cols)]


@pytest.mark.parametrize(
    "strip",
    [square_strip(width, length) for width in range(1, 6) for length in (1, 2, 3)]
    + [square_strip(6, 1), square_strip(6, 2)]
    + [
        pytest.param(CyclicStrip(3, length, _INTERLEAVED), id=f"interleaved:3x{length}")
        for length in (1, 2, 3)
    ],
    ids=str,
)
def test_pruned_trace_equals_the_full_diagonal(strip):
    """Pushing a start with the last column's reach masks drops only rows
    that cannot return to it, so every diagonal entry, and the character,
    is the one the full pushes give."""
    for marks in range(strip.width + 1):
        diagonal, w, bonds = _full_diagonal(strip, marks)
        assert _pruned_diagonal(strip, marks) == diagonal
        assert character_K.__wrapped__(strip, marks) == _unpack(sum(diagonal), w, bonds)


def test_reach_keeps_the_start_and_only_rows_that_return_to_it():
    """On a one-column strip every start can return to itself, so it is
    kept before the first bond, while before the last bond only the rows
    with a branch into the start survive, and after it only the start."""
    strip = square_strip(4, 1)
    column = _column_program(strip, 1)
    reach = transfer._reach(4, 1, strip.column_program)
    assert len(reach) == len(column) + 1
    for b in range(count_states(4, 1)):
        assert reach[0][b] >> b & 1
        last = {k for k in range(len(column[-1])) if reach[-2][k] >> b & 1}
        assert last == {k for k, row in enumerate(column[-1]) if b in (a for a, _ in row)}
        assert {k for k in range(len(column[-1])) if reach[-1][k] >> b & 1} == {b}


@pytest.mark.parametrize(
    "strip",
    [square_strip(width, 1) for width in range(1, 6)]
    + [pytest.param(CyclicStrip(3, 1, _INTERLEAVED), id="interleaved:3x1")],
    ids=str,
)
def test_reach_masks_are_the_rows_a_push_reaches(strip):
    """Bit t of ``reach[j][a]`` is set exactly when pushing row a through
    bonds j.. of the column gives a non-zero row t, on every sector."""
    for marks in range(strip.width + 1):
        column = _column_program(strip, marks)
        reach = transfer._reach(strip.width, marks, strip.column_program)
        assert len(reach) == len(column) + 1
        assert reach[-1] == tuple(1 << a for a in range(len(column[0])))
        for j in range(len(column)):
            w = _slot_width(len(column) - j, len(column[j]))
            for a, mask in enumerate(reach[j]):
                rows = _push(column[j:], a, w)
                assert mask == sum(1 << t for t, c in rows.items() if c), (marks, j, a)


def test_the_last_column_has_one_table_per_bond():
    """Pruning reads the forward bond tables alone: no reversed table, no
    per-start cone, no ``defaultdict`` import."""
    assert not hasattr(transfer, "_sources") and not hasattr(transfer, "_cone")
    tree = ast.parse(inspect.getsource(transfer))
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "defaultdict" not in imported


def test_budget_bounds_every_column_a_character_pushes(monkeypatch):
    """``check_character_budget`` predicts n * w * (E + 1)**2 bits per
    column; no column that any push of ``character_K`` holds, after any
    bond, has more bits, on every sector up to 5x4 and up to 6x3."""
    held = []

    def recording_push(program, start, w, reach=()):
        # ``_push`` bond by bond, keeping the bits of each column it holds:
        # from the bond before the last column on, a branch goes only into a
        # row whose mask for the next bond holds the start
        shifts = transfer._shifts(w, len(program))
        col = {start: 1}
        for j, table in enumerate(program, len(reach) - 1 - len(program)):
            out = {}
            for k, c in col.items():
                for a, code in table[k]:
                    if j < -1 or reach[j + 1][a] >> start & 1:
                        for s in shifts[code]:
                            out[a] = out.get(a, 0) + (c << s)
            col = out
            held.append(sum(c.bit_length() for c in col.values()))
        assert col == _push(program, start, w, reach)
        return col

    monkeypatch.setattr(transfer, "_push", recording_push)
    strips = [square_strip(width, length) for width in range(1, 6) for length in (1, 2, 3, 4)]
    for strip in strips + [square_strip(6, length) for length in (1, 2, 3)]:
        for marks in range(strip.width + 1):
            n, bonds, w = check_character_budget(strip, marks)
            del held[:]
            character_K.__wrapped__(strip, marks)
            assert held and max(held) <= n * w * (bonds + 1) ** 2


class _DegVFirst(transfer._Layout):
    """The packed layout with deg_v before deg_Q: Q -> 2**w and
    v -> 2**(w * (E + 1)).  It has as many slots, written its own way."""

    SLOTS_TEXT = "(1 + E)**2"

    @staticmethod
    def slot(deg_q, deg_v, bonds):
        return deg_v * (bonds + 1) + deg_q

    @staticmethod
    def monomial(slot, bonds):
        deg_v, deg_q = divmod(slot, bonds + 1)
        return deg_q, deg_v


def test_a_second_layout_is_a_change_to_the_one_definition(monkeypatch):
    """A deg_v-before-deg_Q layout, swapped in by patching ``_Layout`` alone,
    gives the same K(l) on every sector of 3x4, 4x3 and 5x2 and the same
    ``column_transfer`` on square 3x1, 4x1 and the interleaved 3x1, and the
    budget floor's refusal prints the swapped layout's slot count."""
    strips = [square_strip(3, 4), square_strip(4, 3), square_strip(5, 2)]
    columns = [square_strip(3, 1), square_strip(4, 1), CyclicStrip(3, 1, _INTERLEAVED)]

    def compute():
        return (
            [character_K.__wrapped__(s, m) for s in strips for m in range(s.width + 1)],
            [column_transfer.__wrapped__(s, m) for s in columns for m in range(s.width + 1)],
        )

    reference = compute()
    assert transfer._shifts(8, 1)[transfer._Q] == (16,)
    monkeypatch.setattr(transfer, "_Layout", _DegVFirst)
    transfer._shifts.cache_clear()
    try:
        assert transfer._shifts(8, 1)[transfer._Q] == (8,)  # the swapped layout is read
        swapped = compute()
        with pytest.raises(ValueError, match=r"at least 8 \* \(1 \+ E\)\*\*2 bits"):
            check_character_budget(square_strip(2, 10**5), 0)
    finally:
        monkeypatch.undo()
        transfer._shifts.cache_clear()
    assert swapped == reference


def test_only_the_layout_states_the_slot_layout():
    """Outside ``_Layout``, no code of ``transfer`` states the slot radix
    (a ``divmod``, a power, or E + 1: the only sums with 1 are a width's
    and ``_slot_width``'s carry bit) or a bit-to-monomial table (a tuple of
    exponents 0 and 1); each reader of the layout names ``_Layout``."""
    plus_one = {"width + 1", "strip.width + 1", "bonds + states.bit_length() + 1"}
    tree = ast.parse(inspect.getsource(transfer))
    layout = next(n for n in tree.body if getattr(n, "name", None) == "_Layout")
    tree.body.remove(layout)
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.Name) and node.id == "divmod")
        if isinstance(node, ast.BinOp) and isinstance(node.right, ast.Constant):
            assert not isinstance(node.op, ast.Pow), ast.unparse(node)
            if isinstance(node.op, ast.Add) and node.right.value == 1:
                assert ast.unparse(node) in plus_one, ast.unparse(node)
        if isinstance(node, ast.Tuple) and node.elts:
            assert not all(isinstance(e, ast.Constant) and e.value in (0, 1) for e in node.elts)
    readers = (transfer._shifts, transfer._unpack, transfer._weight, _compile, check_character_budget)
    for reader in readers:
        assert "_Layout" in inspect.getsource(reader), reader.__name__


def test_characters_are_computed_once():
    strip = square_strip(2, 3)
    first = character_K(strip, 1)
    assert character_K(strip, 1) is first
    assert character_K.cache_info().maxsize == _CACHE_SIZE


def test_the_module_caches_only_what_a_later_call_rereads():
    """The compiled basis and bond tables, the shift tables, the characters
    and the column blocks are cached; what one character derives from them,
    its reach masks and reflection orbits, is built per call and freed."""
    cached = {name for name, value in vars(transfer).items() if hasattr(value, "cache_info")}
    assert cached == {"_index", "_bond_table", "_shifts", "character_K", "column_transfer"}


def test_compile_refuses_weights_beyond_the_packing_bound(monkeypatch):
    """An empty weight, a monomial outside {1, v, Q}, and branch weights
    adding up to 3 at Q = v = 1 would each break the slot width."""
    join, _, _, _ = transfer._MOVES[VERTICAL]
    for weights in ((1, 2, 0), (1, 8, 3), (3, 1, 3)):  # kept, moved, unchanged
        monkeypatch.setitem(transfer._MOVES, VERTICAL, (join, *weights))
        with pytest.raises(AssertionError, match="packing bound"):
            _compile(transfer._index(3, 1), vertical(0))


def test_compile_refuses_targets_outside_the_basis(monkeypatch):
    """A branch to a key the enumerated basis does not hold, here a nested
    marked block that no valid state has, is refused by op and state
    rather than with a bare KeyError."""
    index = transfer._index(3, 1)
    nested = (0, 1, 0, 0b10)  # blocks (0, 2) and (1,), the inner one marked
    assert nested not in index

    def leaving(key, i):
        return nested

    monkeypatch.setitem(transfer._MOVES, VERTICAL, (leaving, *transfer._MOVES[VERTICAL][1:]))
    with pytest.raises(AssertionError, match=r"vertical\(1\) on .* leaves the basis"):
        _compile(index, vertical(1))


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


def test_budget_floor_comes_before_the_state_count(monkeypatch):
    """8 * (E + 1)**2 bits is the floor of every non-empty sector, so a
    strip whose bonds alone break the column cap is refused before its
    states are counted; lattice.MAX_WIDTH - 1 is the widest square strip
    that passes it."""
    def no_count(*args):
        raise AssertionError("states were counted")

    monkeypatch.setattr(transfer, "count_states", no_count)
    for strip in (square_strip(2, 10**5), square_strip(MAX_WIDTH, 1)):
        with pytest.raises(ValueError, match=r"at least 8 \* \(E \+ 1\)\*\*2 bits"):
            check_character_budget(strip, 0)
    with pytest.raises(AssertionError, match="states were counted"):
        check_character_budget(square_strip(MAX_WIDTH - 1, 1), 0)


def test_budget_floor_spares_an_empty_sector():
    """A sector with more marks than sites has no states, whatever the
    bond count: its budget is n = 0 and its character is zero."""
    strip = square_strip(2, 3000)
    assert check_character_budget(strip, 5) == (0, 9000, _slot_width(9000, 0))
    assert character_K(strip, 5) == MultiPoly.zero()


def test_characters_of_reads_each_distinct_sector_once(monkeypatch):
    """Each distinct m is read once and keyed by m in increasing order, and
    an m above the width reads as zero."""
    strip = square_strip(2, 3)
    reads = []

    def counted(strip, m):
        reads.append(m)
        return character_K.__wrapped__(strip, m)

    monkeypatch.setattr(transfer, "character_K", counted)
    got = characters_of(strip, [2, 0, 3, 2, 1, 0])
    assert sorted(reads) == list(got) == [0, 1, 2, 3]
    assert got == {m: character_K(strip, m) for m in range(4)}
    assert got[3] == MultiPoly.zero()


def test_characters_of_refuses_before_any_sector_is_built(monkeypatch):
    """On 7x4 K(0) fits the caps and K(1) does not: asked for both, the
    read is refused before K(0) is computed or a state is built."""
    def built(*args):
        raise AssertionError("a sector was built")

    monkeypatch.setattr(transfer, "character_K", built)
    monkeypatch.setattr(transfer, "enumerate_states", built)
    strip = square_strip(7, 4)
    check_character_budget(strip, 0)
    with pytest.raises(ValueError, match=r"K\(1\) of square:7x4 .* caps are"):
        characters_of(strip, [0, 1])


def test_budget_message_shows_a_huge_state_count_by_its_size():
    """A one-bond program passes the floor at any width; Catalan(10000) has
    6015 digits, past the int-to-string limit, and shows as a power of two."""
    strip = CyclicStrip(10000, 1, (vertical(0),))
    with pytest.raises(ValueError, match=r"needs over 2\*\*19979 states .* caps are"):
        check_character_budget(strip, 0)


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


def test_second_block_check_compiles_nothing():
    """The two-slice tables are the cached ``_bond_table``s of 2L unmarked
    points, so a second check of the same width finds every table cached."""
    verify_block_structure(square_strip(3, 1))
    misses = transfer._bond_table.cache_info().misses
    report = verify_block_structure(square_strip(3, 1))
    assert report.passed
    assert transfer._bond_table.cache_info().misses == misses


def test_the_engine_reads_states_only_by_key():
    """``_index`` is the one basis cache per (width, marks), and the engine
    binds no state class: it reads enumerated states only by their keys."""
    assert not hasattr(transfer, "_basis")
    assert not hasattr(transfer, "ConnectivityState")
    index = transfer._index(3, 1)
    assert list(index) == enumerate_states(3, 1)
    assert transfer._index(3, 1) is index


def test_edge_operators_of_one_sector_enumerate_it_once(monkeypatch):
    """Every ``TransferBlock`` takes its basis from the cached ``_index``:
    the edge operators of the 11 bonds of a width-6 column, on the
    two-mark sector, enumerate that sector at most once between them, and
    their basis is the enumeration's keys."""
    calls = []

    def counting(width, marks):
        calls.append((width, marks))
        return enumerate_states(width, marks)

    monkeypatch.setattr(transfer, "enumerate_states", counting)
    transfer._index.cache_clear()
    program = square_strip(6, 1).column_program
    assert len(program) == 11
    blocks = [edge_operator(6, 2, op) for op in program]
    assert len(calls) <= 1
    assert all(block.basis == tuple(enumerate_states(6, 2)) for block in blocks)


def _with_row(monkeypatch, op, key, edit):
    """Compile bond ``op`` with the row of state ``key`` replaced by
    ``edit(row, index)``.  The tables are cached ``_bond_table``s: they are
    dropped here, so that they compile under the patch, and the caller
    drops those compiled under it after."""
    compile_ = transfer._compile

    def patched(index, bond):
        table = compile_(index, bond)
        if bond != op or key not in index:
            return table
        k = index[key]
        return table[:k] + (edit(table[k], index),) + table[k + 1 :]

    transfer._bond_table.cache_clear()
    monkeypatch.setattr(transfer, "_compile", patched)


def _bridges(key, width):
    """The bridge count of a two-slice key: the mark count of its halves."""
    return split_two_slice(key, width)[0][-1].bit_count()


def _weigh_one_branch_q(monkeypatch):
    """Compile bond horizontal(1) of width 3, on the right slice, with one
    branch of one two-slice state weighted Q instead of 1, still within
    the packing bound; returns that state's bridge count."""
    bridges = {key: _bridges(key, 3) for key in enumerate_two_slice(3)}
    # horizontal(1) on the right slice: right point 1 sits at point 2L-2 = 4
    op = horizontal(4)
    index = transfer._index(6, 0)
    keys, table = list(index), transfer._bond_table(6, 0, op)
    # a state whose detach branch stays among the states of its bridge count;
    # its width-6 key cannot collide with the key of a width-3 reduced state
    wrong = next(
        key
        for key in bridges
        if len(row := table[index[key]]) == 2 and bridges[keys[row[1][0]]] == bridges[key]
    )
    _with_row(monkeypatch, op, wrong, lambda row, index: (row[0], (row[1][0], transfer._Q)))
    return bridges[wrong]


def test_block_structure_reports_a_wrong_weight(monkeypatch):
    """One branch of one two-slice state weighted Q instead of 1, still
    within the packing bound, fails the check in that state's sector, and
    the message shows the two weights as polynomials."""
    strip = square_strip(3, 1)
    sector = _weigh_one_branch_q(monkeypatch)
    report = verify_block_structure(strip)
    monkeypatch.undo()
    transfer._bond_table.cache_clear()
    assert not report.passed
    assert [s.matches_reference for s in report.sectors] == [
        l != sector for l in range(4)
    ]
    # the faulted bond's own entries on the sector's states
    reference = {str(e) for row in edge_operator(3, sector, horizontal(1)).rows for e in row}
    mismatches = [f for f in report.failures if f.startswith("entry mismatch")]
    assert mismatches and all(f.startswith(f"entry mismatch at l={sector}") for f in mismatches)
    for failure in mismatches:
        got, want = failure.rsplit(": ", 1)[1].split(" != ")
        assert want in reference
        assert "Q" in got and got not in reference


def _rerouted_check(monkeypatch, strip, op, source, target, check=verify_block_structure):
    """The block check of ``strip`` with the first branch of bond ``op`` on
    two-slice key ``source`` sent to ``target`` at the same weight, which
    keeps the packing bound."""
    _with_row(monkeypatch, op, source, lambda row, index: ((index[target], row[0][1]), *row[1:]))
    try:
        return check(strip)
    finally:
        monkeypatch.undo()
        transfer._bond_table.cache_clear()


def _one_bond_move(leaves_group):
    """A width-2 strip whose column program is the one bond horizontal(0),
    that bond on the right slice, and a (source, target) pair of two-slice
    states: the target has the source's bridge count and another left half
    when ``leaves_group``, and more bridges otherwise."""
    strip = CyclicStrip(2, 1, (horizontal(0),))
    group = {key: (_bridges(key, 2), split_two_slice(key, 2)[0]) for key in enumerate_two_slice(2)}

    def wanted(a, b):
        (bridges_a, left_a), (bridges_b, left_b) = group[a], group[b]
        if leaves_group:
            return bridges_a == bridges_b and left_a != left_b
        return bridges_a < bridges_b

    source, target = next((a, b) for a in group for b in group if wanted(a, b))
    return strip, transfer._on_right_slice(horizontal(0), 2), source, target, group


def test_block_structure_reports_leakage_between_groups(monkeypatch):
    """A branch sent to a state of the same bridge count but another left
    half breaks the zero between the groups of that sector only, and
    the one leakage message names the move."""
    strip, op, source, target, group = _one_bond_move(leaves_group=True)
    assert verify_block_structure(strip).passed
    report = _rerouted_check(monkeypatch, strip, op, source, target)
    sector = group[source][0]
    assert not report.passed and report.triangular_ok
    assert [s.cross_group_zero for s in report.sectors] == [l != sector for l in range(3)]
    render = {key: render_two_slice(key, 2) for key in enumerate_two_slice(2)}
    assert [f for f in report.failures if f.startswith("leakage")] == [
        f"leakage between sub-blocks at l={sector}: {render[source]} -> {render[target]}"
    ]


def test_block_structure_reports_a_growing_bridge_count(monkeypatch):
    """A branch sent to a state with more bridges fails the triangular check
    and names the move."""
    strip, op, source, target, group = _one_bond_move(leaves_group=False)
    report = _rerouted_check(monkeypatch, strip, op, source, target)
    assert not report.passed and not report.triangular_ok
    assert all(s.cross_group_zero for s in report.sectors)
    render = {key: render_two_slice(key, 2) for key in enumerate_two_slice(2)}
    assert (
        f"bridge count grows {group[source][0]} -> {group[target][0]} on "
        f"{render[source]} -> {render[target]}"
    ) in report.failures


def test_block_structure_reports_a_half_outside_the_basis(monkeypatch):
    """A two-slice key whose right half is no key of the l-mark basis fails
    its sector once, as a group that does not reduce onto the reference
    basis, and leaves that sector uncompared; the pushed-column reference
    reports it alike."""
    split = transfer.split_two_slice
    source = next(key for key in enumerate_two_slice(2) if _bridges(key, 2) == 1)

    def broken(key, width):
        # a mark on a label that no block has
        left, right = split(key, width)
        return left, right[:-1] + (right[-1] | (key == source) << width,)

    monkeypatch.setattr(transfer, "split_two_slice", broken)
    checks = (verify_block_structure, pushed_block_structure)
    reports = [check(square_strip(2, 1)) for check in checks]
    monkeypatch.undo()
    for report in reports:
        assert not report.passed and report.triangular_ok
        assert report.failures.count("group at l=1 does not reduce onto the reference basis") == 1
        assert [s.matches_reference for s in report.sectors] == [True, False, True]
        assert sorted(report.sectors[1].group_sizes) == [2, 3, 3]
    assert reports[0] == reports[1]


def test_block_structure_width_cap():
    with pytest.raises(ValueError):
        verify_block_structure(square_strip(6, 1))


def test_block_structure_of_width_five():
    """Width 5 has Catalan(10) = 16796 two-slice states; each bridge
    sector splits into n(5, l) groups of n(5, l) states."""
    report = verify_block_structure(square_strip(5, 1))
    assert report.passed and report.triangular_ok
    assert report.dimension == catalan(10)
    counts = [count_states(5, l) for l in range(6)]
    assert [s.group_count for s in report.sectors] == counts
    assert [s.group_sizes for s in report.sectors] == [(n,) * n for n in counts]


@pytest.mark.parametrize(
    "strip",
    [square_strip(width, 1) for width in range(1, 5)]
    + [pytest.param(CyclicStrip(3, 1, _INTERLEAVED), id="interleaved:3x1")],
    ids=str,
)
def test_block_check_equals_the_pushed_column_reference(strip):
    assert verify_block_structure(strip) == pushed_block_structure(strip)


def _flags(report):
    return report.triangular_ok, [(s.cross_group_zero, s.matches_reference) for s in report.sectors]


def test_both_block_checks_flag_each_fault_alike(monkeypatch):
    """On the three faults above, a wrong weight, a leak between groups and
    a rising bridge count, the bond-by-bond check and the pushed-column
    reference both fail, in the same sectors with the same flags."""
    reports = []
    for check in (verify_block_structure, pushed_block_structure):
        _weigh_one_branch_q(monkeypatch)
        try:
            reports.append(check(square_strip(3, 1)))
        finally:
            monkeypatch.undo()
            transfer._bond_table.cache_clear()
    for leaves_group in (True, False):
        one_bond, moved, source, target, _ = _one_bond_move(leaves_group)
        for check in (verify_block_structure, pushed_block_structure):
            reports.append(_rerouted_check(monkeypatch, one_bond, moved, source, target, check))
    for new, reference in zip(reports[::2], reports[1::2]):
        assert not new.passed and not reference.passed
        assert _flags(new) == _flags(reference)


def test_block_check_pushes_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("the block check pushed a column")

    monkeypatch.setattr(transfer, "_push", refuse)
    assert verify_block_structure(square_strip(4, 1)).passed
    tree = ast.parse(inspect.getsource(transfer.verify_block_structure))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not names & {"_push", "_slot_width", "_shifts"}
