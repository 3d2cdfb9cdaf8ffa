"""Connectivity states: non-crossing partitions with marked blocks."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottstrip import connectivity
from pottstrip.connectivity import (
    ConnectivityState,
    catalan,
    count_states,
    detach,
    enumerate_states,
    enumerate_two_slice,
    join,
    mirror,
    render_two_slice,
    right_position,
    split_two_slice,
)


def test_catalan_values():
    assert [catalan(n) for n in range(9)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430,
    ]


def test_count_states_table():
    # widths 1..3, all mark counts
    assert [count_states(1, l) for l in range(3)] == [1, 1, 0]
    assert [count_states(2, l) for l in range(4)] == [2, 3, 1, 0]
    assert [count_states(3, l) for l in range(5)] == [5, 9, 5, 1, 0]


def test_count_states_matches_enumeration():
    for width in range(1, 5):
        for marks in range(width + 2):
            states = enumerate_states(width, marks)
            assert len(states) == count_states(width, marks)
            assert len(set(states)) == len(states)


def _canonical_order(key):
    """The canonical order as a sort key: the key's block labels, then one
    mark flag per block, in block order."""
    *labels, mask = key
    return tuple(labels), tuple(mask >> k & 1 for k in range(max(labels) + 1))


def test_enumeration_is_code_sorted():
    for width in range(1, 5):
        for marks in range(width + 1):
            keys = enumerate_states(width, marks)
            assert keys == sorted(keys, key=_canonical_order)


def test_noncrossing_partition_count():
    for n in range(1, 8):
        parts = [ConnectivityState.from_key(key).blocks for key in enumerate_states(n, 0)]
        assert len(parts) == catalan(n)
        assert len(set(parts)) == len(parts)


def _crossing_free(blocks) -> bool:
    for (b1, b2) in itertools.combinations(blocks, 2):
        for a, c in itertools.product(b1, b1):
            for b, d in itertools.product(b2, b2):
                if a < b < c < d:
                    return False
    return True


def test_noncrossing_partitions_are_noncrossing():
    for key in enumerate_states(6, 0):
        assert _crossing_free(ConnectivityState.from_key(key).blocks)


def _restricted_growth_strings(n):
    """Every restricted growth string of length n >= 1, in lexicographic
    order: point p's block index is at most one above the largest before."""
    def grow(prefix):
        if len(prefix) == n:
            yield prefix
            return
        for k in range(max(prefix) + 2):
            yield from grow(prefix + (k,))

    yield from grow((0,))


def _reference_states(width, marks):
    """The crossing-free restricted growth strings in lexicographic order,
    each with every choice of ``marks`` blocks no other block encloses, in
    increasing order of the mark flags: the canonical order, built without
    the enumeration's walk."""
    out = []
    for rgs in _restricted_growth_strings(width):
        blocks = tuple(
            tuple(p for p in range(width) if rgs[p] == k) for k in range(max(rgs) + 1)
        )
        if not _crossing_free(blocks):
            continue
        free = [
            k for k, b in enumerate(blocks)
            if not any(c[0] < b[0] and c[-1] > b[-1] for c in blocks)
        ]
        choices = sorted(
            itertools.combinations(free, marks),
            key=lambda chosen: [k in chosen for k in range(len(blocks))],
        )
        out += [ConnectivityState(width, blocks, chosen) for chosen in choices]
    return out


def test_enumeration_equals_the_restricted_growth_string_reference():
    """Contents and order of every sector up to width 8, which also covers
    the two-slice states of widths up to 4 (Bell(8) = 4140 strings)."""
    assert sum(1 for _ in _restricted_growth_strings(8)) == 4140
    for width in range(1, 9):
        for marks in range(width + 2):
            reference = [s.key for s in _reference_states(width, marks)]
            assert enumerate_states(width, marks) == reference, (width, marks)


def test_every_enumerated_state_passes_the_validating_constructor(monkeypatch):
    """``enumerate_states`` writes keys without validating them: each key
    of every sector up to width 8 is the key of the state ``from_key``
    builds, and accepts, from it, and the walk never calls the validator."""
    for width in range(1, 9):
        for marks in range(width + 1):
            for key in enumerate_states(width, marks):
                assert ConnectivityState.from_key(key).key == key

    def refuse(blocks, n_points):
        raise AssertionError("enumerate_states re-validated a state")

    monkeypatch.setattr(connectivity, "_validate_partition", refuse)
    assert len(enumerate_states(6, 2)) == count_states(6, 2)


def test_state_validation():
    for width, blocks, marked in (
        (4, ((0, 2), (1, 3)), ()),  # crossing blocks
        (4, ((0, 3), (1, 2)), (1,)),  # mark on a nested block: (0,3) encloses (1,2)
        (2, ((0,),), ()),  # point missing
        (1, ((0,),), (1,)),  # mark index out of range
        (2, [(0,), (1,)], ()),  # blocks not a tuple
        (2, ((0, 1), ()), ()),  # empty block
        (2, ((1, 0),), ()),  # unsorted block
        (2, ((0, 0), (1,)), ()),  # repeated point
        (2, ((0,), (0, 1)), ()),  # point in two blocks
        (2, ((1,), (0,)), ()),  # blocks out of order
        (2, ((0, 2), (1,)), ()),  # point outside the width
        (2, ((-1, 0), (1,)), ()),  # negative point
    ):
        with pytest.raises(ValueError):
            ConnectivityState(width, blocks, marked)


def _nested(blocks, k) -> bool:
    """Some block starts before block k and ends after it."""
    return any(c[0] < blocks[k][0] and c[-1] > blocks[k][-1] for c in blocks)


def test_constructor_accepts_exactly_noncrossing_partitions_with_unnested_marks():
    """Every set partition of up to 7 points with every subset of its blocks
    marked, against the pairwise definitions of crossing and nesting."""
    accepted = 0
    for width in range(1, 8):
        for rgs in _restricted_growth_strings(width):
            blocks = tuple(
                tuple(p for p in range(width) if rgs[p] == k)
                for k in range(max(rgs) + 1)
            )
            crossing = not _crossing_free(blocks)
            for size in range(len(blocks) + 1):
                for marked in itertools.combinations(range(len(blocks)), size):
                    if crossing or any(_nested(blocks, k) for k in marked):
                        with pytest.raises(ValueError):
                            ConnectivityState(width, blocks, marked)
                    else:
                        assert ConnectivityState(width, blocks, marked).marked == marked
                        accepted += 1
    # as many accepted as there are states of these widths
    assert accepted == sum(
        count_states(width, marks) for width in range(1, 8) for marks in range(width + 1)
    )


def test_the_widest_sectors_enumerate_fast_in_code_order():
    start = time.perf_counter()
    keys = enumerate_states(300, 299)
    assert time.perf_counter() - start < 1.0
    assert len(keys) == count_states(300, 299)
    order = [_canonical_order(key) for key in keys]
    assert all(a < b for a, b in zip(order, order[1:]))
    assert [ConnectivityState.from_key(key).key for key in keys[::50]] == keys[::50]


def _state(width: int, key) -> ConnectivityState:
    """The state of a move's key, through the validating constructor, with
    ``width`` points."""
    state = ConnectivityState.from_key(key)
    assert state.width == width
    return state


def test_from_key_refuses_what_is_not_a_state_key():
    """A key decodes to its blocks in label order and its marked labels;
    the constructor refuses an invalid state, the round trip a
    non-canonical key, and the decoder an entry that is not an int."""
    for key in (
        (1, 0, 0),  # labels out of first-occurrence order
        (0, 2, 0),  # a skipped label
        (0, 1, 0, 1, 0),  # crossing blocks
        (0, 1, 0, 2),  # a mark on the nested block
        (0, 0, 2),  # a mark on no block
        (0,),  # no point
        (),  # not even a mask
        (0.0, 0),  # a float label
        (0, True),  # a bool mask
        (0, 1.5),  # a float mask
        (0, "x"),  # a str mask
        (0, None),  # no mask
    ):
        with pytest.raises(ValueError):
            ConnectivityState.from_key(key)


def test_join_marks():
    s = ConnectivityState(3, ((0,), (1,), (2,)), marked=(0,))
    merged = _state(3, join(s.key, 0))
    assert merged.mark_count == 1
    assert merged.blocks == ((0, 1), (2,))
    assert merged.marked == (0,)
    assert _state(3, join(s.key, 1)).mark_count == 1
    two = ConnectivityState(3, ((0,), (1,), (2,)), marked=(0, 1))
    assert join(two.key, 0) is None  # fusing two marked blocks leaves the sector
    assert _state(3, join(two.key, 1)).mark_count == 2


def test_join_same_block_is_identity():
    key = ConnectivityState(2, ((0, 1),), marked=(0,)).key
    assert join(key, 0) is key


def test_detach_outcomes():
    populated = ConnectivityState(2, ((0, 1),), marked=(0,))
    state = _state(2, detach(populated.key, 0))
    assert state.mark_count == 1  # the survivor keeps the mark
    assert state.blocks == ((0,), (1,))
    assert state.marked == (1,)

    # a finished, unmarked cluster leaves the key itself
    unmarked_singleton = ConnectivityState(2, ((0,), (1,)))
    key = unmarked_singleton.key
    assert detach(key, 1) is key

    # vacating a marked block would leave the sector
    marked_singleton = ConnectivityState(2, ((0,), (1,)), marked=(0,))
    assert detach(marked_singleton.key, 0) is None


def test_join_detach_preserve_validity_exhaustively():
    """Every state reachable by one bond move is again a valid state.

    Validity (non-crossing blocks, marked blocks unnested) is enforced by
    the constructor, so surviving construction is the assertion.
    """
    for width in range(1, 5):
        for marks in range(width + 1):
            for key in enumerate_states(width, marks):
                moved = [join(key, i) for i in range(width - 1)]
                moved += [detach(key, i) for i in range(width)]
                for target in moved:
                    if target is not None:
                        assert _state(width, target).mark_count == marks


@pytest.mark.parametrize("width", range(1, 7))
def test_move_contract_exhaustively(width):
    """On every state of every sector: a move returns None exactly when it
    would lower the mark count, the key itself exactly when it changes
    nothing (a bond inside one block, or a finished unmarked cluster), and
    otherwise a new valid key of the same sector."""
    for marks in range(width + 1):
        basis = enumerate_states(width, marks)
        keys = set(basis)
        for key in basis:
            s = ConnectivityState.from_key(key)
            owner = {p: b for b in s.blocks for p in b}
            marked = {s.blocks[k] for k in s.marked}
            for i in range(width - 1):
                a, b = owner[i], owner[i + 1]
                got = join(key, i)
                assert (got is None) == (a != b and a in marked and b in marked)
                assert (got is key) == (a == b)
                if got is not None and got is not key:
                    assert got in keys
                    assert _state(width, got).mark_count == marks
            for i in range(width):
                got = detach(key, i)
                assert (got is None) == ((i,) in marked)
                assert (got is key) == (owner[i] == (i,) and (i,) not in marked)
                if got is not None and got is not key:
                    assert got in keys
                    assert _state(width, got).mark_count == marks


@pytest.mark.parametrize("width", range(1, 7))
def test_mirror_is_an_involution_on_every_sector(width):
    """``mirror`` reflects each block, point i -> width-1-i, keeps each
    block's mark, and maps every sector onto itself."""
    for marks in range(width + 1):
        keys = enumerate_states(width, marks)
        for key in keys:
            image = mirror(key)
            state, flipped = _state(width, key), _state(width, image)
            want = {
                (frozenset(width - 1 - p for p in b), k in state.marked)
                for k, b in enumerate(state.blocks)
            }
            got = {(frozenset(b), k in flipped.marked) for k, b in enumerate(flipped.blocks)}
            assert got == want
            assert mirror(image) == key
        assert {mirror(key) for key in keys} == set(keys)


def test_render():
    s = ConnectivityState(3, ((0, 1), (2,)), marked=(0,))
    assert s.render() == "(12•)(3)"


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_random_walks_stay_valid(width, data):
    """Random sequences of joins and detaches keep states well formed."""
    key = data.draw(
        st.sampled_from(
            [key for m in range(width + 1) for key in enumerate_states(width, m)]
        )
    )
    state = _state(width, key)
    marks = state.mark_count
    for _ in range(6):
        move = data.draw(st.sampled_from(["join", "detach"]))
        if move == "join" and width > 1:
            i = data.draw(st.integers(min_value=0, max_value=width - 2))
            key = join(state.key, i)
        else:
            i = data.draw(st.integers(min_value=0, max_value=width - 1))
            key = detach(state.key, i)
        if key is None:  # the move would leave the sector
            break
        state = _state(width, key)
        assert state.mark_count == marks


# ----------------------------------------------------------------------
# two-slice states: unmarked states of 2L points


def _two_slice(width: int, components: list[tuple[str, ...]]) -> ConnectivityState:
    """A two-slice state from human-style labels: "3'" is left point 3, "2"
    right point 2 (both 1-based), as ``render_two_slice`` writes them."""
    blocks = []
    for comp in components:
        block = []
        for label in comp:
            if label.endswith("'"):
                block.append(int(label[:-1]) - 1)
            else:
                block.append(right_position(width, int(label) - 1))
        blocks.append(tuple(sorted(block)))
    return ConnectivityState(2 * width, tuple(sorted(blocks)))


def test_enumerate_two_slice_is_the_unmarked_enumeration():
    for width in range(1, 5):
        assert enumerate_two_slice(width) == enumerate_states(2 * width, 0)


def test_two_slice_counts():
    for width in (1, 2, 3):
        states = enumerate_two_slice(width)
        assert len(states) == catalan(2 * width)
        assert len(set(states)) == len(states)


def test_two_slice_one_column():
    states = enumerate_two_slice(1)
    renders = sorted(render_two_slice(key, 1) for key in states)
    assert renders == ["(1')(1)", "(1'1)"]


def _bridges(key, width):
    """The bridge count of a two-slice key: the mark count of its halves."""
    return split_two_slice(key, width)[0][-1].bit_count()


def test_two_slice_bridge_distribution():
    for width in (1, 2, 3):
        for l in range(width + 1):
            matching = [key for key in enumerate_two_slice(width) if _bridges(key, width) == l]
            assert len(matching) == count_states(width, l) ** 2


def test_two_slice_membership_width_six():
    state = _two_slice(
        6,
        [
            ("1'", "1", "2"),
            ("2'",),
            ("3'", "4'", "6'", "6"),
            ("5'",),
            ("3", "5"),
            ("4",),
        ],
    )
    assert state.key in enumerate_two_slice(6)
    left, right = split_two_slice(state.key, 6)
    assert _state(6, left).mark_count == _state(6, right).mark_count == 2


def test_two_slice_moves_stay_in_the_basis():
    """Every right-slice join and detach of every two-slice state of width
    <= 3, made by ``join`` and ``detach`` on its unmarked key at the
    mirrored points, lands in the enumerated basis, and a detach returns the
    key itself exactly when the vacated block was the detached point alone."""
    for width in (1, 2, 3):
        basis = set(enumerate_two_slice(width))
        for key in basis:
            blocks = ConnectivityState.from_key(key).blocks
            for i in range(width - 1):
                # right points i, i+1 sit at points 2L-1-i and 2L-2-i
                joined = join(key, right_position(width, i + 1))
                assert joined[-1] == 0  # no marks
                assert _state(2 * width, joined).key in basis
            for i in range(width):
                pos = right_position(width, i)
                target = detach(key, pos)
                assert target is not None
                assert target[-1] == 0
                detached = _state(2 * width, target)
                assert detached.key in basis
                assert (target is key) == ((pos,) in blocks)
                assert (pos,) in detached.blocks


def test_two_slice_crossing_rejected():
    # chords 1'-2 and 2'-1 cross in the boundary order 1', 2', 2, 1
    with pytest.raises(ValueError):
        _two_slice(2, [("1'", "2"), ("2'", "1")])


def test_split_is_a_bijection_onto_pairs_of_l_mark_keys():
    """On widths 1-5 the two halves of a two-slice key are keys of one
    l-mark basis, and every pair of l-mark keys is the split of exactly one
    two-slice key: the sum over l of n(L, l)**2 is Catalan(2L)."""
    for width in range(1, 6):
        pairs = [split_two_slice(key, width) for key in enumerate_two_slice(width)]
        assert len(set(pairs)) == len(pairs) == catalan(2 * width)
        for l in range(width + 1):
            basis = enumerate_states(width, l)
            halves = sorted(pair for pair in pairs if pair[0][-1].bit_count() == l)
            assert halves == sorted(itertools.product(basis, basis))


def _induced(blocks, side) -> tuple[int, ...]:
    """The key of the slice state that the two-slice ``blocks`` induce on
    ``side``, the slice's points by their place on it, a block marked when
    it has points off the side too."""
    place = {p: k for k, p in enumerate(side)}
    induced = sorted(
        (tuple(sorted(place[p] for p in b if p in place)), not place.keys() >= set(b))
        for b in blocks
        if not place.keys().isdisjoint(b)
    )
    marked = tuple(k for k, (_, bridge) in enumerate(induced) if bridge)
    return ConnectivityState(len(side), tuple(b for b, _ in induced), marked).key


@pytest.mark.parametrize("width", range(1, 6))
def test_two_slice_readers_equal_their_block_definitions(width):
    """On every two-slice key of the width, the key readers equal the
    definitions on the blocks of the state the key decodes to: the left
    half is the partition of the left points, a block marked when it has a
    right point too (a bridge); the right half is that of the right points,
    right point k at ``right_position``, a block marked when it has a left
    point too; and the rendering primes the left points."""
    right = [right_position(width, k) for k in range(width)]
    for key in enumerate_two_slice(width):
        blocks = ConnectivityState.from_key(key).blocks
        halves = (_induced(blocks, range(width)), _induced(blocks, right))
        assert split_two_slice(key, width) == halves
        bridges = sum(1 for b in blocks if b[0] < width <= b[-1])
        assert halves[0][-1].bit_count() == halves[1][-1].bit_count() == bridges
        labels = (
            [f"{p + 1}'" if p < width else str(2 * width - p) for p in b] for b in blocks
        )
        assert render_two_slice(key, width) == "".join(f"({''.join(b)})" for b in labels)
