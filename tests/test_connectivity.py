"""Connectivity states: non-crossing partitions with marked blocks."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottstrip.connectivity import (
    ConnectivityState,
    DetachTag,
    bridge_count,
    catalan,
    count_states,
    detach,
    enumerate_states,
    enumerate_two_slice,
    join,
    left_profile,
    reduced,
    render_two_slice,
    right_position,
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


def test_enumeration_is_code_sorted():
    for width in range(1, 5):
        for marks in range(width + 1):
            codes = [s.code() for s in enumerate_states(width, marks)]
            assert codes == sorted(codes)


def test_noncrossing_partition_count():
    for n in range(1, 8):
        parts = [s.blocks for s in enumerate_states(n, 0)]
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
    for state in enumerate_states(6, 0):
        assert _crossing_free(state.blocks)


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
            assert enumerate_states(width, marks) == _reference_states(width, marks), (
                width, marks,
            )


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
    states = enumerate_states(300, 299)
    assert time.perf_counter() - start < 1.0
    assert len(states) == count_states(300, 299)
    codes = [s.code() for s in states]
    assert all(a < b for a, b in zip(codes, codes[1:]))
    assert [_decode(code) for code in codes[::50]] == states[::50]


def test_join_marks():
    s = ConnectivityState(3, ((0,), (1,), (2,)), marked=(0, 1))
    merged = ConnectivityState(3, *join(s.key, 0))
    assert merged.mark_count == 1
    assert merged.blocks == ((0, 1), (2,))
    assert ConnectivityState(3, *join(s.key, 1)).mark_count == 2


def test_join_same_block_is_identity():
    key = ConnectivityState(2, ((0, 1),), marked=(0,)).key
    assert join(key, 0) is key


def test_detach_outcomes():
    populated = ConnectivityState(2, ((0, 1),), marked=(0,))
    tag, key = detach(populated.key, 0)
    assert tag is DetachTag.STILL_POPULATED
    state = ConnectivityState(2, *key)
    assert state.mark_count == 1  # the survivor keeps the mark
    assert state.blocks == ((0,), (1,))

    unmarked_singleton = ConnectivityState(2, ((0,), (1,)))
    tag, key = detach(unmarked_singleton.key, 1)
    assert tag is DetachTag.COMPLETED_UNMARKED
    assert ConnectivityState(2, *key) == unmarked_singleton

    marked_singleton = ConnectivityState(2, ((0,), (1,)), marked=(0,))
    tag, key = detach(marked_singleton.key, 0)
    assert tag is DetachTag.TERMINATED_MARKED
    assert key is None


def test_join_detach_preserve_validity_exhaustively():
    """Every state reachable by one bond move is again a valid state.

    Validity (non-crossing blocks, marked blocks unnested) is enforced by
    the constructor, so surviving construction is the assertion.
    """
    for width in range(1, 5):
        for marks in range(width + 1):
            for s in enumerate_states(width, marks):
                for i in range(width - 1):
                    joined = ConnectivityState(width, *join(s.key, i))
                    assert joined.mark_count in (marks, marks - 1)
                for i in range(width):
                    tag, key = detach(s.key, i)
                    if tag is DetachTag.TERMINATED_MARKED:
                        assert key is None
                    else:
                        assert ConnectivityState(width, *key).mark_count == marks


def _decode(code: bytes) -> ConnectivityState:
    """The state behind ``ConnectivityState.code``: width, each point's block
    index, one mark flag per block; numbers take one byte, or, after a zero
    byte, the count of bytes that follows it."""
    size = 1
    if code[0] == 0:
        size, code = code[1], code[2:]
    numbers = [int.from_bytes(code[i : i + size], "big") for i in range(0, len(code), size)]
    width = numbers[0]
    blocks: list[list[int]] = []
    for p, b in enumerate(numbers[1 : 1 + width]):
        if b == len(blocks):
            blocks.append([])
        blocks[b].append(p)
    flags = code[size * (1 + width) :]
    assert len(flags) == len(blocks)
    marked = tuple(k for k, flag in enumerate(flags) if flag)
    return ConnectivityState(width, tuple(map(tuple, blocks)), marked)


def test_code_round_trip():
    for width in range(1, 5):
        for marks in range(width + 1):
            for s in enumerate_states(width, marks):
                assert _decode(s.code()) == s


def test_render():
    s = ConnectivityState(3, ((0, 1), (2,)), marked=(0,))
    assert s.render() == "(12•)(3)"


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_random_walks_stay_valid(width, data):
    """Random sequences of joins and detaches keep states well formed."""
    state = data.draw(
        st.sampled_from(
            [s for m in range(width + 1) for s in enumerate_states(width, m)]
        )
    )
    for _ in range(6):
        move = data.draw(st.sampled_from(["join", "detach"]))
        if move == "join" and width > 1:
            i = data.draw(st.integers(min_value=0, max_value=width - 2))
            key = join(state.key, i)
        else:
            i = data.draw(st.integers(min_value=0, max_value=width - 1))
            _, key = detach(state.key, i)
            if key is None:
                break
        state = ConnectivityState(width, *key)
        assert _decode(state.code()) == state


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
    renders = sorted(render_two_slice(s.blocks, 1) for s in states)
    assert renders == ["(1')(1)", "(1'1)"]


def test_two_slice_bridge_distribution():
    for width in (1, 2, 3):
        for l in range(width + 1):
            matching = [
                s for s in enumerate_two_slice(width) if bridge_count(s.blocks, width) == l
            ]
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
    assert state in enumerate_two_slice(6)
    assert bridge_count(state.blocks, 6) == 2
    right = ConnectivityState(6, *reduced(state.blocks, 6))
    assert right.mark_count == 2


def test_two_slice_moves_stay_in_the_basis():
    """Every right-slice join and detach of every two-slice state of width
    <= 3, made by ``join`` and ``detach`` on its unmarked key at the
    mirrored points, lands in the enumerated basis, and a detach completes
    exactly when the vacated block was the detached point alone."""
    for width in (1, 2, 3):
        basis = set(enumerate_two_slice(width))
        for s in basis:
            key = s.key
            for i in range(width - 1):
                # right points i, i+1 sit at points 2L-1-i and 2L-2-i
                blocks, marked = join(key, right_position(width, i + 1))
                assert marked == ()
                assert ConnectivityState(2 * width, blocks) in basis
            for i in range(width):
                pos = right_position(width, i)
                tag, target = detach(key, pos)
                assert tag is not DetachTag.TERMINATED_MARKED
                blocks, marked = target
                assert marked == ()
                detached = ConnectivityState(2 * width, blocks)
                assert detached in basis
                completed = tag is DetachTag.COMPLETED_UNMARKED
                assert completed == ((pos,) in s.blocks)
                assert (pos,) in detached.blocks


def test_two_slice_crossing_rejected():
    # chords 1'-2 and 2'-1 cross in the boundary order 1', 2', 2, 1
    with pytest.raises(ValueError):
        _two_slice(2, [("1'", "2"), ("2'", "1")])


def test_reduced_state_profiles():
    for width in (1, 2):
        for s in enumerate_two_slice(width):
            bridges = bridge_count(s.blocks, width)
            assert ConnectivityState(width, *reduced(s.blocks, width)).mark_count == bridges
            profile = left_profile(s.blocks, width)
            assert sum(1 for _, bridge in profile if bridge) == bridges
