"""Connectivity states: non-crossing partitions with marked blocks."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottstrip.connectivity import (
    ConnectivityState,
    DetachTag,
    TwoSliceState,
    catalan,
    count_states,
    detach,
    enumerate_states,
    enumerate_two_slice,
    join,
    noncrossing_partitions,
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
        parts = list(noncrossing_partitions(n))
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
    for part in noncrossing_partitions(6):
        assert _crossing_free(part)


def test_state_validation():
    with pytest.raises(ValueError):
        # crossing blocks
        ConnectivityState(4, ((0, 2), (1, 3)))
    with pytest.raises(ValueError):
        # mark on a nested block: (0,3) encloses (1,2)
        ConnectivityState(4, ((0, 3), (1, 2)), marked=(1,))
    with pytest.raises(ValueError):
        # point missing
        ConnectivityState(2, ((0,),))
    with pytest.raises(ValueError):
        # mark index out of range
        ConnectivityState(1, ((0,),), marked=(1,))


def test_join_marks():
    s = ConnectivityState(3, ((0,), (1,), (2,)), marked=(0, 1))
    merged = s.join(0, 1)
    assert merged.mark_count == 1
    assert merged.blocks == ((0, 1), (2,))
    assert s.join(1, 2).mark_count == 2
    with pytest.raises(ValueError):
        s.join(0, 2)
    assert s.join(2, 1) == s.join(1, 2)


def test_join_same_block_is_identity():
    s = ConnectivityState(2, ((0, 1),), marked=(0,))
    assert s.join(0, 1) is s


def test_detach_outcomes():
    populated = ConnectivityState(2, ((0, 1),), marked=(0,))
    out = populated.detach(0)
    assert out.tag is DetachTag.STILL_POPULATED
    assert out.state.mark_count == 1  # the survivor keeps the mark
    assert out.state.blocks == ((0,), (1,))

    unmarked_singleton = ConnectivityState(2, ((0,), (1,)))
    out = unmarked_singleton.detach(1)
    assert out.tag is DetachTag.COMPLETED_UNMARKED
    assert out.state == unmarked_singleton

    marked_singleton = ConnectivityState(2, ((0,), (1,)), marked=(0,))
    out = marked_singleton.detach(0)
    assert out.tag is DetachTag.TERMINATED_MARKED
    assert out.state is None


def test_join_detach_preserve_validity_exhaustively():
    """Every state reachable by one bond move is again a valid state.

    Validity (non-crossing blocks, marked blocks unnested) is enforced by
    the constructor, so surviving construction is the assertion.
    """
    for width in range(1, 5):
        for marks in range(width + 1):
            for s in enumerate_states(width, marks):
                for i in range(width - 1):
                    joined = s.join(i, i + 1)
                    assert joined.width == width
                    assert joined.mark_count in (marks, marks - 1)
                for i in range(width):
                    out = s.detach(i)
                    if out.tag is DetachTag.TERMINATED_MARKED:
                        assert out.state is None
                    else:
                        assert out.state.mark_count == marks


def test_code_round_trip():
    for width in range(1, 5):
        for marks in range(width + 1):
            for s in enumerate_states(width, marks):
                assert ConnectivityState.from_code(s.code()) == s


def test_from_code_rejects_garbage():
    with pytest.raises(ValueError):
        ConnectivityState.from_code(b"")
    good = ConnectivityState(2, ((0, 1),)).code()
    with pytest.raises(ValueError):
        ConnectivityState.from_code(good + b"\x00")


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
            state = state.join(i, i + 1)
        else:
            i = data.draw(st.integers(min_value=0, max_value=width - 1))
            out = state.detach(i)
            if out.state is None:
                break
            state = out.state
        assert ConnectivityState.from_code(state.code()) == state


# ----------------------------------------------------------------------
# two-slice states


def test_two_slice_counts():
    for width in (1, 2, 3):
        states = enumerate_two_slice(width)
        assert len(states) == catalan(2 * width)
        assert len(set(states)) == len(states)


def test_two_slice_one_column():
    states = enumerate_two_slice(1)
    renders = sorted(s.render() for s in states)
    assert renders == ["(1')(1)", "(1'1)"]


def test_two_slice_bridge_distribution():
    for width in (1, 2, 3):
        for l in range(width + 1):
            matching = [
                s for s in enumerate_two_slice(width) if s.bridge_count() == l
            ]
            assert len(matching) == count_states(width, l) ** 2


def test_two_slice_membership_width_six():
    state = TwoSliceState.from_components(
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
    assert state.bridge_count() == 2
    reduced = state.reduced()
    assert reduced.width == 6
    assert reduced.mark_count == 2


def test_two_slice_moves_stay_in_the_basis():
    """Every right-slice join and detach of every two-slice state of width
    <= 3, made by ``join`` and ``detach`` on its unmarked ``(blocks, ())``
    key at the mirrored points, lands in the enumerated basis, and a detach
    completes exactly when the vacated block was the detached point alone."""
    for width in (1, 2, 3):
        basis = set(enumerate_two_slice(width))
        for s in basis:
            key = (s.blocks, ())
            for i in range(width - 1):
                # right points i, i+1 sit at points 2L-1-i and 2L-2-i
                blocks, marked = join(key, right_position(width, i + 1))
                assert marked == ()
                assert TwoSliceState(width, blocks) in basis
            for i in range(width):
                pos = right_position(width, i)
                tag, target = detach(key, pos)
                assert tag is not DetachTag.TERMINATED_MARKED
                blocks, marked = target
                assert marked == ()
                detached = TwoSliceState(width, blocks)
                assert detached in basis
                completed = tag is DetachTag.COMPLETED_UNMARKED
                assert completed == ((pos,) in s.blocks)
                assert (pos,) in detached.blocks


def test_two_slice_crossing_rejected():
    # chords 1'-2 and 2'-1 cross in the boundary order 1', 2', 2, 1
    with pytest.raises(ValueError):
        TwoSliceState.from_components(2, [("1'", "2"), ("2'", "1")])
    # 3' would land on right point 2's position: a valid-looking partition
    with pytest.raises(ValueError):
        TwoSliceState.from_components(2, [("3'", "1"), ("1'",), ("2'",)])


def test_reduced_state_profiles():
    for width in (1, 2):
        for s in enumerate_two_slice(width):
            reduced = s.reduced()
            assert reduced.mark_count == s.bridge_count()
            profile = s.left_profile()
            assert sum(1 for _, bridge in profile if bridge) == s.bridge_count()
