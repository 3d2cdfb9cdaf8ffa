"""The contract of the package's immutable records: one constructor that
takes the fields in order or by name, value equality and hash, a
field-order repr, no assignment, copy and pickle, and the constructors'
validation messages."""

import copy
import pickle

import pytest

from pottstrip.bruteforce import NtcSpectrum, fk_spectrum
from pottstrip.characters import DecompositionResult, z_fixed_boundary, z_from_characters
from pottstrip.connectivity import ConnectivityState, enumerate_states
from pottstrip.lattice import CyclicStrip, EdgeOp, horizontal, square_strip, vertical
from pottstrip.polynomial import Q
from pottstrip.suites import CheckResult, _check
from pottstrip.transfer import (
    BlockStructureReport,
    SectorReport,
    TransferBlock,
    column_transfer,
    verify_block_structure,
)


def _one_of_each():
    """One record of each type, as the library builds it."""
    report = verify_block_structure(square_strip(2, 1))
    return [
        vertical(1),
        square_strip(3, 2),
        ConnectivityState.from_key(enumerate_states(3, 1)[0]),
        column_transfer(square_strip(2, 1), 1),
        report.sectors[0],
        report,
        z_from_characters(square_strip(2, 2)),
        fk_spectrum(square_strip(2, 2)),
        _check("q", Q, Q),
    ]


#: Each record type with its fields, in the order its constructor takes them.
FIELDS = {
    EdgeOp: ("kind", "site"),
    CyclicStrip: ("width", "length", "column_program"),
    ConnectivityState: ("width", "blocks", "marked"),
    TransferBlock: ("width", "marks", "basis", "rows"),
    SectorReport: (
        "bridges", "group_count", "expected_groups", "group_sizes",
        "expected_size", "cross_group_zero", "matches_reference",
    ),
    BlockStructureReport: ("width", "dimension", "triangular_ok", "sectors", "failures"),
    DecompositionResult: ("target", "strip", "value", "terms"),
    NtcSpectrum: ("width", "sectors"),
    CheckResult: ("check_id", "ok", "detail"),
}


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


def test_every_record_type_is_covered():
    assert {type(record) for record in _one_of_each()} == set(FIELDS)
    for cls, names in FIELDS.items():
        assert cls.__slots__ == names


def test_equal_fields_give_equal_records_and_hashes():
    for record in _one_of_each():
        twin = type(record)(*_fields(record))
        assert twin is not record
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
        assert len({twin, record}) == 1


def test_fields_given_by_name_build_the_record_given_in_order():
    for record in _one_of_each():
        cls, names, values = type(record), FIELDS[type(record)], _fields(record)
        assert cls(**dict(zip(names, values))) == cls(*values) == record
        assert cls(values[0], **dict(zip(names[1:], values[1:]))) == record


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_a_missing_extra_repeated_or_unknown_field_raises_type_error(cls):
    record = next(record for record in _one_of_each() if type(record) is cls)
    names, values = FIELDS[cls], _fields(record)
    by_name = dict(zip(names, values))
    for args, named in [
        ((), {}),  # missing
        ((), {name: by_name[name] for name in names[1:]}),  # missing
        ((*values, None), {}),  # extra
        (values, {names[0]: values[0]}),  # repeated, in order and by name
        (values[:1], by_name),  # repeated
        ((), {**by_name, "extra": None}),  # unknown
    ]:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args, **named)


def test_the_base_constructor_names_the_fields_it_takes():
    with pytest.raises(TypeError) as raised:
        NtcSpectrum(2)
    assert str(raised.value) == (
        "NtcSpectrum() takes the fields width, sectors; got 1 in order and none by name"
    )


def test_records_differ_by_value_and_by_type():
    assert vertical(0) != vertical(1) and vertical(0) != horizontal(0)
    assert square_strip(2, 3) != square_strip(3, 2)
    # equal field values, different record types
    assert NtcSpectrum("vertical", 0) != EdgeOp("vertical", 0)
    assert EdgeOp("vertical", 0) != NtcSpectrum("vertical", 0)
    assert EdgeOp("vertical", 0) != ("vertical", 0)
    # a state built by the constructor and the key the engine enumerates
    assert ConnectivityState(3, ((0, 1), (2,)), (0,)).key in enumerate_states(3, 1)


def test_assigning_or_deleting_a_field_raises():
    for record in _one_of_each():
        before = _fields(record)
        for name in (*FIELDS[type(record)], "extra"):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, FIELDS[type(record)][0])
        assert _fields(record) == before


def test_repr_lists_the_fields_in_order():
    assert repr(vertical(0)) == "EdgeOp(kind='vertical', site=0)"
    assert repr(CheckResult("a", True)) == "CheckResult(check_id='a', ok=True, detail='')"
    assert repr(ConnectivityState(2, ((0,), (1,)), (1,))) == (
        "ConnectivityState(width=2, blocks=((0,), (1,)), marked=(1,))"
    )


def test_copy_and_pickle_rebuild_an_equal_record():
    for record in _one_of_each():
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


def test_the_fixed_boundary_result_names_the_strip_it_was_asked_for():
    """Z_ff is summed on the width-(L-1) strip; the result is rebuilt with
    the width-L strip and its value, keeping the inner sum's terms."""
    result = z_fixed_boundary(3, 2)
    assert result.target == "zff[3x2]"
    assert result.strip == square_strip(3, 2)
    assert [l for l, _, _ in result.terms] == [0, 1, 2]


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: EdgeOp("diagonal", 0), "unknown edge kind 'diagonal'"),
        (lambda: EdgeOp("vertical", -1), "site must be >= 0"),
        (lambda: CyclicStrip(0, 1, ()), "width must be >= 1"),
        (lambda: CyclicStrip(1, 0, ()), "length must be >= 1"),
        (lambda: CyclicStrip(2, 1, (vertical(1),)), "vertical(1) does not fit a width-2 strip"),
        (lambda: CyclicStrip(2, 1, (horizontal(2),)), "horizontal(2) does not fit a width-2 strip"),
        (lambda: ConnectivityState(0, ()), "width must be >= 1"),
        (lambda: ConnectivityState(2, ((0, 1),), (0, 0)), "marked indices must be strictly increasing"),
        (lambda: ConnectivityState(2, ((0,), (1,)), (1, 0)), "marked indices must be strictly increasing"),
        (lambda: ConnectivityState(1, ((0,),), (1,)), "marked index 1 out of range"),
        (lambda: ConnectivityState(4, ((0, 3), (1, 2)), (1,)), "block (1, 2) is nested and cannot be marked"),
        (lambda: ConnectivityState(4, ((0, 2), (1, 3))), "partition ((0, 2), (1, 3)) is crossing"),
        (lambda: ConnectivityState(2, ((0,),)), "blocks do not cover every point"),
        (lambda: ConnectivityState(2, ((0,), (0, 1))), "point 0 appears in two blocks"),
    ],
)
def test_invalid_arguments_keep_their_messages(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message
