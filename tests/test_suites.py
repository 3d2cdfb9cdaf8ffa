"""Identity suites: how one comparison decides every check and reports a
failing one."""

import ast
import inspect
from fractions import Fraction
from types import SimpleNamespace

import pytest

from pottstrip import bruteforce, characters, suites
from pottstrip.polynomial import Q, MultiPoly, v
from pottstrip.suites import CheckResult, _check


def test_a_passing_check_has_no_detail():
    result = _check("same", (Q + v) ** 3, (Q + v) ** 3)
    assert result.ok and result.detail == ""


def test_a_mismatch_leads_with_the_first_differing_monomial():
    """The detail names the highest monomial, in decreasing term order, at
    which the two sides differ and both coefficients there, then the
    difference."""
    lhs = (Q + v) ** 3
    rhs = lhs - 2 * Q ** 2 * v + 5 * v
    result = _check("forced", lhs, rhs)
    assert not result.ok
    assert result.detail == "first difference at Q^2*v: 3 != 1; difference 2*Q^2*v - 5*v"

    # a side without the monomial reads 0 there; a constant monomial reads 1
    result = _check("forced", MultiPoly.constant(7), MultiPoly.zero())
    assert result.detail == "first difference at 1: 7 != 0; difference 7"


def test_a_long_difference_is_cut_after_the_first_monomial():
    lhs = (Q + v + 1) ** 12
    result = _check("forced", lhs, lhs + v ** 12)
    head, difference = result.detail.split("; ")
    assert head == "first difference at v^12: 1 != 2"
    assert difference == "difference -v^12"

    result = _check("forced", lhs, MultiPoly.zero())
    head, difference = result.detail.split("; ")
    assert head == "first difference at Q^12: 1 != 0"
    assert difference.endswith(" ...") and len(difference) == len("difference ") + 404


def test_a_mismatch_of_other_values_shows_both_sides():
    assert _check("same", [1, 2], [1, 2]) == CheckResult("same", True, "")
    assert _check("forced", (0, 1), (0,)).detail == "(0, 1) != (0,)"
    assert _check("forced", Fraction(1, 2), 1).detail == "1/2 != 1"


def test_a_sequence_mismatch_names_its_first_difference():
    """A list or tuple shows its elements by ``str``; at equal lengths the
    detail starts with the first position where the sides differ."""
    assert _check("forced", [Q, v, 1], [Q, Q, 2]).detail == (
        "first difference at [1]: v != Q; [Q, v, 1] != [Q, Q, 2]"
    )
    assert _check("forced", (0, 1), (0, 2)).detail == (
        "first difference at [1]: 1 != 2; (0, 1) != (0, 2)"
    )
    assert _check("forced", [v], [v, Q]).detail == "[v] != [v, Q]"
    assert _check("forced", (v,), ()).detail == "(v,) != ()"


def _by_id(results) -> dict:
    return {result.check_id: result for result in results}


def test_a_wrong_state_count_shows_both_sides(monkeypatch):
    count_states = suites.count_states
    monkeypatch.setattr(
        suites, "count_states", lambda width, l: count_states(width, l) + int((width, l) == (2, 1))
    )
    results = _by_id(suites.dimension_checks(2))
    assert [r.ok for r in results.values()] == [True, True, True, False, False, True]
    assert results["state-count[width=2]"].detail == (
        "first difference at [1]: 4 != 3; [2, 4, 1, 0] != [2, 3, 1, 0]"
    )
    assert results["two-slice-count[width=2]"].detail == "21 != 14"

    monkeypatch.setattr(suites, "count_states", count_states)
    monkeypatch.setattr(suites, "catalan", lambda n: 0)
    results = _by_id(suites.dimension_checks(1))
    assert not results["two-slice-enumeration[width=1]"].ok
    assert results["two-slice-enumeration[width=1]"].detail == "2 != 0"


def test_a_wrong_amplitude_shows_both_sides(monkeypatch):
    amplitude_c = characters.amplitude_c
    monkeypatch.setattr(characters, "amplitude_c", lambda l: amplitude_c(l) + int(l == 5))
    q2, q3, b = suites.amplitude_checks()
    assert not q2.ok and not q3.ok and b.ok
    assert q2.detail == (
        "first difference at [5]: 2 != 1; "
        "[1, 1, -1, -1, 1, 2, -1, -1, 1] != [1, 1, -1, -1, 1, 1, -1, -1, 1]"
    )
    assert q3.detail == (
        "first difference at [5]: 0 != -1; "
        "[1, 2, 1, -1, -2, 0, 1, 2, 1] != [1, 2, 1, -1, -2, -1, 1, 2, 1]"
    )


@pytest.mark.parametrize("changed", range(9))
def test_changing_any_one_b_breaks_the_b_symmetry(monkeypatch, changed):
    """The pattern (b0, b1, -b1, -b0) repeated is the rule b(l) = b(l + 4n)
    = -b(3 + 4n - l) on l = 0..8: adding 1 to any single b(l) breaks it,
    and the detail names the first l where they differ, then shows the
    nine b(l) and the pattern they were held to."""
    assert all(result.ok for result in suites.amplitude_checks())
    amplitude_b = characters.amplitude_b
    monkeypatch.setattr(characters, "amplitude_b", lambda l: amplitude_b(l) + int(l == changed))
    result = suites.amplitude_checks()[-1]
    assert result.check_id == "amplitude-b-symmetry[Q=2]"
    assert not result.ok
    b = [amplitude_b(l).subs_poly("Q", 2) + int(l == changed) for l in range(9)]
    pattern = [(b[0], b[1], -b[1], -b[0])[l % 4] for l in range(9)]
    k = next(l for l in range(9) if b[l] != pattern[l])
    listed = [f"[{', '.join(map(str, side))}]" for side in (b, pattern)]
    assert result.detail == (
        f"first difference at [{k}]: {b[k]} != {pattern[k]}; {listed[0]} != {listed[1]}"
    )
    assert "MultiPoly" not in result.detail


def test_a_wrong_fixed_boundary_value_shows_both_sides(monkeypatch):
    spin_z = bruteforce.fixed_boundary_spin_z
    monkeypatch.setattr(bruteforce, "fixed_boundary_spin_z", lambda *args: spin_z(*args) + 1)
    results = _by_id(suites.dual_checks(3, 2))
    fixed = [r for r in results.values() if r.check_id.startswith("fixed-boundary[")]
    assert len(fixed) == 6 and not any(r.ok for r in fixed)
    want = spin_z(3, 2, 3, Fraction(1, 2))
    assert results["fixed-boundary[3x2,Q=3,v=1/2]"].detail == f"{want} != {want + 1}"
    assert all(r.ok for r in results.values() if r not in fixed)


def test_a_wrong_live_set_shows_both_sides(monkeypatch):
    """Every minimal character made live: the live set is all of them."""
    minimal = characters.z_fixed_boundary_minimal

    def all_live(width, length, p):
        result = minimal(width, length, p)
        return SimpleNamespace(terms=tuple((l, 1, chi) for l, _, chi in result.terms))

    monkeypatch.setattr(characters, "z_fixed_boundary_minimal", all_live)
    results = _by_id(suites.dual_checks(3, 2))
    assert results["fixed-boundary-terms[p=4]"] == CheckResult(
        "fixed-boundary-terms[p=4]", False, "(0, 1) != (0,)"
    )
    assert results["fixed-boundary-terms[p=6]"] == CheckResult(
        "fixed-boundary-terms[p=6]", False, "(0, 1, 2) != (0, 2)"
    )


def test_one_function_decides_every_comparison():
    """``CheckResult`` is built only in ``_check``, in the block check,
    whose side is a report, and for the duality witness, a verdict."""
    builders = []
    for function in ast.parse(inspect.getsource(suites)).body:
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult":
                builders.append((function.name, ast.unparse(node.args[0])))
    assert builders == [
        ("_check", "check_id"),
        ("_check", "check_id"),
        ("block_structure_checks", "f'block-structure[width={width}]'"),
        ("dual_checks", "f'duality-witness[{name}]'"),
    ]
