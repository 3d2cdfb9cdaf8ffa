"""Identity suites: how a check reports a failing polynomial identity."""

from pottstrip.polynomial import Q, MultiPoly, v
from pottstrip.suites import _poly_check


def test_a_passing_check_has_no_detail():
    result = _poly_check("same", (Q + v) ** 3, (Q + v) ** 3)
    assert result.ok and result.detail == ""


def test_a_mismatch_leads_with_the_first_differing_monomial():
    """The detail names the highest monomial, in decreasing term order, at
    which the two sides differ and both coefficients there, then the
    difference."""
    lhs = (Q + v) ** 3
    rhs = lhs - 2 * Q ** 2 * v + 5 * v
    result = _poly_check("forced", lhs, rhs)
    assert not result.ok
    assert result.detail == "first difference at Q^2*v: 3 != 1; difference 2*Q^2*v - 5*v"

    # a side without the monomial reads 0 there; a constant monomial reads 1
    result = _poly_check("forced", MultiPoly.constant(7), MultiPoly.zero())
    assert result.detail == "first difference at 1: 7 != 0; difference 7"


def test_a_long_difference_is_cut_after_the_first_monomial():
    lhs = (Q + v + 1) ** 12
    result = _poly_check("forced", lhs, lhs + v ** 12)
    head, difference = result.detail.split("; ")
    assert head == "first difference at v^12: 1 != 2"
    assert difference == "difference -v^12"

    result = _poly_check("forced", lhs, MultiPoly.zero())
    head, difference = result.detail.split("; ")
    assert head == "first difference at Q^12: 1 != 0"
    assert difference.endswith(" ...") and len(difference) == len("difference ") + 404
