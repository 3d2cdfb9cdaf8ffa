"""Exact sparse polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottstrip.polynomial import ONE, Q, Q0, ZERO, MultiPoly, v

coefficients = st.fractions(
    min_value=-50, max_value=50, max_denominator=9
).filter(lambda f: f != 0)

monomials = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=3),
)


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(monomials, coefficients, max_size=6))
    out = MultiPoly.zero()
    for mono, coeff in terms.items():
        out = out + MultiPoly.monomial(coeff, mono)
    return out


point_values = st.fractions(min_value=-7, max_value=7, max_denominator=3)
points = st.fixed_dictionaries(
    {"Q": point_values, "v": point_values, "Q0": point_values}
)


def test_zero_and_one():
    assert ZERO.is_zero
    assert not ONE.is_zero
    assert ONE == MultiPoly.constant(1)
    assert Q * 0 == ZERO
    assert Q ** 0 == ONE


def test_basic_arithmetic():
    p = (Q + v) ** 2
    assert p == Q * Q + 2 * Q * v + v * v
    assert p - Q ** 2 - v ** 2 == 2 * Q * v
    assert str(Q ** 2 - 3 * Q + 1) == "Q^2 - 3*Q + 1"


def test_mixed_scalar_coefficients():
    half = Fraction(1, 2) * v
    assert (half + half) == v
    assert (3 * half).coefficient((0, 1, 0)) == Fraction(3, 2)


def test_terms_are_sorted_descending():
    p = Q0 + v ** 3 + Q * v + Q ** 2
    monos = [m for m, _ in p.terms()]
    assert monos == sorted(monos, reverse=True)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), points)
def test_evaluation_is_a_homomorphism(a, b, point):
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


def test_evaluate_requires_all_variables():
    with pytest.raises(ValueError):
        (Q * v).evaluate({"Q": 1})


@settings(max_examples=60, deadline=None)
@given(polys())
def test_json_round_trip(p):
    assert MultiPoly.from_json_obj(p.to_json_obj()) == p


def test_json_rejects_duplicate_monomials():
    data = [
        {"Q": 1, "v": 0, "Q0": 0, "coeff": "1"},
        {"Q": 1, "v": 0, "Q0": 0, "coeff": "2"},
    ]
    with pytest.raises(ValueError):
        MultiPoly.from_json_obj(data)


def test_substitution():
    p = Q ** 2 * v + Q0
    assert p.subs_poly("Q", 2) == 4 * v + Q0
    assert p.subs_poly("Q0", v) == Q ** 2 * v + v
    assert p.subs_poly("Q", Q + 1) == (Q + 1) ** 2 * v + Q0


variables = st.sampled_from(["Q", "v", "Q0"])


@settings(max_examples=60, deadline=None)
@given(polys(), variables, st.integers(min_value=-5, max_value=5), points)
def test_substituting_a_constant_agrees_with_evaluation(p, name, c, point):
    assert p.subs_poly(name, c).evaluate(point) == p.evaluate({**point, name: c})


@settings(max_examples=40, deadline=None)
@given(polys(), variables, polys(), points)
def test_substituting_a_polynomial_agrees_with_evaluation(p, name, value, point):
    at = {**point, name: value.evaluate(point)}
    assert p.subs_poly(name, value).evaluate(point) == p.evaluate(at)


def test_integer_coefficients_stay_int():
    p = (2 * Q - v) ** 3 - 1
    data = [
        {"Q": 0, "v": 0, "Q0": 0, "coeff": "4"},
        {"Q": 1, "v": 0, "Q0": 0, "coeff": "1/2"},
    ]
    for poly in (p, -p, p.subs_poly("Q", 3), MultiPoly.from_json_obj(p.to_json_obj())):
        assert {type(c) for _, c in poly.terms()} == {int}
    assert type(ZERO.coefficient((0, 0, 0))) is int
    parsed = MultiPoly.from_json_obj(data)
    assert type(parsed.coefficient((0, 0, 0))) is int
    assert parsed.coefficient((1, 0, 0)) == Fraction(1, 2)


def test_quotient_by_monomial():
    p = Q ** 2 * v + Q * v ** 2
    assert p.quotient_by_monomial((1, 1, 0)) == Q + v
    with pytest.raises(ValueError):
        p.quotient_by_monomial((2, 0, 0))


def test_power_requires_nonnegative_exponent():
    with pytest.raises(ValueError):
        Q ** -1

