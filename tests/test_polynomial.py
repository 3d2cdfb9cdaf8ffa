"""Exact sparse polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottstrip.polynomial import ONE, Q, Q0, ZERO, MultiPoly, v

coefficients = st.integers(min_value=-50, max_value=50).filter(lambda c: c != 0)

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


def test_a_coefficient_that_is_not_an_int_is_refused():
    for coeff in (Fraction(1, 2), Fraction(2), 0.5, 1.0, True):
        with pytest.raises(TypeError, match="a coefficient must be an int"):
            MultiPoly({(0, 1, 0): coeff})
        with pytest.raises(TypeError):
            MultiPoly.constant(coeff)
        for operation in (lambda: coeff * v, lambda: v + coeff, lambda: v - coeff):
            with pytest.raises(TypeError):
                operation()
        with pytest.raises(TypeError, match="needs a MultiPoly or an int"):
            v.subs_poly("v", coeff)


def test_an_exponent_that_is_not_an_int_is_refused():
    for exponent in (1.5, 1.0, True, Fraction(1)):
        for mono in ((exponent, 0, 0), (0, exponent, 0), (0, 0, exponent)):
            with pytest.raises(TypeError, match="exponents must be ints"):
                MultiPoly({mono: 1})
    assert MultiPoly({(1, 0, 0): 1}) == Q


def test_evaluate_refuses_a_value_that_is_not_an_int_or_a_fraction():
    for value in (0.1, 2.0, True):
        with pytest.raises(TypeError, match="a value must be an int or a Fraction"):
            (Q + 1).evaluate({"Q": value})
    assert (Q + 1).evaluate({"Q": 2}) == 3
    assert (Q + 1).evaluate({"Q": Fraction(1, 3)}) == Fraction(4, 3)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.integers(min_value=-(2**70), max_value=2**70))
def test_equal_polynomials_hash_equal(a, b, c):
    """Hashes agree with ``==``, also between a constant and its int, so a
    constant polynomial finds the dict entry of its int."""
    pairs = [(a, (a + b) - b), (a * b, b * a), (MultiPoly.constant(c), c), ((a + c) - a, c),
             (a - a, 0), (ZERO, 0), (ONE, 1)]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
    assert {c: "x"}.get(MultiPoly.constant(c)) == "x"
    assert {3: "x"}.get(MultiPoly.constant(3)) == "x"


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


def _evaluated_term_by_term(p, point):
    """The value of ``p`` at ``point`` as a sum of Fraction powers, term by term."""
    q, vv, q0 = (Fraction(point[name]) for name in ("Q", "v", "Q0"))
    total = Fraction(0)
    for (a, b, e), c in p.terms():
        total += c * q**a * vv**b * q0**e
    return total


@settings(max_examples=200, deadline=None)
@given(polys(), points, st.sampled_from([(), ("Q",), ("v", "Q0"), ("Q", "v", "Q0")]))
def test_evaluate_equals_the_term_by_term_sum(p, point, zeros):
    """Random polynomials at random rational points, some coordinates 0 and
    others negative, take the value of the per-term Fraction sum, as an int
    exactly when it is integral."""
    point = {**point, **dict.fromkeys(zeros, 0)}
    want = _evaluated_term_by_term(p, point)
    got = p.evaluate(point)
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


def test_evaluate_returns_an_int_when_the_value_is_integral():
    value = (Q * Q - 3 * Q * v + 1).evaluate({"Q": 2, "v": 3})
    assert value == -13 and type(value) is int
    assert type((2 * v).evaluate({"v": Fraction(1, 2)})) is int
    half = (Q * v).evaluate({"Q": 1, "v": Fraction(1, 2)})
    assert half == Fraction(1, 2) and type(half) is Fraction


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
    for poly in (p, -p, p.subs_poly("Q", 3), MultiPoly.from_json_obj(p.to_json_obj())):
        assert {type(c) for _, c in poly.terms()} == {int}
    assert type(ZERO.coefficient((0, 0, 0))) is int


@pytest.mark.parametrize("value", ["1/2", "0.5", 0.5, 4.0, True, None])
def test_json_refuses_a_coefficient_or_exponent_that_is_not_an_integer(value):
    with pytest.raises(ValueError, match="malformed polynomial term"):
        MultiPoly.from_json_obj([{"Q": 1, "v": 0, "Q0": 0, "coeff": value}])
    with pytest.raises(ValueError, match="malformed polynomial term"):
        MultiPoly.from_json_obj([{"Q": value, "v": 0, "Q0": 0, "coeff": "1"}])


def test_quotient_by_monomial():
    p = Q ** 2 * v + Q * v ** 2
    assert p.quotient_by_monomial((1, 1, 0)) == Q + v
    with pytest.raises(ValueError):
        p.quotient_by_monomial((2, 0, 0))


def test_power_requires_nonnegative_exponent():
    with pytest.raises(ValueError):
        Q ** -1

