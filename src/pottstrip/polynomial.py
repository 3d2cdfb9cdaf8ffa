"""Exact sparse polynomial arithmetic in the variables Q, v, Q0.

Everything this package computes -- transfer-matrix entries, partition
functions, amplitudes, duality prefactors -- is a sparse polynomial in the
cluster weight Q, the bond weight v and the boundary cluster weight Q0, with
arbitrary-precision ``int`` coefficients; a ``Fraction`` enters only with a
rational value a caller passes in.  No floats appear anywhere, so every
identity can be asserted with zero tolerance.

A monomial is an exponent triple ``(deg_Q, deg_v, deg_Q0)``; monomials are
ordered lexicographically on that triple, and a polynomial's terms are
serialized in decreasing monomial order so output is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Union

VARIABLES = ("Q", "v", "Q0")

Monomial = tuple[int, int, int]
Scalar = Union[int, Fraction]


def _var_index(name: str) -> int:
    try:
        return VARIABLES.index(name)
    except ValueError:
        raise ValueError(f"unknown variable {name!r}; expected one of {VARIABLES}") from None


class MultiPoly:
    """A sparse polynomial in (Q, v, Q0) with integer (or rational) coefficients.

    Instances are immutable; arithmetic returns new objects and never keeps a
    zero coefficient, so two polynomials are equal iff their term dicts are.

    >>> p = Q + v
    >>> print(p * p)
    Q^2 + 2*Q*v + v^2
    >>> print((Q - 1) ** 0)
    1
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                c = coeff if type(coeff) is int else Fraction(coeff)
                if not c:
                    continue
                dq, dv, dq0 = mono
                if dq < 0 or dv < 0 or dq0 < 0:
                    raise ValueError(f"negative exponent in monomial {mono}")
                clean[(int(dq), int(dv), int(dq0))] = c
        self._terms = clean

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls({(0, 0, 0): 1})

    @classmethod
    def constant(cls, c: Scalar) -> "MultiPoly":
        return cls({(0, 0, 0): c})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        mono = [0, 0, 0]
        mono[_var_index(name)] = 1
        return cls({tuple(mono): 1})

    @classmethod
    def monomial(cls, coeff: Scalar, mono: Monomial) -> "MultiPoly":
        return cls({mono: coeff})

    # ------------------------------------------------------------------
    # inspection

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, Scalar]]:
        """Yield (monomial, coefficient) pairs in decreasing monomial order."""
        for mono in sorted(self._terms, reverse=True):
            yield mono, self._terms[mono]

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._terms.get(tuple(mono), 0)

    # ------------------------------------------------------------------
    # ring operations

    def _scaled(self, c: Scalar) -> "MultiPoly":
        if not c:
            return MultiPoly()
        return MultiPoly({m: k * c for m, k in self._terms.items()})

    @staticmethod
    def _coerce(other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(other)
        return None

    def __add__(self, other) -> "MultiPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out = dict(self._terms)
        for m, c in q._terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        res = MultiPoly()
        res._terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return self._scaled(-1)

    def __sub__(self, other) -> "MultiPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "MultiPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> "MultiPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in q._terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        res = MultiPoly()
        res._terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = MultiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self._terms == q._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # ------------------------------------------------------------------
    # substitution and evaluation

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point.

        Raises ValueError if a variable occurring in the polynomial has no
        assigned value.  Extra assignments are ignored.
        """
        vals = []
        for i, name in enumerate(VARIABLES):
            if name in assignment:
                vals.append(Fraction(assignment[name]))
            else:
                if any(m[i] > 0 for m in self._terms):
                    raise ValueError(f"no value assigned to variable {name!r}")
                vals.append(0)
        total = Fraction(0)
        for m, c in self._terms.items():
            total += c * vals[0] ** m[0] * vals[1] ** m[1] * vals[2] ** m[2]
        return total

    def subs_poly(self, name: str, value: "MultiPoly | Scalar") -> "MultiPoly":
        """Substitute a polynomial (or constant) for a variable, by Horner's
        rule over its exponents e: out = out * value + (the terms with e)."""
        val = self._coerce(value)
        if val is None:
            raise TypeError("subs_poly needs a MultiPoly or rational constant")
        i = _var_index(name)
        groups: dict[int, dict[Monomial, Scalar]] = {}
        for m, c in self._terms.items():
            groups.setdefault(m[i], {})[m[:i] + (0,) + m[i + 1 :]] = c
        out = MultiPoly.zero()
        for e in range(max(groups, default=0), -1, -1):
            out = out * val + MultiPoly(groups.get(e))
        return out

    def quotient_by_monomial(self, mono: Monomial) -> "MultiPoly":
        """Exact division by a monomial; every term must be divisible.

        A failure here means a quantity expected to carry a factor (such as
        Q**j in a partition-function sector with j wrapping clusters) does
        not, i.e. an upstream bug -- so it raises rather than truncating.
        """
        dq, dv, dq0 = mono
        out: dict[Monomial, Scalar] = {}
        for m, c in self._terms.items():
            if m[0] < dq or m[1] < dv or m[2] < dq0:
                raise ValueError(
                    f"{self} is not divisible by monomial {mono}"
                )
            out[(m[0] - dq, m[1] - dv, m[2] - dq0)] = c
        res = MultiPoly()
        res._terms = out
        return res

    # ------------------------------------------------------------------
    # serialization

    def to_json_obj(self) -> list[dict]:
        """JSON-ready encoding: one object per term, decreasing monomial order.

        Coefficients are decimal strings ("3", "-1/2") so the round trip is
        bit exact.
        """
        out = []
        for mono, c in self.terms():
            out.append(
                {
                    "Q": mono[0],
                    "v": mono[1],
                    "Q0": mono[2],
                    "coeff": str(c),
                }
            )
        return out

    @classmethod
    def from_json_obj(cls, data) -> "MultiPoly":
        if not isinstance(data, list):
            raise ValueError("polynomial encoding must be a list of term objects")
        terms: dict[Monomial, Scalar] = {}
        for item in data:
            if not isinstance(item, dict):
                raise ValueError("each term must be an object")
            try:
                mono = (int(item["Q"]), int(item["v"]), int(item["Q0"]))
                coeff = Fraction(item["coeff"])
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"malformed polynomial term {item!r}") from exc
            if mono in terms:
                raise ValueError(f"duplicate monomial {mono}")
            terms[mono] = coeff if coeff.denominator > 1 else coeff.numerator
        return cls(terms)

    # ------------------------------------------------------------------
    # display

    @staticmethod
    def _format_monomial(mono: Monomial) -> str:
        parts = []
        for name, e in zip(VARIABLES, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for i, (mono, c) in enumerate(self.terms()):
            mono_s = self._format_monomial(mono)
            mag = abs(c)
            if mono_s and mag == 1:
                body = mono_s
            elif mono_s:
                body = f"{mag}*{mono_s}"
            else:
                body = str(mag)
            if i == 0:
                sign = "-" if c < 0 else ""
                pieces.append(f"{sign}{body}")
            else:
                pieces.append(f"{'-' if c < 0 else '+'} {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


#: The three generators of the coefficient ring, ready for expressions
#: like ``(Q + v) ** 3 - Q0 * v``.
Q = MultiPoly.variable("Q")
v = MultiPoly.variable("v")
Q0 = MultiPoly.variable("Q0")

ZERO = MultiPoly.zero()
ONE = MultiPoly.one()
