"""Exact sparse polynomial arithmetic in the variables Q, v, Q0.

Everything this package computes -- transfer-matrix entries, partition
functions, amplitudes, duality prefactors -- is a sparse polynomial in the
cluster weight Q, the bond weight v and the boundary cluster weight Q0, with
arbitrary-precision ``int`` coefficients.  A rational number appears only
as a value of :meth:`MultiPoly.evaluate` at a rational point.  No floats
appear anywhere, so every identity can be asserted with zero tolerance.

A monomial is an exponent triple ``(deg_Q, deg_v, deg_Q0)``; monomials are
ordered lexicographically on that triple, and a polynomial's terms are
serialized in decreasing monomial order so output is deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping

if TYPE_CHECKING:
    from fractions import Fraction

VARIABLES = ("Q", "v", "Q0")

Monomial = tuple[int, int, int]


def _var_index(name: str) -> int:
    try:
        return VARIABLES.index(name)
    except ValueError:
        raise ValueError(f"unknown variable {name!r}; expected one of {VARIABLES}") from None


class MultiPoly:
    """A sparse polynomial in (Q, v, Q0) with integer coefficients.

    Instances are immutable; arithmetic returns new objects and never keeps a
    zero coefficient, so two polynomials are equal iff their term dicts are.

    >>> p = Q + v
    >>> print(p * p)
    Q^2 + 2*Q*v + v^2
    >>> print((Q - 1) ** 0)
    1
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        clean: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if type(coeff) is not int:
                    raise TypeError(f"a coefficient must be an int, not {type(coeff).__name__}")
                if not coeff:
                    continue
                dq, dv, dq0 = mono
                if not type(dq) is type(dv) is type(dq0) is int:
                    raise TypeError(f"exponents must be ints, got {mono!r}")
                if dq < 0 or dv < 0 or dq0 < 0:
                    raise ValueError(f"negative exponent in monomial {mono}")
                clean[(dq, dv, dq0)] = coeff
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
    def constant(cls, c: int) -> "MultiPoly":
        return cls({(0, 0, 0): c})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        mono = [0, 0, 0]
        mono[_var_index(name)] = 1
        return cls({tuple(mono): 1})

    @classmethod
    def monomial(cls, coeff: int, mono: Monomial) -> "MultiPoly":
        return cls({mono: coeff})

    # ------------------------------------------------------------------
    # inspection

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        """Yield (monomial, coefficient) pairs in decreasing monomial order."""
        for mono in sorted(self._terms, reverse=True):
            yield mono, self._terms[mono]

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(tuple(mono), 0)

    # ------------------------------------------------------------------
    # ring operations

    def _scaled(self, c: int) -> "MultiPoly":
        if not c:
            return MultiPoly()
        return MultiPoly({m: k * c for m, k in self._terms.items()})

    @staticmethod
    def _coerce(other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            return other
        if type(other) is int:
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
        out: dict[Monomial, int] = {}
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
        # a constant equals its int, so it hashes as that int
        if self._terms.keys() <= {(0, 0, 0)}:
            return hash(self._terms.get((0, 0, 0), 0))
        return hash(frozenset(self._terms.items()))

    # ------------------------------------------------------------------
    # substitution and evaluation

    def evaluate(self, assignment: Mapping[str, int | Fraction]) -> int | Fraction:
        """Exact value at a rational point: an int when the value is
        integral, a Fraction otherwise.

        Raises ValueError if a variable occurring in the polynomial has no
        assigned value, TypeError for a value that is not an int or a
        Fraction, and ignores extra assignments.

        >>> (Q * v + 1).evaluate({"Q": 2, "v": 3})
        7
        >>> from fractions import Fraction
        >>> (Q * v).evaluate({"Q": 1, "v": Fraction(1, 2)})
        Fraction(1, 2)
        """
        from fractions import Fraction

        scaled, denominator = [], 1
        for i, name in enumerate(VARIABLES):
            value = assignment.get(name, 0)
            if type(value) not in (int, Fraction):
                raise TypeError(f"a value must be an int or a Fraction, not {value!r}")
            if name not in assignment and any(m[i] for m in self._terms):
                raise ValueError(f"no value assigned to variable {name!r}")
            # x = p/q of degree d: x**e = p**e * q**(d - e) / q**d, summed as ints
            p, q = value.as_integer_ratio()
            d = max((m[i] for m in self._terms), default=0)
            scaled.append([p**e * q ** (d - e) for e in range(d + 1)])
            denominator *= q**d
        s_q, s_v, s_q0 = scaled
        total = sum(c * s_q[a] * s_v[b] * s_q0[e] for (a, b, e), c in self._terms.items())
        return total // denominator if total % denominator == 0 else Fraction(total, denominator)

    def subs_poly(self, name: str, value: "MultiPoly | int") -> "MultiPoly":
        """Substitute a polynomial (or constant) for a variable, by Horner's
        rule over its exponents e: out = out * value + (the terms with e)."""
        val = self._coerce(value)
        if val is None:
            raise TypeError("subs_poly needs a MultiPoly or an int")
        i = _var_index(name)
        groups: dict[int, dict[Monomial, int]] = {}
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
        out: dict[Monomial, int] = {}
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

        Coefficients are decimal strings ("3", "-12") so the round trip is
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
        terms: dict[Monomial, int] = {}
        for item in data:
            if not isinstance(item, dict):
                raise ValueError("each term must be an object")
            try:
                # through str, so that a float such as 0.5 fails rather than truncates
                mono = (int(str(item["Q"])), int(str(item["v"])), int(str(item["Q0"])))
                coeff = int(str(item["coeff"]))
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"malformed polynomial term {item!r}") from exc
            if mono in terms:
                raise ValueError(f"duplicate monomial {mono}")
            terms[mono] = coeff
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
