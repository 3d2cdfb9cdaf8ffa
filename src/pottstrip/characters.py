"""Amplitudes and exact decompositions of strip partition functions.

The partition function of a cyclic strip resolves onto the characters
K(l) = trace(T_l ** N) with q-deformed integer amplitudes:

    Z            = sum_l  c(l) K(l),          c(l)  = sum_j (-1)**(l-j) C(l+j, l-j) Q**j
    Z_(2j+1)     = sum_l  c_j(l) K(l),        c_j(l) = (-1)**(l-j) C(l+j, l-j) Q**j
    K(l)         = sum_j  n(j, l) Z_(2j+1) / Q**j
    F(l)         = sum_j  C(2j, j-l) Z_(2j+1) / Q**j,    K(l) = F(l) - F(l+1)

where Z_(2j+1) collects the configurations with exactly j winding clusters
and n(j, l) is the ballot count of :func:`~pottstrip.connectivity.count_states`.
The divisions by Q**j are exact and are asserted, not assumed.

At a Beraha point Q = (2 cos(pi/p))**2 with p in {2, 3, 4, 6} (Q = 0, 1, 2,
3) the characters regroup into the finitely many *minimal characters*

    chi(l) = sum_{n >= 0} [ K(n p + l) - K((n+1) p - 1 - l) ],

through which Z decomposes with the amplitudes c(l) evaluated at that Q.

``dual_boundary_decomposition`` and ``z_fixed_boundary`` express the
boundary-reweighted cluster sum and the fixed-boundary partition function
through the same characters, with amplitudes b(l) carrying the boundary
cluster weight Q0 and with the bond weight moved to its dual v -> Q/v.
The dual weight never leaves the polynomial ring: v**E * p(v -> Q/v) is a
monomial map on the terms of p, and the remaining division by a power of Q
is exact and asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bruteforce import NtcSpectrum, fk_spectrum
from .connectivity import count_states
from .lattice import CyclicStrip, square_strip
from .polynomial import MultiPoly, v
from .transfer import character_K


def amplitude_c(l: int) -> MultiPoly:
    """The cyclic amplitude of K(l) in Z: a monic degree-l polynomial in Q.

    >>> print(amplitude_c(2))
    Q^2 - 3*Q + 1
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    out = MultiPoly.zero()
    for j in range(l + 1):
        out = out + MultiPoly.monomial((-1) ** (l - j) * comb(l + j, l - j), (j, 0, 0))
    return out


def amplitude_c_term(j: int, l: int) -> MultiPoly:
    """The amplitude of K(l) inside the j-winding sector Z_(2j+1); the
    amplitudes of a fixed l sum over j back to amplitude_c(l)."""
    if not 0 <= j <= l:
        raise ValueError("need 0 <= j <= l")
    return MultiPoly.monomial((-1) ** (l - j) * comb(l + j, l - j), (j, 0, 0))


def amplitude_b(l: int) -> MultiPoly:
    """The boundary amplitude: like amplitude_c, but every power Q**j with
    j >= 1 trades one factor of Q for the boundary weight Q0.

    >>> print(amplitude_b(1))
    Q0 - 1
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    out = MultiPoly.constant((-1) ** l)
    for j in range(1, l + 1):
        out = out + MultiPoly.monomial(
            (-1) ** (l - j) * comb(l + j, l - j), (j - 1, 0, 1)
        )
    return out


@dataclass(frozen=True)
class BerahaParam:
    """A supported Beraha point: integer p with Q = (2 cos(pi/p))**2 rational.

    >>> BerahaParam.from_p(4).q_value
    Fraction(2, 1)
    """

    p: int
    q_value: Fraction

    _SUPPORTED = {2: Fraction(0), 3: Fraction(1), 4: Fraction(2), 6: Fraction(3)}

    @classmethod
    def from_p(cls, p: int) -> "BerahaParam":
        try:
            return cls(p, cls._SUPPORTED[p])
        except KeyError:
            raise ValueError(
                f"p={p} is not supported; rational Beraha points have p in {{2, 3, 4, 6}}"
            ) from None


@dataclass(frozen=True)
class DecompositionResult:
    """A value together with the amplitude-times-character terms composing it.

    ``terms`` holds (l, amplitude, character) triples; ``value`` is their
    accumulated sum, an exact polynomial.  In the fixed-boundary case
    ``value`` is that sum at the dual bond weight times the stated prefactor,
    while the terms stay at the direct weight.
    """

    target: str
    strip: CyclicStrip
    value: MultiPoly
    terms: tuple[tuple[int, MultiPoly, MultiPoly], ...]


def z_from_characters(strip: CyclicStrip) -> DecompositionResult:
    """Z as the amplitude-weighted character sum over l = 0..L."""
    terms = []
    total = MultiPoly.zero()
    for l in range(strip.width + 1):
        amp = amplitude_c(l)
        k = character_K(strip, l)
        terms.append((l, amp, k))
        total = total + amp * k
    return DecompositionResult("z", strip, total, tuple(terms))


def z_sector_from_characters(strip: CyclicStrip, j: int) -> DecompositionResult:
    """The j-winding sector Z_(2j+1) as a character sum over l = j..L."""
    if not 0 <= j <= strip.width:
        raise ValueError(f"sector {j} outside range(0, {strip.width + 1})")
    terms = []
    total = MultiPoly.zero()
    for l in range(j, strip.width + 1):
        amp = amplitude_c_term(j, l)
        k = character_K(strip, l)
        terms.append((l, amp, k))
        total = total + amp * k
    return DecompositionResult(f"z2j[{j}]", strip, total, tuple(terms))


def _sector(strip: CyclicStrip, j: int, spectrum: NtcSpectrum | None) -> MultiPoly:
    if spectrum is None:
        spectrum = fk_spectrum(strip)
    return spectrum[j]


def character_from_sectors(
    strip: CyclicStrip, l: int, spectrum: NtcSpectrum | None = None
) -> MultiPoly:
    """Invert the sector decomposition: rebuild K(l) from the winding
    sectors Z_(2j+1) (by default the exhaustively enumerated ones).

    Each Z_(2j+1) must be divisible by Q**j -- every configuration counted
    there has j winding clusters, each worth a factor Q -- and the division
    is checked term by term.
    """
    if not 0 <= l <= strip.width:
        raise ValueError(f"l={l} outside range(0, {strip.width + 1})")
    out = MultiPoly.zero()
    for j in range(l, strip.width + 1):
        sector = _sector(strip, j, spectrum).quotient_by_monomial((j, 0, 0))
        coeff = count_states(j, l) if j > 0 else 1  # n(0, 0) = 1, and j = 0 forces l = 0
        out = out + coeff * sector
    return out


def character_F(
    strip: CyclicStrip, l: int, spectrum: NtcSpectrum | None = None
) -> MultiPoly:
    """The cumulative character F(l): consecutive differences give K.

    F(l) = sum_{j >= l} C(2j, j-l) Z_(2j+1) / Q**j, and F(L+1) = 0.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    out = MultiPoly.zero()
    for j in range(l, strip.width + 1):
        sector = _sector(strip, j, spectrum).quotient_by_monomial((j, 0, 0))
        out = out + comb(2 * j, j - l) * sector
    return out


def minimal_character(strip: CyclicStrip, l: int, p: int | BerahaParam) -> MultiPoly:
    """The minimal character chi(l) at a Beraha point, as a polynomial in v.

    chi(l) = sum_{n >= 0} [K(np + l) - K((n+1)p - 1 - l)] with K(m) = 0 for
    m > L, Q evaluated at the Beraha value.  Requires 0 <= l <= p - 2.
    """
    beraha = p if isinstance(p, BerahaParam) else BerahaParam.from_p(p)
    if not 0 <= l <= beraha.p - 2:
        raise ValueError(f"minimal characters need 0 <= l <= p-2, got l={l}, p={beraha.p}")
    out = MultiPoly.zero()
    n = 0
    while True:
        plus = n * beraha.p + l
        minus = (n + 1) * beraha.p - 1 - l
        if plus > strip.width and minus > strip.width:
            break
        out = out + character_K(strip, plus) - character_K(strip, minus)
        n += 1
    return out.subs_poly("Q", beraha.q_value)


def z_minimal(strip: CyclicStrip, p: int | BerahaParam) -> DecompositionResult:
    """Z at a Beraha point as a finite sum of minimal characters:
    Z = sum_{l=0}^{floor((p-2)/2)} c(l)|_Q  chi(l)."""
    beraha = p if isinstance(p, BerahaParam) else BerahaParam.from_p(p)
    terms = []
    total = MultiPoly.zero()
    for l in range((beraha.p - 2) // 2 + 1):
        amp = amplitude_c(l).subs_poly("Q", beraha.q_value)
        chi = minimal_character(strip, l, beraha)
        terms.append((l, amp, chi))
        total = total + amp * chi
    return DecompositionResult(f"z@p={beraha.p}", strip, total, tuple(terms))


def z1_minimal_alternating(strip: CyclicStrip, p: int | BerahaParam) -> MultiPoly:
    """For even p: the zero-winding sector as an alternating sum of minimal
    characters, Z_1 = sum_l (-1)**l chi(l)."""
    beraha = p if isinstance(p, BerahaParam) else BerahaParam.from_p(p)
    if beraha.p % 2:
        raise ValueError("the alternating minimal-character form needs even p")
    out = MultiPoly.zero()
    for l in range((beraha.p - 2) // 2 + 1):
        out = out + (-1) ** l * minimal_character(strip, l, beraha)
    return out


def dual_boundary_decomposition(strip: CyclicStrip) -> DecompositionResult:
    """The boundary-reweighted cluster sum (one winding cluster worth Q0)
    as a character sum with the b amplitudes: sum_l b(l) K(l).

    Specializations: Q0 = Q gives back Z; Q0 = 0 leaves the zero-winding
    sector Z_1.
    """
    terms = []
    total = MultiPoly.zero()
    for l in range(strip.width + 1):
        amp = amplitude_b(l)
        k = character_K(strip, l)
        terms.append((l, amp, k))
        total = total + amp * k
    return DecompositionResult("dual", strip, total, tuple(terms))


def _at_dual_weight(poly: MultiPoly, edges: int) -> MultiPoly:
    """v**edges * poly(v -> Q/v), term by term: c Q**a v**k Q0**m becomes
    c Q**(a+k) v**(edges-k) Q0**m.  A term with k > edges is rejected by
    the MultiPoly constructor as a negative exponent."""
    return MultiPoly({(a + k, edges - k, m): c for (a, k, m), c in poly.terms()})


def z_fixed_boundary(width: int, length: int) -> DecompositionResult:
    """The fixed-boundary partition function of a width-L strip, from the
    characters of the width-(L-1) cyclic strip at the dual bond weight:

        Z_ff(L, N) = (1+v)**(2N) * Q**(F-2) / vd**E * sum_l b(l)|_{Q0=1} K(l)|_{v -> vd}

    with vd = Q/v and E, F the edge and face counts of the width-(L-1)
    strip.  The two frozen rows couple through the strip's two annulus
    caps, giving the (1+v)**(2N) boundary-bond factor and the unit weight
    (Q0 = 1) of every cluster touching a cap.

    The division by Q**(E+2-F) = Q**((L-1)N) is exact term by term, so
    Z_ff is asserted to be a polynomial; a negative power of Q raises
    ValueError.  ``terms`` holds the (l, b(l)|_{Q0=1}, K(l)) summands before
    the v -> vd substitution.
    """
    if width < 3:
        raise ValueError("fixed-boundary strips need width >= 3")
    inner = square_strip(width - 1, length)
    terms = []
    total = MultiPoly.zero()
    for l in range(inner.width + 1):
        amp = amplitude_b(l).subs_poly("Q0", 1)
        k = character_K(inner, l)
        terms.append((l, amp, k))
        total = total + amp * k
    edges = inner.edge_count
    dual_sum = _at_dual_weight(total, edges).quotient_by_monomial(
        (edges + 2 - inner.face_count, 0, 0)
    )
    value = (MultiPoly.one() + v) ** (2 * length) * dual_sum
    return DecompositionResult(
        f"zff[{width}x{length}]", square_strip(width, length), value, tuple(terms)
    )


def z_fixed_boundary_minimal(
    width: int, length: int, p: int | BerahaParam
) -> DecompositionResult:
    """The fixed-boundary decomposition at a Beraha point, regrouped into
    minimal characters of the width-(L-1) strip:

        Z_ff = prefactor * sum_{l=0}^{floor((p-2)/2)} b(l)|_{Q0=1, Q} chi(l)

    ``terms`` holds (l, b(l)|_{Q0=1, Q}, chi(l)) with constant amplitudes;
    the chi are polynomials in v, still at the direct bond weight (the
    v -> Q/v substitution shows only inside ``value``).  p = 2 is rejected:
    there Q = 0 and the dual weight Q/v vanishes.
    """
    beraha = p if isinstance(p, BerahaParam) else BerahaParam.from_p(p)
    if beraha.p % 2:
        raise ValueError("the minimal regrouping is stated for even p")
    if width < 3:
        raise ValueError("fixed-boundary strips need width >= 3")
    q = beraha.q_value
    if not q:
        raise ValueError(
            "the fixed-boundary regrouping is undefined at p=2: Q = 0 makes "
            "the dual bond weight Q/v vanish"
        )
    inner = square_strip(width - 1, length)
    terms = []
    total = MultiPoly.zero()
    for l in range((beraha.p - 2) // 2 + 1):
        amp = amplitude_b(l).subs_poly("Q0", 1).subs_poly("Q", q)
        chi = minimal_character(inner, l, beraha)
        terms.append((l, amp, chi))
        total = total + amp * chi
    edges = inner.edge_count
    dual_sum = _at_dual_weight(total, edges).subs_poly("Q", q)
    value = (
        (MultiPoly.one() + v) ** (2 * length)
        * dual_sum
        * q ** (inner.face_count - 2 - edges)
    )
    return DecompositionResult(
        f"zff[{width}x{length}]@p={beraha.p}",
        square_strip(width, length),
        value,
        tuple(terms),
    )
