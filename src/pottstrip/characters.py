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

Every decomposition here is one call of a single sum, amplitude times
character over l (K(l), or chi(l) through the signed K(m) of its
definition; for Z_ff, on the width-(L-1) strip).  That sum validates its
Beraha point, then reads every K(m) it needs in one call of
``transfer.characters_of``, which checks them all against the cost caps
before computing any: a strip over the caps is refused before a state is
built, for library and CLI callers alike.  The K(m) are cached in
``character_K`` and shared.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Callable, Iterable

from ._record import Record
from .connectivity import count_states
from .lattice import CyclicStrip, square_strip
from .polynomial import ONE, MultiPoly, Q0, v
from .transfer import characters_of

if TYPE_CHECKING:
    from .bruteforce import NtcSpectrum


def amplitude_c(l: int) -> MultiPoly:
    """The cyclic amplitude of K(l) in Z: a monic degree-l polynomial in Q.

    >>> print(amplitude_c(2))
    Q^2 - 3*Q + 1
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    return sum((amplitude_c_term(j, l) for j in range(l + 1)), MultiPoly.zero())


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
    traded = sum(
        (amplitude_c_term(j, l).quotient_by_monomial((1, 0, 0)) for j in range(1, l + 1)),
        MultiPoly.zero(),
    )
    return amplitude_c_term(0, l) + Q0 * traded


#: Q = (2 cos(pi/p))**2 at the rational Beraha points, by p.
_BERAHA_Q = {2: 0, 3: 1, 4: 2, 6: 3}


def beraha_q(p: int) -> int:
    """The value of Q at the Beraha point p; ValueError unless Q is
    rational there, p in {2, 3, 4, 6}.

    >>> beraha_q(4)
    2
    """
    try:
        return _BERAHA_Q[p]
    except KeyError:
        raise ValueError(
            f"p={p} is not supported; rational Beraha points have p in {{2, 3, 4, 6}}"
        ) from None


class DecompositionResult(Record):
    """A value together with the amplitude-times-character terms composing it.

    ``terms`` holds (l, amplitude, character) triples; ``value`` is their
    accumulated sum, an exact polynomial.  In the fixed-boundary case
    ``value`` is that sum at the dual bond weight times the stated prefactor,
    while the terms stay at the direct weight.
    """

    __slots__ = ("target", "strip", "value", "terms")


def _minimal_marks(width: int, l: int, p: int) -> list[tuple[int, int]]:
    """The signed characters of chi(l) on a width-L strip: (m, +1) for
    K(np + l) and (m, -1) for K((n+1)p - 1 - l), every m <= L (K(m) is
    zero beyond).

    >>> _minimal_marks(4, 0, 4)
    [(0, 1), (3, -1), (4, 1)]
    """
    marks = []
    for n in range(width // p + 1):
        for m, sign in ((n * p + l, 1), ((n + 1) * p - 1 - l, -1)):
            if m <= width:
                marks.append((m, sign))
    return marks


def _character_sum(
    target: str,
    strip: CyclicStrip,
    ls: Iterable[int],
    amplitude: Callable[[int], MultiPoly],
    p: int | None = None,
) -> DecompositionResult:
    """sum amplitude(l) * K(l) over ``ls``; with a Beraha point ``p``, sum
    amplitude(l) * chi(l) with Q at ``beraha_q(p)`` in both factors.

    ``p`` is validated first; then every K(m) the sum reads comes from one
    ``characters_of`` call, which refuses a strip over the caps before any
    state or amplitude is built.
    """
    q = None if p is None else beraha_q(p)
    reads = [(l, [(l, 1)] if p is None else _minimal_marks(strip.width, l, p)) for l in ls]
    ks = characters_of(strip, (m for _, marks in reads for m, _ in marks))
    terms = []
    total = MultiPoly.zero()
    for l, marks in reads:
        amp = amplitude(l)
        character = MultiPoly.zero()
        for m, sign in marks:
            character = character + ks[m] if sign > 0 else character - ks[m]
        if q is not None:
            amp = amp.subs_poly("Q", q)
            character = character.subs_poly("Q", q)
        terms.append((l, amp, character))
        total = total + amp * character
    return DecompositionResult(target, strip, total, tuple(terms))


def z_from_characters(strip: CyclicStrip) -> DecompositionResult:
    """Z as the amplitude-weighted character sum over l = 0..L."""
    return _character_sum("z", strip, range(strip.width + 1), amplitude_c)


def z_sector_from_characters(strip: CyclicStrip, j: int) -> DecompositionResult:
    """The j-winding sector Z_(2j+1) as a character sum over l = j..L."""
    if not 0 <= j <= strip.width:
        raise ValueError(f"sector {j} outside range(0, {strip.width + 1})")
    return _character_sum(
        f"z2j[{j}]", strip, range(j, strip.width + 1), lambda l: amplitude_c_term(j, l)
    )


def _sector_sum(strip: CyclicStrip, l: int, coeff, spectrum: NtcSpectrum | None) -> MultiPoly:
    """sum_{j = l..L} coeff(j) * Z_(2j+1) / Q**j, the division checked term
    by term; the oracle's spectrum is enumerated only if some j is summed."""
    out = MultiPoly.zero()
    for j in range(l, strip.width + 1):
        if spectrum is None:
            from .bruteforce import fk_spectrum

            spectrum = fk_spectrum(strip)
        out = out + coeff(j) * spectrum[j].quotient_by_monomial((j, 0, 0))
    return out


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
    # n(0, 0) = 1, and j = 0 forces l = 0
    return _sector_sum(strip, l, lambda j: count_states(j, l) if j > 0 else 1, spectrum)


def character_F(
    strip: CyclicStrip, l: int, spectrum: NtcSpectrum | None = None
) -> MultiPoly:
    """The cumulative character F(l): consecutive differences give K.

    F(l) = sum_{j >= l} C(2j, j-l) Z_(2j+1) / Q**j, and F(L+1) = 0.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    return _sector_sum(strip, l, lambda j: comb(2 * j, j - l), spectrum)


def minimal_character(strip: CyclicStrip, l: int, p: int) -> MultiPoly:
    """The minimal character chi(l) at a Beraha point, as a polynomial in v.

    chi(l) = sum_{n >= 0} [K(np + l) - K((n+1)p - 1 - l)] with K(m) = 0 for
    m > L, Q evaluated at the Beraha value.  Requires 0 <= l <= p - 2.
    """
    beraha_q(p)
    if not 0 <= l <= p - 2:
        raise ValueError(f"minimal characters need 0 <= l <= p-2, got l={l}, p={p}")
    return _character_sum(f"chi[{l}]@p={p}", strip, [l], lambda _: ONE, p).value


def z_minimal(strip: CyclicStrip, p: int) -> DecompositionResult:
    """Z at a Beraha point as a finite sum of minimal characters:
    Z = sum_{l=0}^{floor((p-2)/2)} c(l)|_Q  chi(l)."""
    return _character_sum(f"z@p={p}", strip, range(p // 2), amplitude_c, p)


def z1_minimal_alternating(strip: CyclicStrip, p: int) -> MultiPoly:
    """For even p: the zero-winding sector as an alternating sum of minimal
    characters, Z_1 = sum_l (-1)**l chi(l)."""
    beraha_q(p)
    if p % 2:
        raise ValueError("the alternating minimal-character form needs even p")
    return _character_sum(
        f"z1@p={p}", strip, range(p // 2), lambda l: MultiPoly.constant((-1) ** l), p
    ).value


def dual_boundary_decomposition(strip: CyclicStrip) -> DecompositionResult:
    """The boundary-reweighted cluster sum (one winding cluster worth Q0)
    as a character sum with the b amplitudes: sum_l b(l) K(l).

    Specializations: Q0 = Q gives back Z; Q0 = 0 leaves the zero-winding
    sector Z_1.
    """
    return _character_sum("dual", strip, range(strip.width + 1), amplitude_b)


def _at_dual_weight(poly: MultiPoly, edges: int) -> MultiPoly:
    """v**edges * poly(v -> Q/v), term by term: c Q**a v**k Q0**m becomes
    c Q**(a+k) v**(edges-k) Q0**m.  A term with k > edges is rejected by
    the MultiPoly constructor as a negative exponent."""
    return MultiPoly({(a + k, edges - k, m): c for (a, k, m), c in poly.terms()})


def _fixed_boundary(width: int, length: int, p: int | None) -> DecompositionResult:
    """Z_ff from the b(l)|_{Q0=1} character sum of the width-(L-1) strip:
    the sum at the dual weight, divided exactly by Q**(E+2-F) (at a Beraha
    point, by that integer power of Q's value), times (1+v)**(2N).  Both
    entry points' refusals: unsupported or odd p, width below 3, p = 2."""
    q = None if p is None else beraha_q(p)
    if p is not None and p % 2:
        raise ValueError("the minimal regrouping is stated for even p")
    if width < 3:
        raise ValueError("fixed-boundary strips need width >= 3")
    if q == 0:
        raise ValueError(
            "the fixed-boundary regrouping is undefined at p=2: Q = 0 makes "
            "the dual bond weight Q/v vanish"
        )
    inner = square_strip(width - 1, length)
    target = f"zff[{width}x{length}]" + ("" if p is None else f"@p={p}")
    ls = range(width) if p is None else range(p // 2)
    result = _character_sum(target, inner, ls, lambda l: amplitude_b(l).subs_poly("Q0", 1), p)
    edges = inner.edge_count
    dual_sum = _at_dual_weight(result.value, edges)
    if p is None:
        dual_sum = dual_sum.quotient_by_monomial((edges + 2 - inner.face_count, 0, 0))
    else:
        # Z_ff at an integer Q has integer coefficients and (1+v)**(2N) is
        # primitive, so by Gauss's lemma a remainder here is an upstream bug.
        d = q ** (edges + 2 - inner.face_count)
        dual_sum = dual_sum.subs_poly("Q", q)
        if any(c % d for _, c in dual_sum.terms()):
            raise ValueError(f"{dual_sum} is not divisible by {d}")
        dual_sum = MultiPoly({m: c // d for m, c in dual_sum.terms()})
    value = (ONE + v) ** (2 * length) * dual_sum
    return DecompositionResult(result.target, square_strip(width, length), value, result.terms)


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
    return _fixed_boundary(width, length, None)


def z_fixed_boundary_minimal(width: int, length: int, p: int) -> DecompositionResult:
    """The fixed-boundary decomposition at a Beraha point, regrouped into
    minimal characters of the width-(L-1) strip:

        Z_ff = prefactor * sum_{l=0}^{floor((p-2)/2)} b(l)|_{Q0=1, Q} chi(l)

    ``terms`` holds (l, b(l)|_{Q0=1, Q}, chi(l)) with constant amplitudes;
    the chi are polynomials in v, still at the direct bond weight (the
    v -> Q/v substitution shows only inside ``value``).  p = 2 is rejected:
    there Q = 0 and the dual weight Q/v vanishes.
    """
    return _fixed_boundary(width, length, p)
