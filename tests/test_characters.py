"""Amplitudes and decomposition identities against the oracles."""

import time
from fractions import Fraction

import pytest

from pottstrip import characters, transfer
from pottstrip.bruteforce import (
    MAX_EDGES,
    NtcSpectrum,
    dual_boundary_z,
    fixed_boundary_spin_z,
    fk_spectrum,
    fk_z,
    spin_z,
)
from pottstrip.characters import (
    amplitude_b,
    amplitude_c,
    amplitude_c_term,
    beraha_q,
    character_F,
    character_from_sectors,
    dual_boundary_decomposition,
    minimal_character,
    z1_minimal_alternating,
    z_fixed_boundary,
    z_fixed_boundary_minimal,
    z_from_characters,
    z_minimal,
    z_sector_from_characters,
)
from pottstrip.connectivity import count_states
from pottstrip.lattice import CyclicStrip, horizontal, square_strip, vertical
from pottstrip.polynomial import ONE, ZERO, Q, Q0, MultiPoly, v
from pottstrip.transfer import character_K, check_character_budget

STRIPS = [square_strip(1, 2), square_strip(2, 2), square_strip(2, 3)]


def test_amplitude_c_values():
    assert amplitude_c(0) == MultiPoly.one()
    assert amplitude_c(1) == Q - 1
    assert amplitude_c(2) == Q ** 2 - 3 * Q + 1
    assert amplitude_c(3) == Q ** 3 - 5 * Q ** 2 + 6 * Q - 1


def test_amplitude_c_terms_sum_to_c():
    for l in range(7):
        total = MultiPoly.zero()
        for j in range(l + 1):
            total = total + amplitude_c_term(j, l)
        assert total == amplitude_c(l)
        assert amplitude_c_term(l, l) == Q ** l
        assert amplitude_c_term(0, l) == (-1) ** l * MultiPoly.one()


def test_chang_shrock_sum_rule():
    """sum_l n(L, l) * c(l) = Q^L: the amplitudes weigh the states of a
    width-L slice up to the Q^L colourings of one column."""
    for width in range(1, 9):
        total = MultiPoly.zero()
        for l in range(width + 1):
            total = total + count_states(width, l) * amplitude_c(l)
        assert total == Q ** width


def test_amplitude_b_values():
    assert amplitude_b(0) == MultiPoly.one()
    assert amplitude_b(1) == Q0 - 1
    assert amplitude_b(2) == Q * Q0 - 3 * Q0 + 1


def test_amplitude_b_rational_form():
    """b(l) agrees with (-1)^l + (Q0/Q) * (c(l) - (-1)^l), the boundary
    reweighting of the cyclic amplitude, once cleared of the 1/Q."""
    for l in range(9):
        sign = (-1) ** l
        assert Q * amplitude_b(l) == sign * Q + Q0 * (amplitude_c(l) - sign)


def test_beraha_param():
    """A Beraha point is its p: ``beraha_q`` maps each rational one to its
    Q, and every Beraha-point decomposition refuses any other p."""
    assert [beraha_q(p) for p in (2, 3, 4, 6)] == [0, 1, 2, 3]
    strip = square_strip(2, 2)
    for bad in (1, 5, 7):
        with pytest.raises(ValueError, match="not supported"):
            beraha_q(bad)
        with pytest.raises(ValueError, match="not supported"):
            z_minimal(strip, bad)
    with pytest.raises(ValueError, match="not supported"):
        z_fixed_boundary_minimal(3, 2, 8)


def test_z_from_characters_matches_oracle():
    for strip in STRIPS:
        result = z_from_characters(strip)
        assert result.value == fk_z(strip)
        assert [l for l, _, _ in result.terms] == list(range(strip.width + 1))


#: strips beyond the 2**E oracle whose characters hold coefficients close to
#: the 2**E bound the packed slot width is derived from.
LONG_STRIPS = [square_strip(2, 20), square_strip(3, 10), square_strip(4, 6), square_strip(5, 4)]


@pytest.mark.parametrize("strip", LONG_STRIPS, ids=str)
def test_identities_beyond_the_oracle(strip):
    """Z(Q = 1) = (1 + v)^E, since every bond subset weighs v^|B|, and
    K(L) = v^(LN), since L marked blocks must all wrap."""
    assert strip.edge_count > MAX_EDGES
    z = z_from_characters(strip).value
    assert z.subs_poly("Q", 1) == (1 + v) ** strip.edge_count
    assert character_K(strip, strip.width) == v ** (strip.width * strip.length)


def test_z_from_characters_matches_spin_sum_beyond_the_oracle():
    strip = square_strip(4, 4)
    assert strip.edge_count > MAX_EDGES
    value = z_from_characters(strip).value.evaluate({"Q": 2, "v": Fraction(1, 2)})
    assert value == spin_z(strip, 2, Fraction(1, 2))
    # 3**16 spin configurations, which the old q**V cap of 10**7 refused
    value = z_from_characters(strip).value.evaluate({"Q": 3, "v": Fraction(-1, 3)})
    assert value == spin_z(strip, 3, Fraction(-1, 3))


def test_z_fixed_boundary_matches_the_spin_sweep_beyond_enumeration():
    """Width 6, length 3 at Q = 4 frees 4**12 spin configurations."""
    value = z_fixed_boundary(6, 3).value.evaluate({"Q": 4, "v": Fraction(1, 2)})
    assert value == fixed_boundary_spin_z(6, 3, 4, Fraction(1, 2))


def test_sector_decomposition_matches_oracle():
    for strip in STRIPS:
        spectrum = fk_spectrum(strip)
        for j in range(strip.width + 1):
            got = z_sector_from_characters(strip, j).value
            assert got == spectrum[j]
    with pytest.raises(ValueError):
        z_sector_from_characters(STRIPS[0], 5)


#: column programs with a vertical(i) between horizontal(i) and
#: horizontal(i+1), which the engine reads as a bond from row i's next site
#: to row i+1's current one.
INTERLEAVED = [
    (2, (vertical(0), horizontal(0), vertical(0), horizontal(1))),
    (3, (vertical(0), vertical(1), horizontal(0), vertical(0), horizontal(1), vertical(1),
         horizontal(2))),
    (3, (horizontal(0), vertical(0), horizontal(1), vertical(1), horizontal(2), vertical(0))),
]


@pytest.mark.parametrize("width, program", INTERLEAVED)
def test_interleaved_programs_match_the_oracle_in_every_sector(width, program):
    for length in (1, 2, 3):
        strip = CyclicStrip(width, length, program)
        spectrum = fk_spectrum(strip)
        for j in range(width + 1):
            got = z_sector_from_characters(strip, j).value
            assert got == spectrum[j], (length, j)


def test_character_inversion_round_trip():
    for strip in STRIPS:
        spectrum = fk_spectrum(strip)
        for l in range(strip.width + 1):
            rebuilt = character_from_sectors(strip, l, spectrum)
            assert rebuilt == character_K(strip, l)


def test_the_widest_admitted_sector_is_one_state():
    """K(321) of 321x1, the widest sector the caps admit and the deepest
    recursion of the state walk, is v^321; K(322) of 322x1 is refused."""
    assert character_K(square_strip(321, 1), 321) == v ** 321
    with pytest.raises(ValueError, match="caps are"):
        check_character_budget(square_strip(322, 1), 322)


def test_top_sectors_of_a_wide_column_match_the_oracle():
    """12x1 at l = 9..12, the sectors the caps admit there (l = 8 is
    refused), against the sectors of the 2**E oracle."""
    strip = square_strip(12, 1)
    for l in range(9, 13):
        assert character_K(strip, l) == character_from_sectors(strip, l), l
    with pytest.raises(ValueError, match="caps are"):
        check_character_budget(strip, 8)


def test_character_inversion_rejects_bad_divisibility():
    # a sector that is not divisible by Q**j is a contract violation
    fake = NtcSpectrum(1, (Q, v))
    with pytest.raises(ValueError):
        character_from_sectors(square_strip(1, 1), 0, fake)


def test_cumulative_characters():
    for strip in STRIPS:
        spectrum = fk_spectrum(strip)
        for l in range(strip.width + 2):
            diff = character_F(strip, l, spectrum) - character_F(
                strip, l + 1, spectrum
            )
            assert diff == character_K(strip, l)
        # beyond the width the cumulative sums are empty
        assert character_F(strip, strip.width + 1, spectrum).is_zero


def test_alternating_character_sum_is_sector_zero():
    for strip in STRIPS:
        total = MultiPoly.zero()
        for l in range(strip.width + 1):
            total = total + (-1) ** l * character_K(strip, l)
        assert total == fk_spectrum(strip)[0]


def test_minimal_character_validation():
    strip = square_strip(2, 2)
    with pytest.raises(ValueError):
        minimal_character(strip, -1, 4)
    with pytest.raises(ValueError):
        minimal_character(strip, 3, 4)  # l must stay below p - 1
    with pytest.raises(ValueError):
        minimal_character(strip, 0, 5)


def test_z_minimal_matches_oracle_at_every_supported_point():
    for strip in (square_strip(2, 2), square_strip(2, 3), square_strip(3, 2)):
        z = fk_z(strip)
        for p in (2, 3, 4, 6):
            q = beraha_q(p)
            assert z_minimal(strip, p).value == z.subs_poly("Q", q)


def test_z_minimal_degenerate_points():
    strip = square_strip(2, 2)
    # Q = 0: every configuration carries at least one cluster factor
    assert z_minimal(strip, 2).value.is_zero
    # Q = 1: the cluster weights drop out, leaving the free bond sum
    ones = (MultiPoly.one() + v) ** strip.edge_count
    assert z_minimal(strip, 3).value == ones


def test_z1_minimal_alternating():
    for strip in (square_strip(2, 2), square_strip(3, 2)):
        for p in (2, 4, 6):
            q = beraha_q(p)
            got = z1_minimal_alternating(strip, p)
            assert got == fk_spectrum(strip)[0].subs_poly("Q", q)
    with pytest.raises(ValueError):
        z1_minimal_alternating(square_strip(2, 2), 3)  # odd p unsupported


def test_dual_boundary_decomposition_matches_oracle():
    for strip in (square_strip(1, 2), square_strip(2, 2), square_strip(2, 3)):
        result = dual_boundary_decomposition(strip)
        assert result.value == dual_boundary_z(strip)


def test_dual_boundary_specializations():
    strip = square_strip(2, 2)
    reweighted = dual_boundary_decomposition(strip).value
    assert reweighted.subs_poly("Q0", Q) == fk_z(strip)
    assert reweighted.subs_poly("Q0", 0) == fk_spectrum(strip)[0]


def test_fixed_boundary_value():
    result = z_fixed_boundary(3, 2)
    assert isinstance(result.value, MultiPoly)
    got = result.value.evaluate({"Q": 2, "v": 1, "Q0": 0})
    assert got == fixed_boundary_spin_z(3, 2, 2, 1) == 1216


def test_fixed_boundary_rejects_narrow_strips():
    with pytest.raises(ValueError):
        z_fixed_boundary(2, 2)


def test_fixed_boundary_rejects_a_negative_power_of_q(monkeypatch):
    # A character sum of 1 on the inner 2x2 strip maps to v^6 at the dual
    # weight, which Q^4 = Q^(E+2-F) does not divide: Z_ff would not be a
    # polynomial, and that must raise rather than truncate.
    monkeypatch.setattr(
        characters, "characters_of", lambda strip, ms: {m: ONE if m == 0 else ZERO for m in ms}
    )
    with pytest.raises(ValueError, match="not divisible"):
        z_fixed_boundary(3, 2)
    # a v power above the edge count has no image under the map
    with pytest.raises(ValueError, match="negative exponent"):
        characters._at_dual_weight(v ** 7, 6)


def test_fixed_boundary_minimal_rejects_a_remainder(monkeypatch):
    # The same sum of 1 maps to v^6 at the dual weight; at p = 4 it must be
    # divided by 2^4 = Q^(E+2-F) at Q = 2, which leaves a remainder.
    monkeypatch.setattr(
        characters, "characters_of", lambda strip, ms: {m: ONE if m == 0 else ZERO for m in ms}
    )
    with pytest.raises(ValueError, match="not divisible"):
        z_fixed_boundary_minimal(3, 2, 4)


def test_character_sum_checks_its_beraha_point_before_any_read(monkeypatch):
    def read(*args):
        raise AssertionError("a character was read")

    monkeypatch.setattr(characters, "characters_of", read)
    with pytest.raises(ValueError, match="p=5 is not supported"):
        characters._character_sum("z@p=5", square_strip(2, 2), range(2), amplitude_c, 5)


@pytest.mark.parametrize("width,length", [(3, 2), (3, 3), (4, 2), (4, 3)])
@pytest.mark.parametrize("p", [4, 6])
def test_fixed_boundary_minimal_is_z_ff_at_the_beraha_point(width, length, p):
    q = beraha_q(p)
    value = z_fixed_boundary_minimal(width, length, p).value
    assert value == z_fixed_boundary(width, length).value.subs_poly("Q", q)
    for vv in (2, Fraction(1, 2)):
        assert value.evaluate({"v": vv}) == fixed_boundary_spin_z(width, length, q, vv)


def test_every_computed_coefficient_is_an_int():
    strip = square_strip(2, 3)
    values = [character_K(strip, l) for l in range(strip.width + 1)]
    values += [*fk_spectrum(strip).sectors, dual_boundary_z(strip)]
    results = [
        z_from_characters(strip),
        dual_boundary_decomposition(strip),
        z_fixed_boundary(3, 2),
        *(z_minimal(strip, p) for p in (3, 4, 6)),
        *(z_fixed_boundary_minimal(3, 2, p) for p in (4, 6)),
    ]
    values += [r.value for r in results]
    for poly in values:
        assert {type(c) for _, c in poly.terms()} == {int}, poly
    for r in results:
        for _, amplitude, character in r.terms:
            for _, c in [*amplitude.terms(), *character.terms()]:
                assert type(c) is int, r.target


def test_fixed_boundary_minimal_terms():
    result4 = z_fixed_boundary_minimal(3, 2, 4)
    value4, terms4 = result4.value, result4.terms
    live4 = [l for l, coeff, _ in terms4 if coeff != 0]
    assert live4 == [0]
    result6 = z_fixed_boundary_minimal(3, 2, 6)
    value6, terms6 = result6.value, result6.terms
    live6 = [l for l, coeff, _ in terms6 if coeff != 0]
    assert live6 == [0, 2]
    # the specialized values agree with the spin oracle at v = 1
    assert value4.evaluate({"Q": 2, "v": 1, "Q0": 0}) == 1216
    assert value6.evaluate({"Q": 3, "v": 1, "Q0": 0}) == fixed_boundary_spin_z(
        3, 2, 3, 1
    )


def test_a_wide_strip_is_refused_before_its_amplitudes(monkeypatch):
    """Every K(l) of 2000x1 is over the caps; the decompositions refuse it
    before they build one of its 2001 amplitudes."""
    def no_amplitude(*args):
        raise AssertionError("an amplitude was built")

    for name in ("amplitude_b", "amplitude_c", "amplitude_c_term"):
        monkeypatch.setattr(characters, name, no_amplitude)
    strip = square_strip(2000, 1)
    for call in (z_from_characters, dual_boundary_decomposition):
        with pytest.raises(ValueError, match="caps are"):
            call(strip)
    with pytest.raises(ValueError, match="caps are"):
        z_fixed_boundary(2000, 1)


def test_decompositions_check_the_budget_before_any_state(monkeypatch):
    """On 7x4 K(0) fits the caps and K(1) does not: every decomposition
    (of the inner 7x4 strip for Z_ff) checks each K(m) it reads before it
    computes any, so none builds a state."""
    def no_states(*args):
        raise AssertionError("a state was enumerated")

    monkeypatch.setattr(transfer, "enumerate_states", no_states)
    strip = square_strip(7, 4)
    calls = [
        lambda: z_from_characters(strip),
        lambda: z_sector_from_characters(strip, 1),
        lambda: dual_boundary_decomposition(strip),
        lambda: z_minimal(strip, 3),
        lambda: z_fixed_boundary(8, 4),
        lambda: z_fixed_boundary_minimal(8, 4, 4),
    ]
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="caps are"):
            call()
        assert time.perf_counter() - start < 10
