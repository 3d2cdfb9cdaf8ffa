"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Every criterion compares library results against independent ground truth
(exhaustive cluster or spin enumeration, closed forms, or hand-derived
combinatorics) with zero tolerance.  Each test prints a single
"CRITERION n PASS/FAIL" line; stated runtime budgets are asserted.
"""

import time
from fractions import Fraction

from pottstrip.bruteforce import (
    dual_boundary_z,
    duality_witness_check,
    fixed_boundary_spin_z,
    fk_spectrum,
    fk_z,
)
from pottstrip.characters import (
    amplitude_b,
    amplitude_c,
    beraha_q,
    character_F,
    character_from_sectors,
    dual_boundary_decomposition,
    z1_minimal_alternating,
    z_fixed_boundary,
    z_fixed_boundary_minimal,
    z_from_characters,
    z_minimal,
    z_sector_from_characters,
)
from pottstrip.connectivity import catalan, count_states, enumerate_states
from pottstrip.lattice import square_strip
from pottstrip.polynomial import Q, Q0, MultiPoly, v
from pottstrip.transfer import character_K, verify_block_structure

from duality_reference import duality_witnesses

MAIN_GRID = [
    square_strip(width, length)
    for width in (1, 2, 3)
    for length in (1, 2, 3, 4)
]


def _report(number: int, failures: list, label: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"CRITERION {number} {status}: {label}")
    assert not failures, failures[:5]


def test_criterion_01_dimension_formula():
    started = time.monotonic()
    failures = []
    for width in range(1, 7):
        for marks in range(width + 1):
            expected = count_states(width, marks)
            got = len(enumerate_states(width, marks))
            if got != expected:
                failures.append((width, marks, got, expected))
        squares = sum(count_states(width, l) ** 2 for l in range(width + 1))
        if squares != catalan(2 * width):
            failures.append(("catalan", width, squares))
    elapsed = time.monotonic() - started
    if elapsed >= 10:
        failures.append(("runtime", elapsed))
    _report(1, failures, "state dimensions and two-slice sum, widths 1..6")


def test_criterion_02_block_structure():
    started = time.monotonic()
    failures = []
    for width in (1, 2, 3):
        report = verify_block_structure(square_strip(width, 1))
        if not report.passed:
            failures.append((width, report.failures))
    elapsed = time.monotonic() - started
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    _report(2, failures, "transfer block structure, widths 1..3")


def test_criterion_03_main_decomposition():
    started = time.monotonic()
    failures = []
    for strip in MAIN_GRID:
        if z_from_characters(strip).value != fk_z(strip):
            failures.append(str(strip))
    elapsed = time.monotonic() - started
    if elapsed >= 120:
        failures.append(("runtime", elapsed))
    _report(3, failures, "Z equals the amplitude-character sum, 3x4 grid")


def test_criterion_04_sector_decomposition():
    failures = []
    for strip in MAIN_GRID:
        spectrum = fk_spectrum(strip)
        for j in range(strip.width + 1):
            got = z_sector_from_characters(strip, j).value
            if got != spectrum[j]:
                failures.append((str(strip), "sector", j))
        for l in range(strip.width + 1):
            if character_from_sectors(strip, l, spectrum) != character_K(
                strip, l
            ):
                failures.append((str(strip), "inversion", l))
        alternating = MultiPoly.zero()
        for l in range(strip.width + 1):
            alternating = alternating + (-1) ** l * character_K(strip, l)
        if alternating != spectrum[0]:
            failures.append((str(strip), "alternating"))
    _report(4, failures, "winding sectors, inversion, alternating sum")


def test_criterion_05_cumulative_characters():
    failures = []
    for strip in MAIN_GRID:
        spectrum = fk_spectrum(strip)
        for l in range(strip.width + 2):
            diff = character_F(strip, l, spectrum) - character_F(
                strip, l + 1, spectrum
            )
            if diff != character_K(strip, l):
                failures.append((str(strip), l))
    _report(5, failures, "cumulative sums difference to characters")


def test_criterion_06_amplitude_symmetries():
    failures = []
    expected = {
        2: [1, 1, -1, -1, 1, 1, -1, -1, 1],
        3: [1, 2, 1, -1, -2, -1, 1, 2, 1],
    }
    for q, pattern in expected.items():
        got = [
            amplitude_c(l).evaluate({"Q": q, "v": 0, "Q0": 0})
            for l in range(9)
        ]
        if got != pattern:
            failures.append((q, got))
    # b(l) = -b(p-1+np-l) = b(np+l) at p = 4 (Q = 2), Q0 symbolic
    p = 4
    b = [amplitude_b(l).subs_poly("Q", 2) for l in range(9)]
    for l in range(9):
        for n in range(9):
            mirror = p - 1 + n * p - l
            if 0 <= mirror < 9 and b[l] != -1 * b[mirror]:
                failures.append(("mirror", l, mirror))
            shifted = n * p + l
            if n > 0 and shifted < 9 and b[l] != b[shifted]:
                failures.append(("period", l, shifted))
    _report(6, failures, "amplitude sign patterns and boundary symmetry")


def test_criterion_07_minimal_characters():
    failures = []
    for width in (2, 3):
        for length in (2, 3, 4):
            strip = square_strip(width, length)
            z = fk_z(strip)
            for p in (4, 6):
                q = beraha_q(p)
                got = z_minimal(strip, p).value
                if got != z.subs_poly("Q", q):
                    failures.append((str(strip), p))
            z1 = fk_spectrum(strip)[0].subs_poly("Q", 2)
            if z1_minimal_alternating(strip, 4) != z1:
                failures.append((str(strip), "alternating p=4"))
    _report(7, failures, "Beraha-point regroupings of Z and its j=0 sector")


def test_criterion_08_duality():
    failures = []
    for width, length in ((1, 2), (2, 2), (2, 3)):
        strip = square_strip(width, length)
        if not duality_witness_check(strip):
            failures.append((str(strip), "witness"))
        # the aggregate relation Q**(1-F) * v**E * Zdual(Q/v) == Z, cleared
        # of its denominators: each dual configuration with a clusters and
        # k bonds contributes Q**(a+k) * v**(E-k) to Q**(F-1) * Z
        lhs = MultiPoly.zero()
        for w in duality_witnesses(strip):
            k = w.dual_bonds
            lhs = lhs + MultiPoly.monomial(
                1, (w.dual_ntc + w.dual_trivial + k, strip.edge_count - k, 0)
            )
        if lhs != Q ** (strip.face_count - 1) * fk_z(strip):
            failures.append((str(strip), "aggregate"))
    _report(8, failures, "per-configuration and aggregate duality")


def test_criterion_09_dual_decomposition():
    failures = []
    if amplitude_b(1) != Q0 - 1:
        failures.append("b(1)")
    for width in (1, 2):
        for length in (2, 3):
            strip = square_strip(width, length)
            decomposed = dual_boundary_decomposition(strip).value
            if decomposed != dual_boundary_z(strip):
                failures.append((str(strip), "oracle"))
            if decomposed.subs_poly("Q0", Q) != fk_z(strip):
                failures.append((str(strip), "Q0->Q"))
            if decomposed.subs_poly("Q0", 0) != fk_spectrum(strip)[0]:
                failures.append((str(strip), "Q0->0"))
    _report(9, failures, "boundary-reweighted decomposition and limits")


def test_criterion_10_fixed_boundaries():
    failures = []
    cases = [(2, 2), (2, 3), (3, 2)]  # (Q, length)
    for q, length in cases:
        value = z_fixed_boundary(3, length).value
        for vv in (Fraction(1), Fraction(2), Fraction(1, 2)):
            got = value.evaluate({"Q": q, "v": vv, "Q0": 0})
            want = fixed_boundary_spin_z(3, length, q, vv)
            if got != want:
                failures.append((q, length, str(vv)))
    for p, live in ((4, [0]), (6, [0, 2])):
        for length in (2, 3):
            terms = z_fixed_boundary_minimal(3, length, p).terms
            got = [l for l, coeff, _ in terms if coeff != 0]
            if got != live:
                failures.append(("terms", p, length, got))
    _report(10, failures, "fixed-boundary strips against the spin oracle")


def test_criterion_11_closed_forms():
    failures = []
    for length in (1, 2, 3, 4):
        strip = square_strip(1, length)
        if character_K(strip, 0) != (Q + v) ** length:
            failures.append(("K0", length))
        if character_K(strip, 1) != v ** length:
            failures.append(("K1", length))
    for width in (1, 2, 3):
        for length in (1, 2, 3, 4):
            strip = square_strip(width, length)
            if character_K(strip, width) != v ** (width * length):
                failures.append(("top", width, length))
    _report(11, failures, "closed-form characters on narrow strips")
