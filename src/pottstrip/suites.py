"""Named identity suites: every decomposition checked against ground truth.

Each check compares two independently computed exact quantities and reports
a :class:`CheckResult`; a failing polynomial identity carries the difference
of the two sides in its detail string.  The CLI's ``verify`` command drives
these; the test suite asserts them at fixed sizes.

Suites:

* ``cyclic``  -- character decompositions of Z and its winding sectors,
                 sector inversions, cumulative characters, closed forms;
* ``minimal`` -- Beraha-point regroupings and amplitude sign patterns;
* ``dual``    -- per-configuration duality witnesses, boundary-reweighted
                 decomposition, fixed-boundary strips;
* ``all``     -- the above plus state counting and block structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import bruteforce, characters
from .connectivity import catalan, count_states, enumerate_states, enumerate_two_slice
from .lattice import square_strip
from .polynomial import MultiPoly
from .transfer import character_K, verify_block_structure

SUITES = ("all", "cyclic", "dual", "minimal")


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    ok: bool
    detail: str = ""


def _diff(lhs: MultiPoly, rhs: MultiPoly) -> str:
    """Both coefficients at the first monomial, in decreasing term order,
    where the sides differ; then their difference, cut at 400 characters."""
    delta = lhs - rhs
    mono, _ = next(delta.terms())
    text = str(delta)
    if len(text) > 400:
        text = text[:400] + " ..."
    return (
        f"first difference at {MultiPoly.monomial(1, mono)}: "
        f"{lhs.coefficient(mono)} != {rhs.coefficient(mono)}; difference {text}"
    )


def _poly_check(check_id: str, lhs: MultiPoly, rhs: MultiPoly) -> CheckResult:
    ok = lhs == rhs
    return CheckResult(check_id, ok, "" if ok else _diff(lhs, rhs))


def _strips(l_max: int, n_max: int, l_cap: int, n_min: int = 1):
    for length in range(n_min, n_max + 1):
        for width in range(1, min(l_max, l_cap) + 1):
            yield square_strip(width, length)


def dimension_checks(l_max: int) -> list[CheckResult]:
    out = []
    for width in range(1, min(l_max, 6) + 1):
        ok = all(
            count_states(width, l) == len(enumerate_states(width, l))
            for l in range(width + 2)
        )
        out.append(CheckResult(f"state-count[width={width}]", ok,
                               "" if ok else "ballot formula disagrees with enumeration"))
        total = sum(count_states(width, l) ** 2 for l in range(width + 1))
        ok = total == catalan(2 * width)
        out.append(CheckResult(f"two-slice-count[width={width}]", ok,
                               "" if ok else f"sum of squares {total} != catalan {catalan(2 * width)}"))
        if width <= 3:
            ok = len(enumerate_two_slice(width)) == catalan(2 * width)
            out.append(CheckResult(f"two-slice-enumeration[width={width}]", ok))
    return out


def block_structure_checks(l_max: int) -> list[CheckResult]:
    out = []
    for width in range(1, min(l_max, 3) + 1):
        report = verify_block_structure(square_strip(width, 1))
        detail = "; ".join(report.failures[:3])
        out.append(CheckResult(f"block-structure[width={width}]", report.passed, detail))
    return out


def cyclic_checks(l_max: int, n_max: int) -> list[CheckResult]:
    out = []
    for strip in _strips(l_max, n_max, l_cap=3):
        name = str(strip)
        spectrum = bruteforce.fk_spectrum(strip)
        out.append(
            _poly_check(
                f"z-decomposition[{name}]",
                characters.z_from_characters(strip).value,
                spectrum.total(),
            )
        )
        for j in range(strip.width + 1):
            out.append(
                _poly_check(
                    f"sector-decomposition[{name},j={j}]",
                    characters.z_sector_from_characters(strip, j).value,
                    spectrum[j],
                )
            )
        for l in range(strip.width + 1):
            out.append(
                _poly_check(
                    f"character-inversion[{name},l={l}]",
                    characters.character_from_sectors(strip, l, spectrum),
                    character_K(strip, l),
                )
            )
        alternating = MultiPoly.zero()
        for l in range(strip.width + 1):
            alternating = alternating + (-1) ** l * character_K(strip, l)
        out.append(_poly_check(f"alternating-sector0[{name}]", alternating, spectrum[0]))
        for l in range(strip.width + 2):
            out.append(
                _poly_check(
                    f"cumulative-difference[{name},l={l}]",
                    characters.character_F(strip, l, spectrum)
                    - characters.character_F(strip, l + 1, spectrum),
                    character_K(strip, l),
                )
            )
    # closed forms on width 1 and the top sector
    from .polynomial import Q, v

    for length in range(1, n_max + 1):
        strip = square_strip(1, length)
        out.append(
            _poly_check(
                f"closed-form-K0[{strip}]",
                character_K(strip, 0),
                (Q + v) ** length,
            )
        )
        out.append(
            _poly_check(
                f"closed-form-K1[{strip}]", character_K(strip, 1), v ** length
            )
        )
    for strip in _strips(l_max, n_max, l_cap=3):
        out.append(
            _poly_check(
                f"closed-form-top[{strip}]",
                character_K(strip, strip.width),
                v ** (strip.width * strip.length),
            )
        )
    return out


_C_SIGNS = {
    2: [1, 1, -1, -1],
    3: [1, 2, 1, -1, -2, -1],
}


def amplitude_checks(l_limit: int = 8) -> list[CheckResult]:
    out = []
    for q, pattern in _C_SIGNS.items():
        values = [characters.amplitude_c(l).evaluate({"Q": q}) for l in range(l_limit + 1)]
        expect = [pattern[l % len(pattern)] for l in range(l_limit + 1)]
        ok = values == expect
        out.append(
            CheckResult(
                f"amplitude-pattern[Q={q}]",
                ok,
                "" if ok else f"got {values}, expected {expect}",
            )
        )
    # b-amplitude symmetry at Q = 2 (p = 4), Q0 symbolic:
    # b(l) = -b(p-1+np-l) = b(np+l) wherever indices stay in range
    p = 4
    ok = True
    detail = ""
    for l in range(l_limit + 1):
        b_l = characters.amplitude_b(l).subs_poly("Q", 2)
        for n in range(0, l_limit):
            mirror = p - 1 + n * p - l
            if 0 <= mirror <= l_limit:
                b_m = characters.amplitude_b(mirror).subs_poly("Q", 2)
                if b_l != -1 * b_m:
                    ok = False
                    detail = f"b({l}) != -b({mirror}) at Q=2"
            shifted = n * p + l
            if n > 0 and shifted <= l_limit:
                b_s = characters.amplitude_b(shifted).subs_poly("Q", 2)
                if b_l != b_s:
                    ok = False
                    detail = f"b({l}) != b({shifted}) at Q=2"
    out.append(CheckResult("amplitude-b-symmetry[Q=2]", ok, detail))
    return out


def minimal_checks(l_max: int, n_max: int) -> list[CheckResult]:
    out = amplitude_checks()
    for strip in _strips(l_max, n_max, l_cap=3, n_min=2):
        if strip.width < 2:
            continue
        name = str(strip)
        z = bruteforce.fk_z(strip)
        z1 = bruteforce.fk_spectrum(strip)[0]
        for p in (4, 6):
            q = characters.BerahaParam.from_p(p).q_value
            out.append(
                _poly_check(
                    f"minimal-z[{name},p={p}]",
                    characters.z_minimal(strip, p).value,
                    z.subs_poly("Q", q),
                )
            )
            if p % 2 == 0:
                out.append(
                    _poly_check(
                        f"minimal-sector0[{name},p={p}]",
                        characters.z1_minimal_alternating(strip, p),
                        z1.subs_poly("Q", q),
                    )
                )
    return out


def dual_checks(l_max: int, n_max: int) -> list[CheckResult]:
    out = []
    for strip in _strips(l_max, n_max, l_cap=2, n_min=2):
        name = str(strip)
        ok = bruteforce.duality_witness_check(strip)
        out.append(CheckResult(f"duality-witness[{name}]", ok,
                               "" if ok else "a configuration's dual weight disagrees"))
        decomposition = characters.dual_boundary_decomposition(strip).value
        out.append(
            _poly_check(
                f"dual-decomposition[{name}]",
                decomposition,
                bruteforce.dual_boundary_z(strip),
            )
        )
        out.append(
            _poly_check(
                f"dual-limit-Q0=Q[{name}]",
                decomposition.subs_poly("Q0", MultiPoly.variable("Q")),
                bruteforce.fk_z(strip),
            )
        )
        out.append(
            _poly_check(
                f"dual-limit-Q0=0[{name}]",
                decomposition.subs_poly("Q0", 0),
                bruteforce.fk_spectrum(strip)[0],
            )
        )
    # fixed-boundary strips of width 3 (inner strip width 2)
    if l_max >= 3:
        for length in range(2, min(n_max, 3) + 1):
            value = characters.z_fixed_boundary(3, length).value
            for q in (2, 3):
                for vv in (Fraction(1), Fraction(2), Fraction(1, 2)):
                    got = value.evaluate({"Q": q, "v": vv})
                    want = bruteforce.fixed_boundary_spin_z(3, length, q, vv)
                    out.append(
                        CheckResult(
                            f"fixed-boundary[3x{length},Q={q},v={vv}]",
                            got == want,
                            "" if got == want else f"{got} != {want}",
                        )
                    )
        for p in (4, 6):
            terms = characters.z_fixed_boundary_minimal(3, 2, p).terms
            alive = tuple(l for l, coeff, _ in terms if coeff != 0)
            expect = (0,) if p == 4 else (0, 2)
            ok = alive == expect
            out.append(
                CheckResult(
                    f"fixed-boundary-terms[p={p}]",
                    ok,
                    "" if ok else f"live minimal characters {alive}, expected {expect}",
                )
            )
    return out


def run_suite(name: str, l_max: int = 3, n_max: int = 3) -> list[CheckResult]:
    """The checks of suite ``name``."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    if l_max < 1 or n_max < 1:
        raise ValueError("Lmax and Nmax must be >= 1")
    if n_max > bruteforce.MAX_EDGES:
        # the width-1 strip of n_max columns has n_max edges
        raise ValueError(f"Nmax must be <= {bruteforce.MAX_EDGES}, the oracle's edge cap")
    out: list[CheckResult] = []
    if name in ("all",):
        out.extend(dimension_checks(l_max))
        out.extend(block_structure_checks(l_max))
    if name in ("all", "cyclic"):
        out.extend(cyclic_checks(l_max, n_max))
    if name in ("all", "minimal"):
        out.extend(minimal_checks(l_max, n_max))
    if name in ("all", "dual"):
        out.extend(dual_checks(l_max, n_max))
    return out
