"""Named identity suites: every decomposition checked against ground truth.

Each check compares two independently computed exact quantities, and one
function, :func:`_check`, decides whether it passes and what its
:class:`CheckResult` says: a failing polynomial identity carries the first
monomial where the two sides differ and their difference, any other
failing pair shows both sides.  Only the duality witness, a verdict, and
the block check, a report, build their own result.  The CLI's ``verify``
command drives these; the test suite asserts them at fixed sizes.

Suites, in the order ``all`` runs them:

* ``cyclic``  -- character decompositions of Z and its winding sectors,
                 sector inversions, cumulative characters, closed forms;
* ``minimal`` -- Beraha-point regroupings and amplitude sign patterns;
* ``dual``    -- the duality identity on every configuration class of the
                 paired walk and in aggregate, boundary-reweighted
                 decomposition, fixed-boundary strips;
* ``all``     -- state counting and block structure, then the above.

``_ORACLE_WIDTH`` names each suite but ``all`` and the widest strip its
checks hand the oracle; :func:`run_suite` reads it to refuse, before any
check runs, an ``Nmax`` whose widest strip is over the oracle's edge cap.
"""

from __future__ import annotations

from fractions import Fraction

from . import bruteforce, characters
from ._record import Record
from .connectivity import catalan, count_states, enumerate_states
from .lattice import square_strip
from .polynomial import MultiPoly, Q, v
from .transfer import character_K, verify_block_structure

#: Each suite but ``all``, in the order ``all`` runs them, and the widest
#: strip its checks hand the oracle; suite ``name`` runs ``<name>_checks``.
_ORACLE_WIDTH = {"cyclic": 3, "minimal": 3, "dual": 2}

SUITES = ("all", *sorted(_ORACLE_WIDTH))


class CheckResult(Record):
    __slots__ = ("check_id", "ok", "detail")

    def __init__(self, check_id: str, ok: bool, detail: str = ""):
        super().__init__(check_id, ok, detail)


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


def _check(check_id: str, lhs, rhs) -> CheckResult:
    """The check ``check_id``, passed when ``lhs == rhs``; a failure shows
    :func:`_diff` of two polynomials, or else both sides."""
    if lhs == rhs:
        return CheckResult(check_id, True)
    polys = isinstance(lhs, MultiPoly) and isinstance(rhs, MultiPoly)
    return CheckResult(check_id, False, _diff(lhs, rhs) if polys else f"{lhs} != {rhs}")


def _strips(suite: str, l_max: int, n_max: int, n_min: int = 1):
    for length in range(n_min, n_max + 1):
        for width in range(1, min(l_max, _ORACLE_WIDTH[suite]) + 1):
            yield square_strip(width, length)


def dimension_checks(l_max: int) -> list[CheckResult]:
    out = []
    for width in range(1, min(l_max, 6) + 1):
        out.append(
            _check(
                f"state-count[width={width}]",
                [count_states(width, l) for l in range(width + 2)],
                [len(enumerate_states(width, l)) for l in range(width + 2)],
            )
        )
        out.append(
            _check(
                f"two-slice-count[width={width}]",
                sum(count_states(width, l) ** 2 for l in range(width + 1)),
                catalan(2 * width),
            )
        )
        if width <= 3:
            out.append(
                _check(
                    f"two-slice-enumeration[width={width}]",
                    len(enumerate_states(2 * width, 0)),
                    catalan(2 * width),
                )
            )
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
    for strip in _strips("cyclic", l_max, n_max):
        name = str(strip)
        spectrum = bruteforce.fk_spectrum(strip)
        out.append(
            _check(
                f"z-decomposition[{name}]",
                characters.z_from_characters(strip).value,
                spectrum.total(),
            )
        )
        for j in range(strip.width + 1):
            out.append(
                _check(
                    f"sector-decomposition[{name},j={j}]",
                    characters.z_sector_from_characters(strip, j).value,
                    spectrum[j],
                )
            )
        for l in range(strip.width + 1):
            out.append(
                _check(
                    f"character-inversion[{name},l={l}]",
                    characters.character_from_sectors(strip, l, spectrum),
                    character_K(strip, l),
                )
            )
        alternating = MultiPoly.zero()
        for l in range(strip.width + 1):
            alternating = alternating + (-1) ** l * character_K(strip, l)
        out.append(_check(f"alternating-sector0[{name}]", alternating, spectrum[0]))
        big_f = [characters.character_F(strip, l, spectrum) for l in range(strip.width + 3)]
        for l in range(strip.width + 2):
            out.append(
                _check(
                    f"cumulative-difference[{name},l={l}]",
                    big_f[l] - big_f[l + 1],
                    character_K(strip, l),
                )
            )
    # closed forms on width 1 and the top sector
    for length in range(1, n_max + 1):
        strip = square_strip(1, length)
        out.append(_check(f"closed-form-K0[{strip}]", character_K(strip, 0), (Q + v) ** length))
        out.append(_check(f"closed-form-K1[{strip}]", character_K(strip, 1), v ** length))
    for strip in _strips("cyclic", l_max, n_max):
        out.append(
            _check(
                f"closed-form-top[{strip}]",
                character_K(strip, strip.width),
                v ** (strip.width * strip.length),
            )
        )
    return out


def amplitude_checks() -> list[CheckResult]:
    """c(l) at Q = 2 and 3 against its sign pattern, and b(l) at Q = 2
    (p = 4) against b(l) = b(l + 4n) = -b(3 + 4n - l), for l = 0..8."""
    c = {q: [characters.amplitude_c(l).evaluate({"Q": q}) for l in range(9)] for q in (2, 3)}
    b = [characters.amplitude_b(l).subs_poly("Q", 2) for l in range(9)]
    return [
        _check("amplitude-pattern[Q=2]", c[2], [(1, 1, -1, -1)[l % 4] for l in range(9)]),
        _check("amplitude-pattern[Q=3]", c[3], [(1, 2, 1, -1, -2, -1)[l % 6] for l in range(9)]),
        _check(
            "amplitude-b-symmetry[Q=2]", b, [(b[0], b[1], -b[1], -b[0])[l % 4] for l in range(9)]
        ),
    ]


def minimal_checks(l_max: int, n_max: int) -> list[CheckResult]:
    out = amplitude_checks()
    for strip in _strips("minimal", l_max, n_max, n_min=2):
        if strip.width < 2:
            continue
        name = str(strip)
        z = bruteforce.fk_z(strip)
        z1 = bruteforce.fk_spectrum(strip)[0]
        for p in (4, 6):
            q = characters.beraha_q(p)
            out.append(
                _check(
                    f"minimal-z[{name},p={p}]",
                    characters.z_minimal(strip, p).value,
                    z.subs_poly("Q", q),
                )
            )
            out.append(
                _check(
                    f"minimal-sector0[{name},p={p}]",
                    characters.z1_minimal_alternating(strip, p),
                    z1.subs_poly("Q", q),
                )
            )
    return out


def dual_checks(l_max: int, n_max: int) -> list[CheckResult]:
    out = []
    for strip in _strips("dual", l_max, n_max, n_min=2):
        name = str(strip)
        ok = bruteforce.duality_witness_check(strip)
        out.append(CheckResult(f"duality-witness[{name}]", ok,
                               "" if ok else "a configuration's dual weight disagrees"))
        decomposition = characters.dual_boundary_decomposition(strip).value
        out.append(
            _check(f"dual-decomposition[{name}]", decomposition, bruteforce.dual_boundary_z(strip))
        )
        out.append(
            _check(
                f"dual-limit-Q0=Q[{name}]",
                decomposition.subs_poly("Q0", MultiPoly.variable("Q")),
                bruteforce.fk_z(strip),
            )
        )
        out.append(
            _check(
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
                    out.append(
                        _check(
                            f"fixed-boundary[3x{length},Q={q},v={vv}]",
                            value.evaluate({"Q": q, "v": vv}),
                            bruteforce.fixed_boundary_spin_z(3, length, q, vv),
                        )
                    )
        for p, live in ((4, (0,)), (6, (0, 2))):
            terms = characters.z_fixed_boundary_minimal(3, 2, p).terms
            alive = tuple(l for l, coeff, _ in terms if coeff != 0)
            out.append(_check(f"fixed-boundary-terms[p={p}]", alive, live))
    return out


def run_suite(name: str, l_max: int = 3, n_max: int = 3) -> list[CheckResult]:
    """The checks of suite ``name``."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    if l_max < 1 or n_max < 1:
        raise ValueError("Lmax and Nmax must be >= 1")
    parts = [part for part in _ORACLE_WIDTH if name in ("all", part)]
    widest = square_strip(min(l_max, max(_ORACLE_WIDTH[part] for part in parts)), n_max)
    if widest.edge_count > bruteforce.MAX_EDGES:
        per_column = len(widest.column_program)
        raise ValueError(
            f"Nmax must be <= {bruteforce.MAX_EDGES // per_column} at Lmax {l_max}: suite "
            f"{name} checks {widest}, over the oracle's cap of {bruteforce.MAX_EDGES} edges"
        )
    out: list[CheckResult] = []
    if name == "all":
        out.extend(dimension_checks(l_max))
        out.extend(block_structure_checks(l_max))
    for part in parts:
        out.extend(globals()[f"{part}_checks"](l_max, n_max))
    return out
