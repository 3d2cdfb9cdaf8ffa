"""Command-line front end: compute characters, decompose partition
functions, run oracles, and verify identity suites.

All numeric output is exact (integer/rational strings, never floats), and
for fixed flags the output is byte identical across runs and worker counts.

Exit codes: 0 success, 1 identity-check failure (the first failing
polynomial difference is printed), 2 usage error, 141 stdout closed early
(a broken pipe, as in ``pottstrip verify | head -1``; 128 + SIGPIPE).

Each command imports the layers it runs when it runs, so a process loads
only what its command needs: ``oracle`` never loads the transfer engine,
and ``characters`` never loads the oracle.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from .lattice import parse_lattice

if TYPE_CHECKING:
    from fractions import Fraction

FORMATS = ("json", "csv", "text")

#: Each ``decompose`` target: the one flag it reads (None: none), whether
#: that flag is required, and its named values from the characters module,
#: the strip and the flag's value (None where the flag is not given).
_TARGETS = {
    "z": ("p", False, lambda c, s, p: _decomposition_values(
        c.z_from_characters(s) if p is None else c.z_minimal(s, p))),
    "z2j": ("j", True, lambda c, s, j: _decomposition_values(c.z_sector_from_characters(s, j))),
    "bigf": ("l", True, lambda c, s, l: [("value", c.character_F(s, l))]),
    "dual": (None, False, lambda c, s, _: _decomposition_values(c.dual_boundary_decomposition(s))),
    "zff": ("p", False, lambda c, s, p: _decomposition_values(
        c.z_fixed_boundary(s.width, s.length) if p is None
        else c.z_fixed_boundary_minimal(s.width, s.length, p))),
}


def _readers(flag: str) -> str:
    """The ``decompose`` targets that read ``flag``, as ``z or zff``."""
    return " or ".join(target for target, (read, _, _) in _TARGETS.items() if read == flag)


def _print_csv(header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows`` to stdout as CSV, in one write."""
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buffer.getvalue())


def _print_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _emit_values(
    fmt: str, meta: dict, values: list[tuple[str, object]]
) -> None:
    """Render named exact values in the requested format.

    ``values`` pairs display names with MultiPoly or plain string entries
    (strings are scalars, already exact).  In CSV a polynomial is one row
    per term, and a zero polynomial is the single row ``name,0,0,0,0``.
    """
    if fmt == "json":
        payload = dict(meta)
        for name, value in values:
            payload[name] = value if isinstance(value, str) else value.to_json_obj()
        _print_json(payload)
    elif fmt == "csv":
        rows = []
        for name, value in values:
            if isinstance(value, str):
                rows.append((name, 0, 0, 0, value))
            elif value.is_zero:
                rows.append((name, 0, 0, 0, 0))
            else:
                rows.extend((name, *mono, str(coeff)) for mono, coeff in value.terms())
        _print_csv(("name", "degQ", "degv", "degQ0", "coeff"), rows)
    else:
        for key, entry in meta.items():
            print(f"# {key}: {entry}")
        for name, value in values:
            print(f"{name} = {value}")


# ----------------------------------------------------------------------
# subcommand handlers


def _cmd_characters(args) -> int:
    from .transfer import characters_of

    strip = parse_lattice(args.lattice)
    if args.l == "all":
        marks = range(strip.width + 1)
    # an l, and so the 2l+1 its label prints, of fewer digits than can print
    elif args.l.isdecimal() and not 0 < _int_max_str_digits() <= len(args.l):
        marks = [int(args.l)]
    else:
        raise ValueError(f"--l takes a non-negative integer or 'all', not {args.l!r}")
    values = [(f"K_1,{2 * l + 1}", k) for l, k in characters_of(strip, marks).items()]
    _emit_values(args.format, {"lattice": str(strip)}, values)
    return 0


def _decomposition_values(result) -> list[tuple[str, object]]:
    values: list[tuple[str, object]] = [("value", result.value)]
    for l, amplitude, character in result.terms:
        values.append((f"amplitude[l={l}]", amplitude))
        values.append((f"character[l={l}]", character))
    return values


def _cmd_decompose(args) -> int:
    from . import characters

    flag, required, values_of = _TARGETS[args.target]
    for other in dict.fromkeys(read for read, _, _ in _TARGETS.values() if read):
        if other != flag and getattr(args, other) is not None:
            raise ValueError(f"--{other} applies to --target {_readers(other)}, not {args.target}")
    strip = parse_lattice(args.lattice)
    meta: dict = {"lattice": str(strip), "target": args.target}
    value = getattr(args, flag) if flag else None
    if value is not None:
        meta[flag] = value
    elif required:
        raise ValueError(f"--target {args.target} requires --{flag}")
    _emit_values(args.format, meta, values_of(characters, strip, value))
    return 0


def _int_max_str_digits() -> int:
    """The most digits an int may print in this interpreter, 0 for no limit;
    ``sys.get_int_max_str_digits`` exists only from Python 3.10.7 on, and
    before it there was no limit."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def _spin_digits(literal: str) -> int:
    """The most digits the numerator or denominator of ``Fraction(literal)``
    can have, read off the literal without building either: n digits, f of
    them after the point, times 10**e are an integer of at most n + e - f
    digits over a power of ten of 1 + f - e digits."""
    mantissa, _, exponent = literal.strip().lower().partition("e")
    if "/" in mantissa:
        return max(map(len, mantissa.split("/")))
    whole, _, fraction = mantissa.partition(".")
    try:
        shift = int(exponent or 0) - len(fraction)
    except ValueError:  # no exponent Fraction reads, or one too long to read
        return len(literal)
    return max(len((whole + fraction).lstrip("+-0_")) + max(shift, 0), 1 - shift)


def _parse_spin(text: str) -> tuple[int, Fraction]:
    """Q and v of ``--spin Q,v``.  Each may have as many digits as the
    interpreter prints, which is checked before v is built: ``1e30000000``
    is ten characters, but a number of 30000001 digits."""
    from fractions import Fraction

    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--spin expects Q,v (for example 2,1 or 3,1/2)")
    limit = _int_max_str_digits()
    if limit and max(len(parts[0]), _spin_digits(parts[1])) > limit:
        raise ValueError(f"--spin Q and v may have at most {limit} digits each")
    try:
        q = int(parts[0])
        vv = Fraction(parts[1])
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad --spin value {text!r}: {exc}") from None
    return q, vv


def _cmd_oracle(args) -> int:
    from .bruteforce import dual_boundary_z, fk_spectrum, fk_z, spin_z

    strip = parse_lattice(args.lattice)
    spin = None if args.spin is None else _parse_spin(args.spin)
    values: list[tuple[str, object]] = [("z", fk_z(strip))]
    if args.count_ntc:
        spectrum = fk_spectrum(strip)
        for j, sector in spectrum.items():
            values.append((f"Z_{2 * j + 1}", sector))
    if args.dual:
        values.append(("dual", dual_boundary_z(strip)))
    if spin is not None:
        q, vv = spin
        z = spin_z(strip, q, vv)
        try:
            text = str(z)
        except ValueError:  # more digits than the interpreter prints
            raise ValueError("the spin sum at this --spin v has too many digits to print") from None
        values.append((f"spin[Q={q},v={vv}]", text))
    _emit_values(args.format, {"lattice": str(strip)}, values)
    return 0


def _cmd_verify(args) -> int:
    from .suites import run_suite

    results = run_suite(args.suite, args.Lmax, args.Nmax)
    failed = [r for r in results if not r.ok]
    if args.format == "json":
        payload = {
            "suite": args.suite,
            "Lmax": args.Lmax,
            "Nmax": args.Nmax,
            "passed": not failed,
            "checks": [
                {"id": r.check_id, "ok": r.ok, "detail": r.detail}
                for r in results
            ],
        }
        _print_json(payload)
    elif args.format == "csv":
        _print_csv(
            ("check_id", "ok", "detail"),
            ((r.check_id, "ok" if r.ok else "FAIL", r.detail) for r in results),
        )
    else:
        for r in results:
            if r.ok:
                print(f"ok   {r.check_id}")
            else:
                print(f"FAIL {r.check_id}: {r.detail}")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_blockcheck(args) -> int:
    from .transfer import SectorReport, verify_block_structure

    strip = parse_lattice(args.lattice)
    report = verify_block_structure(strip)
    if args.format == "json":
        payload = {
            "lattice": str(strip),
            "dimension": report.dimension,
            "triangular_ok": report.triangular_ok,
            "passed": report.passed,
            "sectors": [{name: getattr(s, name) for name in s.__slots__} for s in report.sectors],
            "failures": report.failures,
        }
        _print_json(payload)
    elif args.format == "csv":
        columns = [name for name in SectorReport.__slots__ if name != "group_sizes"]
        _print_csv(columns, ([getattr(s, c) for c in columns] for s in report.sectors))
    else:
        print(f"lattice {strip}: two-slice dimension {report.dimension}")
        print(f"lower-triangular in bridge count: {report.triangular_ok}")
        for s in report.sectors:
            print(
                f"bridges={s.bridges}: {s.group_count} groups "
                f"(expected {s.expected_groups}) of size {s.expected_size}, "
                f"cross-group zero: {s.cross_group_zero}, "
                f"sub-blocks match reference: {s.matches_reference}"
            )
        for failure in report.failures:
            print(f"FAIL {failure}")
        print("passed" if report.passed else "failed")
    return 0 if report.passed else 1


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pottstrip",
        description=(
            "Exact cluster-model transfer matrices and character "
            "decompositions on cyclic strips."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=FORMATS, default="text", help="output format"
    )
    common.add_argument(
        "--workers",
        type=int,
        default=1,
        help="ignored, but must be at least 1: exhaustive enumeration runs "
        "in this process (perfbench's oracle jobs still pass this flag)",
    )
    lattice = argparse.ArgumentParser(add_help=False)
    lattice.add_argument("--lattice", required=True, help="for example square:2x3")
    sub = parser.add_subparsers(dest="command", required=True)

    p_char = sub.add_parser(
        "characters",
        parents=[common, lattice],
        help="character polynomials K_1,2l+1 on a cyclic strip",
    )
    p_char.add_argument(
        "--l", default="all", help="bridge count l, or 'all' (default)"
    )
    p_char.set_defaults(handler=_cmd_characters)

    p_dec = sub.add_parser(
        "decompose",
        parents=[common, lattice],
        help="amplitude-times-character decompositions",
    )
    p_dec.add_argument(
        "--target",
        required=True,
        choices=tuple(_TARGETS),
        help="which quantity to decompose",
    )
    p_dec.add_argument("--j", type=int, help=f"winding sector ({_readers('j')})")
    p_dec.add_argument("--l", type=int, help=f"character index ({_readers('l')})")
    p_dec.add_argument("--p", type=int, help=f"Beraha parameter in {{2,3,4,6}} ({_readers('p')})")
    p_dec.set_defaults(handler=_cmd_decompose)

    p_oracle = sub.add_parser(
        "oracle",
        parents=[common, lattice],
        help="exhaustive-enumeration reference values",
    )
    p_oracle.add_argument(
        "--count-ntc",
        action="store_true",
        help="also report the winding-sector split Z_2j+1",
    )
    p_oracle.add_argument(
        "--dual",
        action="store_true",
        help="also report the boundary-reweighted sum (Q0 marks winding)",
    )
    p_oracle.add_argument(
        "--spin",
        metavar="Q,v",
        help="also evaluate the spin-sum partition function at integer Q "
        "and rational v",
    )
    p_oracle.set_defaults(handler=_cmd_oracle)

    p_verify = sub.add_parser(
        "verify",
        parents=[common],
        help="run an identity suite against the oracles",
    )
    p_verify.add_argument(
        "--suite", default="all", help="which checks (default all)"
    )
    p_verify.add_argument("--Lmax", type=int, default=3)
    p_verify.add_argument("--Nmax", type=int, default=3)
    p_verify.set_defaults(handler=_cmd_verify)

    p_block = sub.add_parser(
        "blockcheck",
        parents=[common, lattice],
        help="verify the block structure of the full two-slice transfer",
    )
    p_block.set_defaults(handler=_cmd_blockcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at interpreter exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
