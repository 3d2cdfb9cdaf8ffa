"""Command-line front end: compute characters, decompose partition
functions, run oracles, and verify identity suites.

All numeric output is exact (integer/rational strings, never floats), and
for fixed flags the output is byte identical across runs and worker counts.

Exit codes: 0 success, 1 identity-check failure (the first failing
polynomial difference is printed), 2 usage error, 141 stdout closed early
(a broken pipe, as in ``pottstrip verify | head -1``; 128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import suites
from .bruteforce import dual_boundary_z, fk_spectrum, fk_z, spin_z
from .characters import (
    character_F,
    dual_boundary_decomposition,
    z_fixed_boundary,
    z_fixed_boundary_minimal,
    z_from_characters,
    z_minimal,
    z_sector_from_characters,
)
from .lattice import parse_lattice
from .polynomial import MultiPoly
from .transfer import character_K, check_character_budget, verify_block_structure

FORMATS = ("json", "csv", "text")


def _print_csv(named: list[tuple[str, MultiPoly]]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("name", "degQ", "degv", "degQ0", "coeff"))
    for name, poly in named:
        if poly.is_zero:
            writer.writerow((name, 0, 0, 0, 0))
        for mono, coeff in poly.terms():
            writer.writerow((name, mono[0], mono[1], mono[2], str(coeff)))
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
        named = []
        for name, value in values:
            if isinstance(value, str):
                value = MultiPoly.constant(Fraction(value))
            named.append((name, value))
        _print_csv(named)
    else:
        for key, entry in meta.items():
            print(f"# {key}: {entry}")
        for name, value in values:
            print(f"{name} = {value}")


# ----------------------------------------------------------------------
# subcommand handlers


def _cmd_characters(args) -> int:
    strip = parse_lattice(args.lattice)
    if args.l == "all":
        marks = list(range(strip.width + 1))
    else:
        marks = [int(args.l)]
        if marks[0] < 0:
            raise ValueError("--l must be nonnegative")
    for l in marks:
        check_character_budget(strip, l)
    values = [
        (f"K_1,{2 * l + 1}", character_K(strip, l)) for l in marks
    ]
    _emit_values(args.format, {"lattice": str(strip)}, values)
    return 0


def _decomposition_values(result) -> list[tuple[str, object]]:
    values: list[tuple[str, object]] = [("value", result.value)]
    for l, amplitude, character in result.terms:
        values.append((f"amplitude[l={l}]", amplitude))
        values.append((f"character[l={l}]", character))
    return values


def _cmd_decompose(args) -> int:
    strip = parse_lattice(args.lattice)
    meta: dict = {"lattice": str(strip), "target": args.target}
    if args.target == "z":
        if args.p is not None:
            meta["p"] = args.p
            result = z_minimal(strip, args.p)
        else:
            result = z_from_characters(strip)
        values = _decomposition_values(result)
    elif args.target == "z2j":
        if args.j is None:
            raise ValueError("--target z2j requires --j")
        meta["j"] = args.j
        values = _decomposition_values(z_sector_from_characters(strip, args.j))
    elif args.target == "bigf":
        if args.l is None:
            raise ValueError("--target bigf requires --l")
        meta["l"] = args.l
        values = [("value", character_F(strip, args.l))]
    elif args.target == "dual":
        values = _decomposition_values(dual_boundary_decomposition(strip))
    elif args.target == "zff":
        if args.p is not None:
            meta["p"] = args.p
            result = z_fixed_boundary_minimal(strip.width, strip.length, args.p)
        else:
            result = z_fixed_boundary(strip.width, strip.length)
        values = _decomposition_values(result)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown target {args.target!r}")
    _emit_values(args.format, meta, values)
    return 0


def _parse_spin(text: str) -> tuple[int, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--spin expects Q,v (for example 2,1 or 3,1/2)")
    try:
        q = int(parts[0])
        vv = Fraction(parts[1])
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad --spin value {text!r}: {exc}") from None
    return q, vv


def _cmd_oracle(args) -> int:
    strip = parse_lattice(args.lattice)
    values: list[tuple[str, object]] = [("z", fk_z(strip))]
    if args.count_ntc:
        spectrum = fk_spectrum(strip)
        for j, sector in spectrum.items():
            values.append((f"Z_{2 * j + 1}", sector))
    if args.dual:
        values.append(("dual", dual_boundary_z(strip)))
    if args.spin is not None:
        q, vv = _parse_spin(args.spin)
        values.append((f"spin[Q={q},v={vv}]", str(spin_z(strip, q, vv))))
    _emit_values(args.format, {"lattice": str(strip)}, values)
    return 0


def _cmd_verify(args) -> int:
    results = suites.run_suite(args.suite, args.Lmax, args.Nmax)
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
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(("check_id", "ok", "detail"))
        for r in results:
            writer.writerow((r.check_id, "ok" if r.ok else "FAIL", r.detail))
        sys.stdout.write(buffer.getvalue())
    else:
        for r in results:
            if r.ok:
                print(f"ok   {r.check_id}")
            else:
                print(f"FAIL {r.check_id}: {r.detail}")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_blockcheck(args) -> int:
    strip = parse_lattice(args.lattice)
    report = verify_block_structure(strip)
    if args.format == "json":
        payload = {
            "lattice": str(strip),
            "dimension": report.dimension,
            "triangular_ok": report.triangular_ok,
            "passed": report.passed,
            "sectors": [
                {
                    "bridges": s.bridges,
                    "group_count": s.group_count,
                    "expected_groups": s.expected_groups,
                    "group_sizes": list(s.group_sizes),
                    "expected_size": s.expected_size,
                    "cross_group_zero": s.cross_group_zero,
                    "matches_reference": s.matches_reference,
                }
                for s in report.sectors
            ],
            "failures": list(report.failures),
        }
        _print_json(payload)
    elif args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            (
                "bridges",
                "group_count",
                "expected_groups",
                "expected_size",
                "cross_group_zero",
                "matches_reference",
            )
        )
        for s in report.sectors:
            writer.writerow(
                (
                    s.bridges,
                    s.group_count,
                    s.expected_groups,
                    s.expected_size,
                    s.cross_group_zero,
                    s.matches_reference,
                )
            )
        sys.stdout.write(buffer.getvalue())
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
    sub = parser.add_subparsers(dest="command", required=True)

    p_char = sub.add_parser(
        "characters",
        parents=[common],
        help="character polynomials K_1,2l+1 on a cyclic strip",
    )
    p_char.add_argument("--lattice", required=True, help="for example square:2x3")
    p_char.add_argument(
        "--l", default="all", help="bridge count l, or 'all' (default)"
    )
    p_char.set_defaults(handler=_cmd_characters)

    p_dec = sub.add_parser(
        "decompose",
        parents=[common],
        help="amplitude-times-character decompositions",
    )
    p_dec.add_argument("--lattice", required=True)
    p_dec.add_argument(
        "--target",
        required=True,
        choices=("z", "z2j", "bigf", "dual", "zff"),
        help="which quantity to decompose",
    )
    p_dec.add_argument("--j", type=int, help="winding sector (z2j)")
    p_dec.add_argument("--l", type=int, help="character index (bigf)")
    p_dec.add_argument(
        "--p", type=int, help="Beraha parameter in {2,3,4,6} (z, zff)"
    )
    p_dec.set_defaults(handler=_cmd_decompose)

    p_oracle = sub.add_parser(
        "oracle",
        parents=[common],
        help="exhaustive-enumeration reference values",
    )
    p_oracle.add_argument("--lattice", required=True)
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
        "--suite", choices=suites.SUITES, default="all", help="which checks"
    )
    p_verify.add_argument("--Lmax", type=int, default=3)
    p_verify.add_argument("--Nmax", type=int, default=3)
    p_verify.set_defaults(handler=_cmd_verify)

    p_block = sub.add_parser(
        "blockcheck",
        parents=[common],
        help="verify the block structure of the full two-slice transfer",
    )
    p_block.add_argument("--lattice", required=True)
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
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
