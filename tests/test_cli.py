"""Command-line interface: formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from pottstrip.cli import main
from pottstrip.polynomial import Q, MultiPoly, v


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_characters_json_closed_forms(capsys):
    code, out, err = run_cli(
        capsys, "characters", "--lattice", "square:1x2", "--format", "json"
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["lattice"] == "square:1x2"
    assert MultiPoly.from_json_obj(payload["K_1,1"]) == (Q + v) ** 2
    assert MultiPoly.from_json_obj(payload["K_1,3"]) == v ** 2


def test_characters_single_l(capsys):
    code, out, _ = run_cli(
        capsys,
        "characters", "--lattice", "square:2x2", "--l", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"lattice", "K_1,3"}


def test_characters_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys, "characters", "--lattice", "square:1x1", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,degQ,degv,degQ0,coeff"
    # K_1,1 = Q + v on the single-site ring; the name is comma-quoted
    assert '"K_1,1",1,0,0,1' in lines
    assert '"K_1,1",0,1,0,1' in lines


def test_characters_text(capsys):
    code, out, _ = run_cli(capsys, "characters", "--lattice", "square:1x1")
    assert code == 0
    assert "K_1,1 = Q + v" in out
    assert "K_1,3 = v" in out


def test_invalid_width_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "characters", "--lattice", "square:0x2")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_malformed_lattice_and_flags(capsys):
    assert run_cli(capsys, "characters", "--lattice", "square:2")[0] == 2
    assert run_cli(capsys, "characters", "--lattice", "square:2x2",
                   "--l", "x")[0] == 2
    assert run_cli(capsys, "characters", "--lattice", "square:2x2",
                   "--l", "-1")[0] == 2
    assert run_cli(capsys, "characters")[0] == 2  # missing --lattice
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "characters", "--lattice", "square:2x2",
                   "--workers", "0")[0] == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_decompose_z_internally_consistent(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose", "--lattice", "square:2x2", "--target", "z",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    value = MultiPoly.from_json_obj(payload["value"])
    total = MultiPoly.zero()
    for l in range(3):
        amp = MultiPoly.from_json_obj(payload[f"amplitude[l={l}]"])
        char = MultiPoly.from_json_obj(payload[f"character[l={l}]"])
        total = total + amp * char
    assert total == value


def test_decompose_missing_flags(capsys):
    assert run_cli(capsys, "decompose", "--lattice", "square:2x2",
                   "--target", "z2j")[0] == 2
    assert run_cli(capsys, "decompose", "--lattice", "square:2x2",
                   "--target", "bigf")[0] == 2
    assert run_cli(capsys, "decompose", "--lattice", "square:2x2",
                   "--target", "zff")[0] == 2  # width below 3
    assert run_cli(capsys, "decompose", "--lattice", "square:2x2",
                   "--target", "z", "--p", "5")[0] == 2
    code, out, err = run_cli(capsys, "decompose", "--lattice", "square:3x2",
                             "--target", "zff", "--p", "2")
    assert code == 2 and out == "" and "Q/v vanish" in err


def test_decompose_zff_beraha(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose", "--lattice", "square:3x2", "--target", "zff",
        "--p", "4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    value = MultiPoly.from_json_obj(payload["value"])
    assert value.evaluate({"Q": 2, "v": 1, "Q0": 0}) == 1216


def test_oracle_sections(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle", "--lattice", "square:1x2", "--count-ntc", "--dual",
        "--spin", "2,1/2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    z = MultiPoly.from_json_obj(payload["z"])
    assert MultiPoly.from_json_obj(payload["Z_1"]) + MultiPoly.from_json_obj(
        payload["Z_3"]
    ) == z
    assert "dual" in payload
    from fractions import Fraction

    assert Fraction(payload["spin[Q=2,v=1/2]"]) == z.evaluate(
        {"Q": 2, "v": Fraction(1, 2), "Q0": 0}
    )


def test_oracle_bad_spin(capsys):
    assert run_cli(capsys, "oracle", "--lattice", "square:1x2",
                   "--spin", "2")[0] == 2
    assert run_cli(capsys, "oracle", "--lattice", "square:1x2",
                   "--spin", "a,b")[0] == 2


def test_verify_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "cyclic", "--Lmax", "2", "--Nmax", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("ok   ") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "dual", "--Lmax", "2", "--Nmax", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(check["ok"] for check in payload["checks"])


def test_verify_rejects_unknown_suite(capsys):
    assert run_cli(capsys, "verify", "--suite", "bogus")[0] == 2


def test_blockcheck(capsys):
    code, out, _ = run_cli(capsys, "blockcheck", "--lattice", "square:2x1")
    assert code == 0
    assert out.splitlines()[-1] == "passed"


def test_output_is_deterministic_across_workers(capsys):
    argv = ["oracle", "--lattice", "square:2x2", "--count-ntc",
            "--format", "csv"]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv, "--workers", "2")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pottstrip", "characters",
         "--lattice", "square:1x1", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert MultiPoly.from_json_obj(payload["K_1,1"]) == Q + v


def test_module_entry_point_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "pottstrip", "characters",
         "--lattice", "square:0x1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
