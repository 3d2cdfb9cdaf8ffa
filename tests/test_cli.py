"""Command-line interface: formats, exit codes, determinism."""

import hashlib
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
    # a zero polynomial (no l = 5 state on width 2) is one all-zero row
    code, out, _ = run_cli(
        capsys,
        "characters", "--lattice", "square:2x2", "--l", "5", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [lines[0], '"K_1,11",0,0,0,0']


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


#: sha256 of ``decompose --lattice square:3x2 --target zff`` stdout, recorded
#: when the fixed-boundary value still went through rational functions.
ZFF_DIGESTS = {
    ("json", ()): "e3b22a1a0031f863dca57cfdf55db4418291e6b7202b6385b5df5846a1bec4c2",
    ("text", ()): "9524cf91be4c5bd47caca4f82d4f6691c1cf352e193613c72cd624a66c87dd83",
    ("json", ("--p", "4")): "30ccdb2eb65259039fb7bbca1a078071fd74b89f20a75a20f86e8b78ba57ba40",
    ("text", ("--p", "4")): "e299505356fd3aa2ef48dfd06b9f16424e7597ec45419d3d82fe9790d4f45567",
    ("json", ("--p", "6")): "66fb0197047c75183f56c95595242a624d3dccd26dd61c3704d0eddee6b86ffe",
    ("text", ("--p", "6")): "908ffeb13c3041d4873367ad6a654903557d789c54631d6a5a541d0d84094204",
}


@pytest.mark.parametrize("fmt,extra", sorted(ZFF_DIGESTS))
def test_decompose_zff_bytes_are_unchanged(capsys, fmt, extra):
    code, out, _ = run_cli(
        capsys,
        "decompose", "--lattice", "square:3x2", "--target", "zff",
        "--format", fmt, *extra,
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == ZFF_DIGESTS[fmt, extra]


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
