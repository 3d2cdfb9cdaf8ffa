"""Command-line interface: formats, exit codes, determinism."""

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pottstrip
from pottstrip import bruteforce, transfer
from pottstrip.lattice import MAX_WIDTH
from pottstrip.cli import main
from pottstrip.polynomial import Q, MultiPoly, v


#: The environment of a ``python -m pottstrip`` child: it imports the
#: package these tests import, whether or not PYTHONPATH names it.
_PACKAGE_ROOT = str(Path(pottstrip.__file__).resolve().parent.parent)
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")])),
}


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


@pytest.mark.parametrize("lattice", ["square:30x1", "square:2x100000"])
def test_characters_over_budget_exit_quickly(capsys, monkeypatch, lattice):
    """Catalan-many states on 30x1, and gigabit packed entries on 2x100000,
    are refused from the predicted cost, before any state is built."""
    def no_states(*args):
        raise AssertionError("a state was enumerated")

    monkeypatch.setattr(transfer, "enumerate_states", no_states)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "characters", "--lattice", lattice, "--l", "all")
    assert code == 2 and out == ""
    assert "caps are" in err
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize(
    "argv",
    [
        ("square:7x4", "z"),
        ("square:7x4", "z", "--p", "3"),
        ("square:7x4", "z2j", "--j", "1"),
        ("square:7x4", "dual"),
        ("square:8x4", "zff"),
        ("square:8x4", "zff", "--p", "4"),
    ],
)
def test_decompose_over_budget_exits_quickly(capsys, monkeypatch, argv):
    """On 7x4 K(0) fits the caps and K(1), K(2) do not; every sector a
    target uses (those of the inner 7x4 strip for zff) is checked before
    any is computed, so no state is built."""
    def no_states(*args):
        raise AssertionError("a state was enumerated")

    monkeypatch.setattr(transfer, "enumerate_states", no_states)
    lattice, target, *extra = argv
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "decompose", "--lattice", lattice, "--target", target, *extra
    )
    assert code == 2 and out == ""
    assert "caps are" in err
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize(
    "command", [("characters",), ("decompose", "--target", "z"), ("oracle",), ("blockcheck",)]
)
def test_a_width_no_command_serves_is_refused_before_the_strip_is_built(capsys, command):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *command, "--lattice", "square:1000000x1")
    assert code == 2 and out == ""
    assert f"above {MAX_WIDTH}" in err
    assert time.perf_counter() - start < 2


def test_an_empty_sector_of_a_long_strip_is_zero(capsys):
    code, out, err = run_cli(
        capsys, "characters", "--lattice", "square:2x3000", "--l", "5"
    )
    assert code == 0 and err == ""
    assert out == "# lattice: square:2x3000\nK_1,11 = 0\n"


def test_the_top_sector_of_a_wide_column_is_one_state(capsys):
    """K(30) of 30x1 has one state among Catalan(30) ~ 4e15 non-crossing
    partitions; the state walk skips those with fewer blocks than marks."""
    code, out, err = run_cli(
        capsys, "characters", "--lattice", "square:30x1", "--l", "30"
    )
    assert code == 0 and err == ""
    assert out == "# lattice: square:30x1\nK_1,61 = v^30\n"


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


#: sha256 of ``decompose`` stdout per (lattice, target, format, flags).  The
#: zff digests were recorded when the fixed-boundary value still went
#: through rational functions; the square:3x3 ones before every target
#: became one call of the shared character sum.
DECOMPOSE_DIGESTS = {
    ("square:3x2", "zff", "json", ()): "e3b22a1a0031f863dca57cfdf55db4418291e6b7202b6385b5df5846a1bec4c2",
    ("square:3x2", "zff", "json", ("--p", "4")): "30ccdb2eb65259039fb7bbca1a078071fd74b89f20a75a20f86e8b78ba57ba40",
    ("square:3x2", "zff", "json", ("--p", "6")): "66fb0197047c75183f56c95595242a624d3dccd26dd61c3704d0eddee6b86ffe",
    ("square:3x2", "zff", "text", ()): "9524cf91be4c5bd47caca4f82d4f6691c1cf352e193613c72cd624a66c87dd83",
    ("square:3x2", "zff", "text", ("--p", "4")): "e299505356fd3aa2ef48dfd06b9f16424e7597ec45419d3d82fe9790d4f45567",
    ("square:3x2", "zff", "text", ("--p", "6")): "908ffeb13c3041d4873367ad6a654903557d789c54631d6a5a541d0d84094204",
    ("square:3x3", "z", "json", ()): "3fd85c4b42f2fbe59c11074012709eaa57322d00dd73f763d7653e0a78a68712",
    ("square:3x3", "z", "text", ()): "dce53415daa20b5e5bfbe5fecc0c1c4c89a4d44fa12d246ec15f8fd03803dff6",
    ("square:3x3", "z", "json", ("--p", "3")): "73a28e62f2c9015df5fc7890e0d180b7f701f90782d54e7645cf8442c69aeb6c",
    ("square:3x3", "z", "text", ("--p", "3")): "8547d908cc2b82d342cf40a48fb04a8550882d2fe979f84b4e37ba140fd30d5d",
    ("square:3x3", "z", "json", ("--p", "4")): "185f4425e64520ab3b8e540a30713bd6a7bc18ce42965110a05e3df5be6d9332",
    ("square:3x3", "z", "text", ("--p", "4")): "871b1e10777933a2b2db7ef017197822e8384baef401b7cd3cf73d82bbd3212f",
    ("square:3x3", "z", "json", ("--p", "6")): "e343f48a3b03b4034bc5c94917c09ec1785230347697c6fca981ce6c362cb25a",
    ("square:3x3", "z", "text", ("--p", "6")): "e44b341b67762eff9876280d15d1da4090db536843e5dcbfd4ad009cea0b4445",
    ("square:3x3", "z2j", "json", ("--j", "1")): "3097b26401a960d7110e11580f4bd5abe8a01a4add58ddfd4a745bd9e400cb26",
    ("square:3x3", "z2j", "text", ("--j", "1")): "b5746936c51160def63aaf6521e5c7aac9df23cf4bd48419c22c7831550d00c6",
    ("square:3x3", "dual", "json", ()): "af68cd76709f93de2c3a7c85d703dd2961ade8d2d5e734e8d90ba8aa8dfd15c0",
    ("square:3x3", "dual", "text", ()): "d3310df4755418265099bcb3190f6c5e7285af3d50986fc05ab56882df712a57",
    ("square:3x3", "dual", "csv", ()): "f7cfcbf535adeab252150d024b746ca1a172d432120bf2b99ee930a405e4d9cd",
}


# the ids are "<format>-extra<position>", as pytest named the zff cases
# while format and flags were the only parameters, so those ids still hold
@pytest.mark.parametrize(
    "lattice,target,fmt,extra",
    DECOMPOSE_DIGESTS,
    ids=[f"{key[2]}-extra{i}" for i, key in enumerate(DECOMPOSE_DIGESTS)],
)
def test_decompose_zff_bytes_are_unchanged(capsys, lattice, target, fmt, extra):
    """Every decompose target's stdout bytes, pinned by sha256."""
    code, out, _ = run_cli(
        capsys,
        "decompose", "--lattice", lattice, "--target", target,
        "--format", fmt, *extra,
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == DECOMPOSE_DIGESTS[lattice, target, fmt, extra]


#: sha256 of ``characters --l all --format json`` stdout, recorded before
#: the trace pushed one start per orbit of the width reflection.
CHARACTER_DIGESTS = {
    "square:4x8": "f1c090fd4c0ca07c4ab69733103b139b20d156d8478e773620e36e9aac16b65d",
    "square:5x4": "fa06d79e3964016822979e2ec42ac2f0920bf7110e27a19752389850a562baa5",
}


@pytest.mark.parametrize("lattice", CHARACTER_DIGESTS)
def test_characters_all_bytes_are_unchanged(capsys, lattice):
    code, out, _ = run_cli(
        capsys, "characters", "--lattice", lattice, "--l", "all", "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHARACTER_DIGESTS[lattice]


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


@pytest.mark.parametrize("suite", ["all", "cyclic", "dual", "minimal"])
def test_verify_refuses_a_huge_nmax_quickly(capsys, suite):
    """Strips longer than the oracle's edge cap are refused up front, not
    built and skipped one length at a time."""
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "verify", "--suite", suite, "--Lmax", "1", "--Nmax", "1000000000000"
    )
    assert code == 2 and out == ""
    assert "Nmax" in err
    assert time.perf_counter() - start < 10


def test_verify_rejects_unknown_suite(capsys):
    assert run_cli(capsys, "verify", "--suite", "bogus")[0] == 2


def test_blockcheck(capsys):
    code, out, _ = run_cli(capsys, "blockcheck", "--lattice", "square:2x1")
    assert code == 0
    assert out.splitlines()[-1] == "passed"


#: sha256 of ``blockcheck`` stdout per (lattice, format), recorded while the
#: block check still compared unpacked polynomials.
BLOCKCHECK_DIGESTS = {
    ("square:3x1", "json"): "f5fa36e2388b6385f5a71fc0b7e23465e28d4fb5eac923437dfd418bff2903e6",
    ("square:4x1", "json"): "8a34f0c1347e83b997a366200b1f66446c2f0f6986afdac338007d35a28f2ff0",
    ("square:3x2", "text"): "36b4a9dfc8f2b3a39200009fea7e8d15ff64899e4edff863f87edc58027ed5f0",
}


@pytest.mark.parametrize("lattice,fmt", BLOCKCHECK_DIGESTS)
def test_blockcheck_bytes_are_unchanged(capsys, lattice, fmt):
    code, out, _ = run_cli(capsys, "blockcheck", "--lattice", lattice, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BLOCKCHECK_DIGESTS[lattice, fmt]


def test_verify_honours_workers(capsys, monkeypatch):
    """--workers is accepted by verify and reaches no oracle enumeration:
    fk_histogram gets the strip alone, no process pool is started, and the
    bytes are those of one worker."""
    seen = set()
    histogram = bruteforce.fk_histogram

    def spy(*args):
        seen.add(len(args))
        return histogram(*args)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(bruteforce, "fk_histogram", spy)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    argv = ["verify", "--suite", "all", "--Lmax", "3", "--Nmax", "4", "--format", "json"]
    outputs = {}
    for workers in ("2", "1"):
        monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
        code, outputs[workers], _ = run_cli(capsys, *argv, "--workers", workers)
        assert code == 0
        assert seen == {1}
        seen.clear()
    assert outputs["2"] == outputs["1"]
    assert hashlib.sha256(outputs["1"].encode()).hexdigest() == (
        "a856873281246a3f755efc327a9aac795e995528e7e2259cc5538b321f1c6e7d"
    )


def test_output_is_deterministic_across_workers(capsys):
    argv = ["oracle", "--lattice", "square:2x2", "--count-ntc",
            "--format", "csv"]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv, "--workers", "2")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


def test_oracle_starts_no_process_for_any_workers(capsys, monkeypatch):
    """A million workers start no process: with the process pool made to
    fail, 12x1 (2**23 subsets) still gives the one-worker bytes, recorded
    while the walk of one column still ran column by column."""
    argv = ["oracle", "--lattice", "square:12x1", "--count-ntc", "--dual",
            "--format", "json"]
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    code, one, _ = run_cli(capsys, *argv, "--workers", "1")
    assert code == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    code, many, _ = run_cli(capsys, *argv, "--workers", "1000000")
    assert code == 0
    assert many == one
    assert hashlib.sha256(one.encode()).hexdigest() == (
        "c255873675e35f4ab57cea3d6f3a8342f5a1363e4035893ebb7c37733c615457"
    )


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pottstrip", "characters",
         "--lattice", "square:1x1", "--format", "json"],
        capture_output=True,
        env=CHILD_ENV,
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
        env=CHILD_ENV,
        text=True,
    )
    assert proc.returncode == 2


def test_closed_stdout_exits_141_without_a_traceback():
    # `pottstrip verify | head -1`: the reader is gone before the first
    # write, which must not read as an identity-check failure (exit 1)
    proc = subprocess.Popen(
        [sys.executable, "-m", "pottstrip", "verify", "--suite", "cyclic"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 141
    assert "Traceback" not in err and "Exception ignored" not in err
