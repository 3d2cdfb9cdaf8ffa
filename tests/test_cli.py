"""Command-line interface: formats, exit codes, determinism."""

import ast
import concurrent.futures
import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pottstrip
from pottstrip import bruteforce, suites, transfer
from pottstrip.connectivity import enumerate_two_slice, split_two_slice
from pottstrip.lattice import MAX_WIDTH, horizontal, square_strip, vertical
from pottstrip.cli import main
from pottstrip.polynomial import Q, MultiPoly, v
from pottstrip.suites import SUITES


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
    assert run_cli(capsys, "characters")[0] == 2  # missing --lattice
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "characters", "--lattice", "square:2x2",
                   "--workers", "0")[0] == 2


@pytest.mark.parametrize("bad", ["x", "-1", "", "1.5"])
def test_characters_rejects_an_l_that_is_not_a_count(capsys, bad):
    code, out, err = run_cli(capsys, "characters", "--lattice", "square:3x4", "--l", bad)
    assert code == 2 and out == ""
    assert err == f"error: --l takes a non-negative integer or 'all', not {bad!r}\n"


def test_characters_refuses_an_l_too_long_to_print(capsys):
    """An l with as many digits as the interpreter prints is refused with the
    --l message; one digit fewer runs, and its empty sector prints K = 0."""
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    for digits in (limit, 5000):
        bad = "9" * digits
        code, out, err = run_cli(capsys, "characters", "--lattice", "square:2x2", "--l", bad)
        assert code == 2 and out == ""
        assert err == f"error: --l takes a non-negative integer or 'all', not {bad!r}\n"
    l = "9" * (limit - 1)
    code, out, err = run_cli(capsys, "characters", "--lattice", "square:2x2", "--l", l)
    assert code == 0 and err == ""
    assert out == f"# lattice: square:2x2\nK_1,{2 * int(l) + 1} = 0\n"
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("lattice", ["square:30x1", "square:2x100000", "square:7x4"])
def test_characters_over_budget_exit_quickly(capsys, monkeypatch, lattice):
    """Catalan-many states on 30x1, gigabit packed entries on 2x100000, and
    K(1) on 7x4 (where K(0) fits the caps) are refused from the predicted
    cost, before any state is built."""
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


_ENGINE_CAPS = ("the caps are 268435456 bits per column and 4398046511104 bits pushed "
                "(use a smaller strip)")

#: One row per refusal of each route: a command line, whose refusal is
#: printed after "error: ", or a call, whose ValueError carries the text.
REFUSALS = [
    pytest.param(("characters", "--lattice", "square:2x100000", "--l", "0"),
                 "K(0) of square:2x100000 needs at least 8 * (E + 1)**2 bits per packed column "
                 "for its E = 3 x 100000 bonds; " + _ENGINE_CAPS, id="engine-floor"),
    pytest.param(("characters", "--lattice", "square:7x4", "--l", "1"),
                 "K(1) of square:7x4 needs 1001 states x 52 bonds of packed columns of "
                 "179955776 bits; " + _ENGINE_CAPS, id="engine-model"),
    pytest.param(("oracle", "--lattice", "square:5x5"),
                 "square:5x5 has E = 9 x 5 edges; exhaustive enumeration is capped at 24 "
                 "(use a smaller strip)", id="walk"),
    pytest.param(lambda: bruteforce.spin_z(square_strip(3, 4), 100, 1),
                 "the spin sweep of square:3x4 at q = 100 takes at least 100**4 * "
                 "E * (1 + E * 2 // 2**13) steps for its E = 5 x 4 bonds, over the spin budget "
                 "of 100000000", id="spin-bound"),
    pytest.param(lambda: bruteforce.spin_z(square_strip(6, 6), 10, 1),
                 "the spin sweep of square:6x6 at q = 10 takes 10**8 * E * (1 + E * 2 // 2**13) "
                 "steps for its E = 11 x 6 bonds, over the spin budget of 100000000",
                 id="spin-width"),
    pytest.param(("blockcheck", "--lattice", "square:6x1"),
                 "block-structure verification is capped at width 5", id="blockcheck"),
    pytest.param(("verify", "--Lmax", "3", "--Nmax", "5"),
                 "Nmax must be <= 4 at Lmax 3: suite all checks square:3x5, over the oracle's "
                 "cap of 24 edges", id="verify"),
    pytest.param(lambda: transfer.column_transfer(square_strip(9, 1), 2),
                 "K(2) of square:9x1 needs 13260 states x 17 bonds of packed columns of "
                 "137479680 bits; " + _ENGINE_CAPS, id="column-block-budget"),
    pytest.param(lambda: transfer.edge_operator(9, 2, vertical(0)),
                 "the column block of 9x1 strip of column program vertical(0) on 2 marks has "
                 "13260 x 13260 entries; the cap is 4194304 (use a smaller strip)",
                 id="edge-operator-entries"),
    pytest.param(lambda: transfer.column_transfer(square_strip(8, 1), 2),
                 "the column block of square:8x1 on 2 marks has 3640 x 3640 entries; the cap is "
                 "4194304 (use a smaller strip)", id="column-block-entries"),
]


@pytest.mark.parametrize("call, message", REFUSALS)
def test_every_refusal_text_is_pinned(capsys, monkeypatch, call, message):
    """Each route refuses with its text byte for byte, in under a second and
    before the engine enumerates a state: a command exits 2 with the text on
    stderr and nothing on stdout, a call raises it as a ValueError."""
    def enumerated(*args):
        raise AssertionError("a state was enumerated")

    monkeypatch.setattr(transfer, "enumerate_states", enumerated)
    start = time.perf_counter()
    if isinstance(call, tuple):
        assert run_cli(capsys, *call) == (2, "", f"error: {message}\n")
    else:
        with pytest.raises(ValueError) as refusal:
            call()
        assert str(refusal.value) == message
    assert time.perf_counter() - start < 1


def test_each_route_states_its_refusal_once():
    """``check_character_budget`` has one ``raise``, ``_spin_sum`` one raise
    of the spin budget, ``transfer`` keeps no shared cap text apart from
    it, and only ``lattice`` formats a bond count as "a x {strip.length}"."""
    def raises(function):
        tree = ast.parse(inspect.getsource(function))
        return [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Raise)]

    assert len(raises(transfer.check_character_budget)) == 1
    assert len([text for text in raises(bruteforce._spin_sum) if "spin budget" in text]) == 1
    assert not hasattr(transfer, "_CAPS")
    factors = []
    for path in sorted(Path(pottstrip.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.JoinedStr):
                for text, value in zip(node.values, node.values[1:]):
                    if (isinstance(text, ast.Constant) and text.value.endswith(" x ")
                            and getattr(value.value, "attr", None) == "length"):
                        factors.append(path.name)
    assert factors == ["lattice.py"]


def test_oracle_refuses_an_edge_count_too_long_to_print(capsys):
    """square:2897x(4299 nines) prints, but its 5793 x N edges have 4303
    digits, past the int-to-string limit: the refusal shows E as its two
    factors and names the oracle's edge cap."""
    length = "9" * 4299
    code, out, err = run_cli(capsys, "oracle", "--lattice", f"square:{MAX_WIDTH}x{length}")
    assert code == 2 and out == ""
    assert err == (f"error: square:{MAX_WIDTH}x{length} has E = 5793 x {length} edges; "
                   "exhaustive enumeration is capped at 24 (use a smaller strip)\n")


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


#: The flags of ``decompose`` that only some targets read, with a value.
_TARGETED_FLAGS = {"--p": ("4", ("z", "zff")), "--j": ("1", ("z2j",)), "--l": ("1", ("bigf",))}


@pytest.mark.parametrize(
    "target,flag",
    [
        (target, flag)
        for flag, (_, targets) in _TARGETED_FLAGS.items()
        for target in ("z", "z2j", "bigf", "dual", "zff")
        if target not in targets
    ],
)
def test_decompose_refuses_a_flag_its_target_ignores(capsys, target, flag):
    """A flag the target never reads is a usage error naming the flag, even
    when the target's own flags are given, and nothing is printed."""
    own = [f for f, (_, targets) in _TARGETED_FLAGS.items() if target in targets and f != "--p"]
    argv = ["decompose", "--lattice", "square:3x2", "--target", target]
    for f in (*own, flag):
        argv += [f, _TARGETED_FLAGS[f][0]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert flag in err


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
    # recorded while each branch of the decompose handler still checked and
    # printed its own flag
    ("square:3x3", "bigf", "json", ("--l", "0")): "ee8b03c72a7bb22ffa530483d710f81f022d1a8743ee969cb4621e19f8876d2a",
    ("square:3x3", "bigf", "text", ("--l", "0")): "b0a5c447451f13ac22dfd94bca388ff343c84934157dd279bd0f2cd6185bb6de",
    ("square:3x3", "bigf", "csv", ("--l", "0")): "e18db339a0c2f501fddf2e30bd89ff080ca05f31636584da6d6845df697dd50f",
    ("square:3x3", "bigf", "json", ("--l", "1")): "ec3f4744142a8b8fbd0ec1dfaff54256d9db5e0202a26277100f7844dc20da34",
    ("square:3x3", "bigf", "text", ("--l", "1")): "498bb7bafa8a64346e66e10855f465ae138f6348e900873537648fbbdb78d78a",
    ("square:3x3", "bigf", "csv", ("--l", "1")): "876e7ac86c2576aafd72a792bfc775e1d8de7e530d193a8577e9b5053f95592e",
    ("square:3x2", "z", "csv", ()): "d2b77d044613161e12dc9eec99c6475ef165f92e8ef5c8bc99f52229c5beb422",
    ("square:3x2", "z2j", "csv", ("--j", "1")): "1f3275d157ec5f3ae62d4bd77ea6f6ade1c074a199ac3a469a62b101a9344444",
    ("square:3x2", "zff", "csv", ()): "4c6b0fbfadff7253e8962e30968bc28cf020e345ecc68456e163d3461a957d68",
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


def test_oracle_reads_spin_before_the_walk(capsys, monkeypatch):
    def walked(*args):
        raise AssertionError("the 2^E walk ran")

    monkeypatch.setattr(bruteforce, "fk_histogram", walked)
    code, out, err = run_cli(capsys, "oracle", "--lattice", "square:2x2", "--spin", "2,x")
    assert code == 2 and out == ""
    assert err.startswith("error: bad --spin value '2,x'")


@pytest.mark.parametrize(
    "spin",
    [
        "2,1e30000000",
        "2,1e-30000000",
        "2,0e30000000",
        "2,1e" + "9" * 5000,
        "2," + "1" * 4301,
        "2,1/" + "3" * 4301,
        "2," + "1" * 4297 + ".5e4",
        "2" * 4301 + ",1",
    ],
    ids=["1e30000000", "1e-30000000", "0e30000000", "long-exponent", "long-v",
         "long-denominator", "shifted-decimal", "long-q"],
)
def test_oracle_refuses_a_spin_too_long_to_print_before_building_it(capsys, spin):
    """``1e30000000`` is ten characters, but a power of ten that took a
    minute to build before the spin sum failed to print.  The refusal names
    the flag, not an interpreter setting a user cannot reach."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle", "--lattice", "square:2x2", "--spin", spin)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: --spin Q and v may have at most {sys.get_int_max_str_digits()} digits each\n"


@pytest.mark.parametrize("spin", ["2,1e4299", "2,1e-4299", "2,0.5e4299", "2,-0.00_5"])
def test_oracle_reads_a_spin_v_of_as_many_digits_as_can_print(capsys, spin):
    from fractions import Fraction

    code, out, _ = run_cli(capsys, "oracle", "--lattice", "square:1x1", "--spin", spin)
    assert code == 0
    assert f"spin[Q=2,v={Fraction(spin[2:])}]" in out


def test_digit_limits_read_no_limit_before_python_3_10_7(capsys, monkeypatch):
    """``sys.get_int_max_str_digits`` exists only from Python 3.10.7 on.
    Without it the --l and --spin checks read no limit, and both commands
    print what they print with it."""
    commands = [
        ("characters", "--lattice", "square:2x2", "--l", "1"),
        ("oracle", "--lattice", "square:1x2", "--spin", "2,1"),
    ]
    expected = [run_cli(capsys, *argv) for argv in commands]
    assert all(code == 0 and out and err == "" for code, out, err in expected)
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert [run_cli(capsys, *argv) for argv in commands] == expected


def test_oracle_refuses_a_spin_sum_over_the_budget(capsys):
    """3x4 at Q = 100 takes 100**6 * 20 sweep steps: exit 2, an error that
    names the budget, and nothing on stdout."""
    code, out, err = run_cli(capsys, "oracle", "--lattice", "square:3x4", "--spin", "100,1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "budget" in err


def test_oracle_refuses_a_spin_sum_too_long_to_print(capsys):
    """v = 10**4000 prints, but the sum over a 2x2 strip holds (1 + v)**8."""
    code, out, err = run_cli(capsys, "oracle", "--lattice", "square:2x2", "--spin", "2,1e4000")
    assert code == 2 and out == ""
    assert "--spin" in err and "set_int_max_str_digits" not in err


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


#: Each suite, an Lmax, and the longest Nmax whose widest strip, of width
#: min(Lmax, 3) (2 for ``dual``), stays within the oracle's 24 edges.
_NMAX_AT_THE_CAP = [
    ("all", 3, 4),
    ("cyclic", 3, 4),
    ("minimal", 3, 4),
    ("dual", 3, 8),
    ("dual", 2, 8),
    ("all", 2, 8),
    ("cyclic", 1, 24),
]


@pytest.mark.parametrize("suite,lmax,nmax", _NMAX_AT_THE_CAP)
def test_verify_refuses_before_any_check_runs(capsys, monkeypatch, suite, lmax, nmax):
    """One column past the cap is refused before any check runs; at the cap
    every check is reached."""
    ran = []
    for name in ("dimension_checks", "block_structure_checks", "cyclic_checks",
                 "minimal_checks", "dual_checks"):
        monkeypatch.setattr(suites, name, lambda *args, name=name: ran.append(name) or [])
    argv = ["verify", "--suite", suite, "--Lmax", str(lmax)]
    code, out, err = run_cli(capsys, *argv, "--Nmax", str(nmax + 1))
    assert (code, out, ran) == (2, "", [])
    assert "Nmax" in err
    code, out, err = run_cli(capsys, *argv, "--Nmax", str(nmax))
    assert code == 0 and err == "" and ran


def test_verify_rejects_unknown_suite(capsys):
    """``run_suite`` is the one place that checks a suite name; its message
    names every valid suite."""
    code, out, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2 and out == ""
    assert "unknown suite 'bogus'" in err
    assert all(repr(name) in err for name in SUITES)


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
    ("square:3x1", "csv"): "a470858d2f2f8791de96f21b874196c80aa1e2b4dee38c1e6cd5f0e8285c3b15",
    ("square:2x1", "text"): "c277b52b63aa814de60a833a2d3ee11232387b5109b766ed00abf5164bd99573",
}


@pytest.mark.parametrize("lattice,fmt", BLOCKCHECK_DIGESTS)
def test_blockcheck_bytes_are_unchanged(capsys, lattice, fmt):
    code, out, _ = run_cli(capsys, "blockcheck", "--lattice", lattice, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BLOCKCHECK_DIGESTS[lattice, fmt]


def test_blockcheck_refuses_width_six(capsys):
    code, out, err = run_cli(capsys, "blockcheck", "--lattice", "square:6x1")
    assert code == 2 and out == ""
    assert "capped at width 5" in err


def test_blockcheck_failure_exits_one(capsys, monkeypatch):
    """A two-slice branch sent to another left half of the same bridge
    count fails the check: exit 1, ``FAIL`` lines, and ``failed`` last."""
    left = {key: split_two_slice(key, 2)[0] for key in enumerate_two_slice(2)}
    source, target = next(
        (a, b) for a in left for b in left
        if left[a][-1].bit_count() == left[b][-1].bit_count() and left[a] != left[b]
    )
    op = transfer._on_right_slice(horizontal(0), 2)
    compile_ = transfer._compile

    def rerouted(index, bond):
        # the first branch of bond ``op`` on ``source`` sent to ``target``
        table = compile_(index, bond)
        if bond != op or source not in index:
            return table
        k = index[source]
        return table[:k] + (((index[target], table[k][0][1]), *table[k][1:]),) + table[k + 1 :]

    transfer._bond_table.cache_clear()
    monkeypatch.setattr(transfer, "_compile", rerouted)
    try:
        code, out, _ = run_cli(capsys, "blockcheck", "--lattice", "square:2x1")
    finally:
        monkeypatch.undo()
        transfer._bond_table.cache_clear()
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "failed"
    assert any(line.startswith("FAIL leakage between sub-blocks") for line in lines)


#: sha256 of ``verify --suite cyclic --Lmax 2 --Nmax 2`` stdout per format.
VERIFY_DIGESTS = {
    "csv": "ec380ff505a93db9c7f46f766891e1be8ab908c93185046a19cabcbb4dbbf76e",
    "text": "effeffd19846ef7d460afe2a50fb58f1c07128fcd98d4c0afedcc1f271db8165",
}


@pytest.mark.parametrize("fmt", VERIFY_DIGESTS)
def test_verify_bytes_are_unchanged(capsys, fmt):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "cyclic", "--Lmax", "2", "--Nmax", "2", "--format", fmt
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[fmt]


#: sha256 of ``verify --suite S --Lmax 3 --Nmax N --format F`` stdout per
#: (S, N, F), recorded while each suite still built some of its results
#: by hand.
SUITE_DIGESTS = {
    ("cyclic", 3, "text"): "aa5a0a3b55b3af0d68f21b833953dc467320635c1a36fa910b5e0e553a07bead",
    ("cyclic", 3, "csv"): "27c9ad477748ce794415cead58f88f62fb9b6bd09198396a91dcf84df7525282",
    ("cyclic", 3, "json"): "bf7163ef21f116ede184a18b7c356762db65cc7b2c726f1379c9f40d555d7e76",
    ("minimal", 3, "text"): "639b238a79c43bcfc30268ac534373efb140b1f2f3887fc675459a673b61225b",
    ("minimal", 3, "csv"): "f90e5bfdc68c433f37e7cd579d080ad931c4a4b8f01dee8cddd9ad9b4915e6fb",
    ("minimal", 3, "json"): "142a5aea16c57f896bebea74293f9fb3bda45c6e588662fd175c726c89687252",
    ("dual", 3, "text"): "deaf89ac202d0b570e0f8252d793ef1b4abdd9c93425757c1ccbc5b3ea8f4ed6",
    ("dual", 3, "csv"): "3c0a483711a7b3c4e0f020c71e3f775026b63275417eadd3de53dcfd6de6573e",
    ("dual", 3, "json"): "4562ae1353075326aa651936e91d35e0f936d479708fa868dfeeba61bee7b837",
    ("all", 3, "text"): "a4070585632fc9cfc9d74b4ac2d55d38f635d20ca6d0cabb37bb4e84a153505e",
    ("all", 3, "csv"): "986406d6ed581c8a62d03ccc39109fafc892f7f1595533ce74c6e54a7c9fb27a",
    ("all", 3, "json"): "80a4e74a3188095696e30f3e2326f626f240a795c215b33c720318f1bb18dc94",
    ("all", 4, "json"): "a856873281246a3f755efc327a9aac795e995528e7e2259cc5538b321f1c6e7d",
}


@pytest.mark.parametrize("suite,n_max,fmt", SUITE_DIGESTS)
def test_every_suite_keeps_its_bytes(capsys, suite, n_max, fmt):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", suite, "--Lmax", "3", "--Nmax", str(n_max), "--format", fmt
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_DIGESTS[suite, n_max, fmt]


#: sha256 of ``oracle --spin ... --format csv`` stdout per (lattice, spin).
ORACLE_SPIN_DIGESTS = {
    ("square:2x2", "2,1/2"): "87f90846ef03a46d06b71964f3050e1064e99d57a0f61493d34dff04516f6a2e",
    ("square:1x1", "2,-1"): "13b6c959be5e74bf56918aaeb8cc799c34368451784d71f79bc8fc24231f0adf",
}


@pytest.mark.parametrize("lattice,spin", ORACLE_SPIN_DIGESTS)
def test_oracle_spin_csv_rows(capsys, lattice, spin):
    """The spin value is one row after the polynomial rows; a zero value
    is the row ``name,0,0,0,0``."""
    code, out, _ = run_cli(
        capsys, "oracle", "--lattice", lattice, "--spin", spin, "--format", "csv"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_SPIN_DIGESTS[lattice, spin]
    if spin == "2,-1":
        assert out.splitlines()[-1] == '"spin[Q=2,v=-1]",0,0,0,0'


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


# ----------------------------------------------------------------------
# import budget: a process loads only the layers its command runs

#: The standard-library modules a command should not load unasked:
#: ``dataclasses`` and ``inspect`` cost every process about 13 ms,
#: ``csv`` serves only ``--format csv``, and ``fractions`` only the
#: commands that print a rational value.
_WATCHED = ("csv", "dataclasses", "fractions", "inspect")

#: Runs ``python -m pottstrip`` with the arguments after ``--`` and writes
#: the package's loaded submodules, and the loaded modules of ``_WATCHED``,
#: as the last line of stderr.
_RUN_AND_LIST = f"""
import runpy, sys
try:
    runpy.run_module("pottstrip", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print(*sorted(n[len("pottstrip."):] for n in sys.modules if n.startswith("pottstrip.")),
      *(n for n in {_WATCHED!r} if n in sys.modules), file=sys.stderr)
sys.exit(code)
"""


def _loaded_layers(*argv: str) -> tuple[int, set[str]]:
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST, *argv],
        capture_output=True,
        env=CHILD_ENV,
        text=True,
        timeout=120,
    )
    return proc.returncode, set(proc.stderr.splitlines()[-1].split())


def test_import_pottstrip_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pottstrip; "
         "print(*(n for n in sys.modules if n.startswith('pottstrip.')))"],
        capture_output=True,
        env=CHILD_ENV,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.parametrize(
    "argv,unused",
    [
        (("oracle", "--lattice", "square:2x2"), {"transfer", "connectivity", "characters", "suites"}),
        (("characters", "--lattice", "square:2x2"), {"bruteforce", "characters", "suites"}),
        (("blockcheck", "--lattice", "square:2x1"), {"bruteforce", "characters", "suites"}),
        (("decompose", "--lattice", "square:3x2", "--target", "zff"), {"bruteforce", "suites"}),
    ],
    ids=["oracle", "characters", "blockcheck", "decompose-zff"],
)
def test_a_command_loads_only_its_layers(argv, unused):
    code, loaded = _loaded_layers(*argv)
    assert code == 0
    assert "cli" in loaded and not loaded & unused


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ("characters", "--lattice", "square:2x2"),
        ("blockcheck", "--lattice", "square:2x1"),
        ("decompose", "--lattice", "square:3x2", "--target", "zff"),
        ("oracle", "--lattice", "square:2x2", "--count-ntc", "--dual"),
        ("verify", "--Lmax", "2", "--Nmax", "2"),
    ],
    ids=["characters", "blockcheck", "decompose-zff", "oracle", "verify"],
)
def test_no_command_loads_dataclasses_or_inspect(argv, fmt):
    """Records are hand-written, so no command imports ``dataclasses`` (nor
    ``inspect``, which it pulls in); ``csv`` loads only for ``--format csv``."""
    code, loaded = _loaded_layers(*argv, "--format", fmt)
    assert code == 0
    assert not loaded & {"dataclasses", "inspect"}
    assert ("csv" in loaded) == (fmt == "csv")


@pytest.mark.parametrize(
    "argv,rational",
    [
        (("characters", "--lattice", "square:2x2"), False),
        (("blockcheck", "--lattice", "square:2x1"), False),
        (("decompose", "--lattice", "square:3x2", "--target", "zff"), False),
        (("oracle", "--lattice", "square:2x2", "--spin", "2,1/2"), True),
    ],
    ids=["characters", "blockcheck", "decompose-zff", "oracle-spin"],
)
def test_only_a_command_with_rational_values_loads_fractions(argv, rational):
    """Polynomial coefficients are ints, so ``fractions`` loads only where a
    rational value is read or summed: ``--spin`` and the spin sums."""
    code, loaded = _loaded_layers(*argv)
    assert code == 0
    assert ("fractions" in loaded) == rational


def test_blockcheck_lists_the_sector_fields_in_order(capsys):
    fields = [
        "bridges", "group_count", "expected_groups", "group_sizes",
        "expected_size", "cross_group_zero", "matches_reference",
    ]
    _, out, _ = run_cli(capsys, "blockcheck", "--lattice", "square:2x1", "--format", "json")
    sectors = json.loads(out)["sectors"]
    assert len(sectors) == 3 and all(list(s) == fields for s in sectors)
    _, out, _ = run_cli(capsys, "blockcheck", "--lattice", "square:2x1", "--format", "csv")
    assert out.splitlines()[0].split(",") == [f for f in fields if f != "group_sizes"]


def test_every_public_name_is_its_defining_modules_object():
    assert len(set(pottstrip.__all__)) == len(pottstrip.__all__)
    assert set(pottstrip.__all__) <= set(dir(pottstrip))
    for name in pottstrip.__all__:
        module = importlib.import_module(f"pottstrip.{pottstrip._MODULE_OF[name]}")
        obj = getattr(pottstrip, name)
        assert obj is getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            # defined there, not imported there from another module
            assert obj.__module__ == module.__name__


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pottstrip.no_such_name
    assert not hasattr(pottstrip, "no_such_name")
