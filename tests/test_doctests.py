"""Run the usage examples embedded in the library docstrings, the demos,
which assert their own identities, and the README's Python examples."""

import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pottstrip
from pottstrip import (
    _record,
    bruteforce,
    characters,
    connectivity,
    lattice,
    polynomial,
    transfer,
)

MODULES = [_record, bruteforce, characters, connectivity, lattice, polynomial, transfer]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("[0-9][0-9]_*.py"))


def _run_demo(demo: Path) -> subprocess.CompletedProcess:
    package_root = str(Path(pottstrip.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _run_demo(demo)
    assert proc.returncode == 0, proc.stderr


def test_every_demo_is_run():
    """Every numbered demo is collected, numbered from 01 without a gap."""
    assert DEMOS
    assert [p.name[:2] for p in DEMOS] == [f"{k:02d}" for k in range(1, len(DEMOS) + 1)]
    assert len(DEMOS) >= 5


def test_minimal_characters_demo_prints_integers():
    """Integral values print as ints, not as ``Fraction(1, 1)``."""
    proc = _run_demo(DEMOS[3])
    assert proc.returncode == 0, proc.stderr
    assert "c(l) at Q=2, l=0..8: [1, 1, -1, -1, 1, 1, -1, -1, 1]" in proc.stdout
    assert "Fraction(" not in proc.stdout


def test_duality_demo_prints_the_paired_walk():
    """Demo 03 reads the paired walk: it counts 2**6 configurations on 2x2,
    and the empty subset's dual has one winding cluster."""
    proc = _run_demo(DEMOS[2])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "strip: square:2x2 with 6 bonds",
        "configurations: 64",
        "empty subset: direct winding = 0 dual winding = 1",
        "the j <-> j+1 correspondence holds on every configuration",
        "every per-configuration weight identity holds",
        "aggregate duality identity holds",
    ]


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    """Every ```python block of the README runs, so an example that uses a
    removed public name fails here rather than for a reader."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
