"""Run the usage examples embedded in the library docstrings, and the
demos, which assert their own identities."""

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pottstrip
from pottstrip import (
    bruteforce,
    characters,
    connectivity,
    lattice,
    polynomial,
    transfer,
)

MODULES = [bruteforce, characters, connectivity, lattice, polynomial, transfer]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0[1-5]_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    package_root = str(Path(pottstrip.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_demo_is_run():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]
