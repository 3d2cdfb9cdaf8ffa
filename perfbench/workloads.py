"""Workload definitions for the pottstrip benchmark.

Each workload is a fixed list of CLI jobs.  Every job runs as one fresh
``python -m pottstrip ...`` process, the way users run the program, and its
stdout must hash to the sha256 recorded here.  The bytes behind each digest
are kept in ``reference/<job name>.out.gz`` so that a mismatch can be
reported with its first differing byte offset; ``record.py`` rewrites them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: the 2-worker oracle job is capped at the machine's core count.
ORACLE_WORKERS = str(min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    sha256: str
    #: arguments whose output defines the reference, when they differ from
    #: ``argv`` (the oracle's reference is its one-worker output).
    reference_argv: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple[Job, ...]


def _oracle(name: str, lattice: str, sha256: str) -> Job:
    flags = ("oracle", "--lattice", lattice, "--count-ntc", "--dual", "--format", "json")
    return Job(
        name,
        flags + ("--workers", ORACLE_WORKERS),
        sha256,
        reference_argv=flags + ("--workers", "1"),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long-strip",
            "long strips where propagation (power/trace) is over 99% of the time, "
            "compile is about 0 and every K(l) is computed once",
            (
                Job(
                    "characters-3x10",
                    ("characters", "--lattice", "square:3x10", "--l", "all", "--format", "json"),
                    "1f8d584aef801db651daf3a625c540357fc8da2232b01830f6fea3302610a3c1",
                ),
                Job(
                    "characters-4x4",
                    ("characters", "--lattice", "square:4x4", "--l", "all", "--format", "json"),
                    "3773d551b60bd9540e37895ca5e4dbd7ea380698b8b29e386456eef94f97676a",
                ),
                Job(
                    "zff-5x3",
                    ("decompose", "--lattice", "square:5x3", "--target", "zff", "--format", "json"),
                    "b4d6ae2350db5fcc8c483aed0027094544851c0ebfdc254b2455a83ff3b4d8e9",
                ),
            ),
        ),
        Workload(
            "wide-strip",
            "length-1 strips where propagation is about 0 and the time goes to state "
            "construction, the bond-pushing compile and the two-slice block check",
            (
                Job(
                    "characters-6x1",
                    ("characters", "--lattice", "square:6x1", "--l", "all", "--format", "json"),
                    "8635dbab1c83e1be3fee15eda38d9335a54ad3da24c8366da543b0792ebd461e",
                ),
                Job(
                    "blockcheck-4x1",
                    ("blockcheck", "--lattice", "square:4x1", "--format", "json"),
                    "8a34f0c1347e83b997a366200b1f66446c2f0f6986afdac338007d35a28f2ff0",
                ),
            ),
        ),
        Workload(
            "certify",
            "the correctness path users run: identity suites that recompute each K(l) "
            "many times, and the 2^E oracle on two workers",
            (
                Job(
                    "verify-all-3x4",
                    ("verify", "--suite", "all", "--Lmax", "3", "--Nmax", "4", "--format", "json"),
                    "a856873281246a3f755efc327a9aac795e995528e7e2259cc5538b321f1c6e7d",
                ),
                _oracle("oracle-3x4", "square:3x4", "1b1dac4f9c2fc728b91b1954a1d81c88af80a5bb7efcb021c37b1c02e42cfc2d"),
            ),
        ),
        Workload(
            "smoke",
            "the smallest jobs, for the benchmark's own self-test",
            (
                Job(
                    "smoke-characters-2x2",
                    ("characters", "--lattice", "square:2x2", "--format", "json"),
                    "b71e317611fe39feb746f80d7f8825f537a794a382f7eb80016f4c41cfb589d2",
                ),
                Job(
                    "smoke-blockcheck-2x1",
                    ("blockcheck", "--lattice", "square:2x1", "--format", "json"),
                    "7508053b2818a46fd2db96443a2f001accd70c2573fbe69780b1d10cabf47aeb",
                ),
                _oracle("smoke-oracle-2x2", "square:2x2", "3a99b9fb5612c1bdc4dee24c0272649c07793ea26f463d9faf08bf2a2a67a9d4"),
            ),
        ),
    )
}
