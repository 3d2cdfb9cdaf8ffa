"""Smoke self-test of the benchmark at its smallest size.

    python3 -m pytest -q perfbench

It checks the result schema, the metric names in ``BENCHMARK.json`` and the
digest check.  It asserts no timing bound.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import time

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, root=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric(trace, section):
    proc = _bench("--workload", "smoke", "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS["smoke"].jobs)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))

    record = json.loads(lines[0])
    assert record["seed"] == 7
    assert set(record["machine"]) == {
        "python", "nproc", "cpu_model",
        "loadavg_start", "loadavg_end", "steal_s_start", "steal_s_end",
    }
    assert sorted(record["job_order"]) == sorted(j.name for j in WORKLOADS["smoke"].jobs)
    if trace:
        assert "# layer coverage, smoke" in proc.stdout


def test_seed_fixes_the_job_order():
    certify = WORKLOADS["certify"]
    assert run.job_order(certify, 5) == run.job_order(certify, 5)
    orders = {tuple(j.name for j in run.job_order(certify, seed)) for seed in range(8)}
    assert len(orders) == 2


def test_spec_workloads_are_defined():
    for w in SPEC["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]


def test_reference_bytes_match_digests():
    for workload in WORKLOADS.values():
        for job in workload.jobs:
            reference = run.reference_bytes(job)
            assert reference is not None, job.name
            assert hashlib.sha256(reference).hexdigest() == job.sha256, job.name


def test_digest_check_reports_first_differing_byte():
    job = WORKLOADS["smoke"].jobs[0]
    good = run.reference_bytes(job)
    assert run.check_output(job, good) is None
    bad = good[:10] + bytes([good[10] ^ 1]) + good[11:]
    assert "first differing byte at offset 10 " in run.check_output(job, bad)
    short = good[:-1]
    assert f"offset {len(short)} " in run.check_output(job, short)


def test_failed_job_is_counted_and_timed():
    job = dataclasses.replace(WORKLOADS["smoke"].jobs[0], sha256="0" * 64)
    record = run.run_job(job, run.program_env(), False, time.perf_counter() + 60)
    assert record["ok"] is False
    assert "first differing byte" in record["error"]
    assert record["wall_s"] > 0


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    proc = _bench("--workload", "long-strip", "--seed", "1", "--seconds", "1", root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
