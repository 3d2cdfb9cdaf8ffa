"""The pottstrip benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each job of the workload (see ``workloads.py``) runs as a fresh
``python -m pottstrip`` process, one at a time, in an order drawn from the
seed.  Every job's stdout is checked against its reference digest; a job
that exits non-zero or prints other bytes counts as failed but keeps its
place in the timing.

With ``--trace 0`` the job list is repeated while another round fits in
``--seconds`` (at least once) and the end-to-end metrics are medians over
rounds:

    setup_s      wall time of a fresh interpreter that imports pottstrip
                 (median of several, after one warm-up import)
    wall_s       wall time of one round of the job list
    cpu_s        user+sys CPU of the job processes and their children
    peak_rss_mb  largest max-RSS of any job process, taken per child

With ``--trace 1`` one untraced round is followed by one round in which
each job runs under ``traced_job.py``, and the metrics are per layer.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it hold the
machine record, the per-job figures and a readable summary.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from traced_job import TRACE_PREFIX
from workloads import WORKLOADS, Job, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

#: fresh imports timed per run for setup_s.
SETUP_SAMPLES = 15
#: every run ends within this many seconds, whatever --seconds says.
RUN_BUDGET_S = 170.0

LAYERS = (
    "connectivity",
    "transfer.compile",
    "transfer.propagate",
    "transfer.blockcheck",
    "characters",
    "suites",
    "bruteforce",
    "cli",
)


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


class Outcome:
    """One finished child process: its output and what it cost."""

    def __init__(self, argv, env, timeout: float) -> None:
        self.timed_out = False
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            env=env,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        errors: list[bytes] = []
        reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
        killer = threading.Timer(max(timeout, 0.0), self._kill, (proc.pid,))
        try:
            reader.start()
            killer.start()
            self.stdout = proc.stdout.read()
            reader.join()
        finally:
            killer.cancel()
            if reader.is_alive() or self.timed_out:
                _kill_group(proc.pid)
            # wait4, not wait: the rusage is this child's own (with the
            # children it reaped), not the running total of all children.
            _, status, usage = os.wait4(proc.pid, 0)
            # the job's own workers, should any outlive it
            _kill_group(proc.pid)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            proc.stderr.close()
        self.wall_s = time.perf_counter() - start
        self.returncode = proc.returncode
        self.stderr = errors[0] if errors else b""
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024.0

    def _kill(self, pid: int) -> None:
        self.timed_out = True
        _kill_group(pid)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def reference_bytes(job: Job) -> bytes | None:
    path = REFERENCE_DIR / f"{job.name}.out.gz"
    return gzip.decompress(path.read_bytes()) if path.is_file() else None


def check_output(job: Job, stdout: bytes) -> str | None:
    """None when ``stdout`` matches the job's digest, else what differs."""
    digest = hashlib.sha256(stdout).hexdigest()
    if digest == job.sha256:
        return None
    reference = reference_bytes(job)
    if reference is None:
        return f"stdout sha256 {digest} != {job.sha256} (no reference bytes)"
    offset = next(
        (k for k, (a, b) in enumerate(zip(stdout, reference)) if a != b),
        min(len(stdout), len(reference)),
    )
    return (
        f"stdout sha256 {digest} != {job.sha256}; first differing byte at "
        f"offset {offset} ({len(stdout)} bytes, reference {len(reference)})"
    )


def run_job(job: Job, env, traced: bool, deadline: float) -> dict:
    """Run one job; the record says how long it took and whether it passed."""
    script = [str(HERE / "traced_job.py")] if traced else ["-m", "pottstrip"]
    outcome = Outcome([sys.executable, *script, *job.argv], env, deadline - time.perf_counter())
    error = None
    if outcome.timed_out:
        error = "killed at the end of the run budget"
    elif outcome.returncode != 0:
        error = f"exit code {outcome.returncode}"
        tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-3:]
        if tail:
            error += ": " + " | ".join(tail)
    else:
        error = check_output(job, outcome.stdout)
    record = {
        "job": job.name,
        "traced": traced,
        "wall_s": outcome.wall_s,
        "cpu_s": outcome.cpu_s,
        "maxrss_mb": outcome.maxrss_mb,
        "stdout_bytes": len(outcome.stdout),
        "ok": error is None,
    }
    if error is not None:
        record["error"] = error
        print(f"FAILED {job.name} ({' '.join(job.argv)}): {error}", file=sys.stderr)
    if traced:
        lines = outcome.stderr.decode(errors="replace").splitlines()
        trace = [l for l in lines if l.startswith(TRACE_PREFIX)]
        record["trace"] = json.loads(trace[-1][len(TRACE_PREFIX):]) if trace else None
    return record


def run_round(jobs, env, traced: bool, deadline: float) -> list[dict]:
    records = []
    for job in jobs:
        if time.perf_counter() >= deadline:
            records.append({"job": job.name, "traced": traced, "ok": False,
                            "error": "run budget exhausted before the job started"})
            continue
        records.append(run_job(job, env, traced, deadline))
    return records


def measure_setup(env, samples: int) -> list[float]:
    """Wall times of fresh interpreters importing pottstrip.  One more
    import runs first, uncounted: it checks that the program is there and
    writes its bytecode caches."""
    times = []
    for k in range(samples + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import pottstrip"],
            env=env,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=60,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(
                "cannot import pottstrip: " + proc.stderr.decode(errors="replace").strip()
            )
        if k:
            times.append(elapsed)
    return times


def job_order(workload: Workload, seed: int) -> list[Job]:
    """The seed's order of the workload's jobs; the program sees only their
    arguments."""
    jobs = list(workload.jobs)
    random.Random(seed).shuffle(jobs)
    return jobs


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _steal_s() -> float | None:
    """CPU time the hypervisor took from this machine so far, if known."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def machine_record() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "steal_s_start": _steal_s(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end_metrics(setup: list[float], rounds: list[list[dict]]) -> dict:
    timed = [[r for r in records if "wall_s" in r] for records in rounds]
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(statistics.median(sum(r["wall_s"] for r in rs) for rs in timed), "s"),
        "cpu_s": _metric(statistics.median(sum(r["cpu_s"] for r in rs) for rs in timed), "s"),
        "peak_rss_mb": _metric(
            statistics.median(max((r["maxrss_mb"] for r in rs), default=0.0) for rs in timed),
            "MB",
        ),
    }


def layer_metrics(plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics summed over the traced jobs, and each layer's
    self time per job for the coverage report."""
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    counters: dict[str, float] = {}
    wall = stdout_bytes = 0.0
    for record in traced:
        trace = record.get("trace")
        if trace is None:
            continue
        wall += record["wall_s"]
        stdout_bytes += record["stdout_bytes"]
        for layer, seconds in trace["self_s"].items():
            self_s[layer] += seconds
        for layer, n in trace["calls"].items():
            calls[layer] += n
        for name, n in trace["counters"].items():
            if name.endswith("coeff_bits"):
                counters[name] = max(counters.get(name, 0), n)
            else:
                counters[name] = counters.get(name, 0) + n
    c = counters.get
    unattributed = wall - sum(self_s.values())
    metrics = {
        "connectivity.self_s": _metric(self_s["connectivity"], "s"),
        "connectivity.calls": _metric(calls["connectivity"], "count"),
        "connectivity.states": _metric(c("connectivity.states", 0), "count"),
        "transfer.compile.self_s": _metric(self_s["transfer.compile"], "s"),
        "transfer.compile.calls": _metric(calls["transfer.compile"], "count"),
        "transfer.compile.cache_hit_ratio": _metric(
            _ratio(c("transfer.compile.cache_hits", 0), c("transfer.compile.cache_lookups", 0)),
            "ratio",
        ),
        "transfer.compile.nonzeros": _metric(c("transfer.compile.nonzeros", 0), "count"),
        "transfer.propagate.self_s": _metric(self_s["transfer.propagate"], "s"),
        "transfer.propagate.calls": _metric(calls["transfer.propagate"], "count"),
        "transfer.propagate.useful_ratio": _metric(
            _ratio(c("transfer.propagate.distinct", 0), calls["transfer.propagate"]), "ratio"
        ),
        "transfer.propagate.terms": _metric(c("transfer.propagate.terms", 0), "count"),
        "transfer.propagate.coeff_bits": _metric(c("transfer.propagate.coeff_bits", 0), "bits"),
        "transfer.blockcheck.self_s": _metric(self_s["transfer.blockcheck"], "s"),
        "transfer.blockcheck.two_slice_states": _metric(
            c("transfer.blockcheck.two_slice_states", 0), "count"
        ),
        "characters.self_s": _metric(self_s["characters"], "s"),
        "characters.calls": _metric(calls["characters"], "count"),
        "suites.self_s": _metric(self_s["suites"], "s"),
        "suites.calls": _metric(calls["suites"], "count"),
        "bruteforce.self_s": _metric(self_s["bruteforce"], "s"),
        "bruteforce.calls": _metric(calls["bruteforce"], "count"),
        "bruteforce.subsets": _metric(c("bruteforce.subsets", 0), "count"),
        "bruteforce.cache_hit_ratio": _metric(
            _ratio(c("bruteforce.histogram_hits", 0), c("bruteforce.histogram_calls", 0)),
            "ratio",
        ),
        "cli.self_s": _metric(self_s["cli"], "s"),
        "cli.stdout_bytes": _metric(stdout_bytes, "bytes"),
        "unattributed.self_s": _metric(unattributed, "s"),
        "trace.overhead_ratio": _metric(
            _ratio(wall, sum(r.get("wall_s", 0.0) for r in plain)), "ratio"
        ),
    }
    coverage = {layer: self_s[layer] for layer in LAYERS}
    coverage["unattributed"] = unattributed
    return metrics, {"wall_s": wall, "self_s": coverage}


def print_summary(name: str, metrics: dict, attempted: int, failed: int) -> None:
    print(f"# workload {name}")
    for key, m in metrics.items():
        print(f"#   {key:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"#   {'fail_ratio':<36} {_ratio(failed, attempted):>14.6g} ratio"
          f"  ({failed} of {attempted} jobs)")


def print_coverage(name: str, coverage: dict) -> None:
    wall = coverage["wall_s"]
    print(f"# layer coverage, {name}: share of traced job wall time {wall:.3f} s")
    for layer, seconds in coverage["self_s"].items():
        print(f"#   {layer:<24} {seconds:>10.3f} s {_ratio(seconds, wall):>8.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    if not (SRC / "pottstrip" / "__init__.py").is_file():
        print(f"error: no pottstrip sources under {SRC}", file=sys.stderr)
        return 2
    env = program_env()
    machine = machine_record()
    try:
        setup = measure_setup(env, 0 if args.trace else SETUP_SAMPLES)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    jobs = job_order(workload, args.seed)

    rounds: list[list[dict]] = []
    traced: list[dict] = []
    if args.trace:
        rounds.append(run_round(jobs, env, False, deadline))
        traced = run_round(jobs, env, True, deadline)
    else:
        measure_until = started + args.seconds
        while True:
            round_start = time.perf_counter()
            rounds.append(run_round(jobs, env, False, deadline))
            now = time.perf_counter()
            if now + (now - round_start) > min(measure_until, deadline):
                break

    records = [r for rs in rounds for r in rs] + traced
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    machine["loadavg_end"] = list(os.getloadavg())
    machine["steal_s_end"] = _steal_s()

    if args.trace:
        metrics, coverage = layer_metrics(rounds[0], traced)
    else:
        metrics = end_to_end_metrics(setup, rounds)
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "job_order": [job.name for job in jobs],
        "rounds": len(rounds),
        "machine": machine,
        "setup_samples_s": setup,
        "jobs": records,
    }))
    print_summary(workload.name, metrics, attempted, failed)
    if args.trace:
        print_coverage(workload.name, coverage)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
