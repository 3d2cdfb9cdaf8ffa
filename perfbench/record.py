"""Record the reference stdout of every benchmark job.

Run from the repository root after a change that is meant to alter output:

    python3 perfbench/record.py [job name ...]

Writes ``perfbench/reference/<job>.out.gz`` and prints each job's sha256,
to be copied into ``workloads.py``.
"""

from __future__ import annotations

import gzip
import hashlib
import subprocess
import sys

from run import REFERENCE_DIR, program_env
from workloads import WORKLOADS


def main(names: list[str]) -> int:
    env = program_env()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        for job in workload.jobs:
            if names and job.name not in names:
                continue
            out = subprocess.run(
                [sys.executable, "-m", "pottstrip", *(job.reference_argv or job.argv)],
                env=env,
                stdout=subprocess.PIPE,
                check=True,
            ).stdout
            path = REFERENCE_DIR / f"{job.name}.out.gz"
            path.write_bytes(gzip.compress(out, mtime=0))
            print(f"{job.name}: {hashlib.sha256(out).hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
