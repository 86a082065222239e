"""Benchmark of chirped-bath: runs one workload and prints its metrics.

Run from the repository root:

    python3 bench/run.py --workload figures|snapshots|kernel \
        [--seed N] [--seconds S] [--trace 0|1]

The workload runs in a fresh Python process (``bench/worker.py``) with
``src/`` on its path and the gamma-inf thread pool capped by
``CHIRPED_BATH_THREADS``.  This launcher notes the time just before it
starts that process, so the worker can time its set-up from the process's
start.  The last line of standard output is the result as one JSON object;
the exit code is 0 when every check passed, 1 when one failed, 2 when the
program is not there and 3 when the worker ran past its time limit.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import workloads

# Same value on every machine with at least two CPUs, never above nproc.
THREADS = min(2, os.cpu_count() or 1)
WORKER_TIMEOUT_S = 175.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="run whole passes until this many seconds are measured")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    args = ap.parse_args()

    src = Path.cwd() / "src"
    if not (src / "chirped_bath" / "cli.py").is_file():
        print(f"error: {src / 'chirped_bath' / 'cli.py'} not found; "
              "run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    env["CHIRPED_BATH_THREADS"] = str(THREADS)
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--threads", str(THREADS), "--t-launch"]
    try:
        return subprocess.run(cmd + [repr(time.monotonic())], env=env,
                              timeout=WORKER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: the worker ran past {WORKER_TIMEOUT_S:g} s and was stopped",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
