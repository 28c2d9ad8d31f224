#!/usr/bin/env python
"""Threads gate: the ``c`` backend's thread team gives one thread's bits.

Runs the team's promise matrix (``tests/test_thread_team.py``: 1–8
threads over every 2D ordering, wrap variant and step shape, 3D Morton
and row-major, errors and thread lifecycle) and the parent digests of
``tests/test_cache_blocking.py`` (``c`` at 1, 2, 4 and 8 threads) twice:

* unpinned, as the host schedules it;
* under ``taskset -c 0``: on one CPU the teams still run their 2–8
  threads, which must give the same bits and must not hang (each run
  has a time limit).

Prints ``gate-status: threads-gate ran``, or
``skipped(no taskset)`` when the pinned run cannot be made (the
unpinned run still has to pass).  Wired into ``make threads-gate``
(and ``make check``).
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: seconds either run may take; the matrix takes under a minute here
LIMIT_S = 900

PYTEST = [
    sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
    "tests/test_thread_team.py", "tests/test_cache_blocking.py",
    "-k", "thread_team or parent_digest",
]


def run(prefix, what) -> bool:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    print(f"threads-gate: {what}: {' '.join(prefix + PYTEST[1:])}", flush=True)
    try:
        proc = subprocess.run(prefix + PYTEST, cwd=ROOT, env=env,
                              timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"threads-gate: {what}: no result after {LIMIT_S} s (hang?)")
        return False
    if proc.returncode != 0:
        print(f"threads-gate: {what}: FAILED (exit {proc.returncode})")
    return proc.returncode == 0


def main() -> int:
    if not run([], "unpinned"):
        return 1
    taskset = shutil.which("taskset")
    if taskset is None:
        print("gate-status: threads-gate skipped(no taskset)")
        return 0
    if not run([taskset, "-c", "0"], "one CPU"):
        return 1
    print("gate-status: threads-gate ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
