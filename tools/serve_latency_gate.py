#!/usr/bin/env python
"""Latency gate: submit→result through ``repro serve`` must not cost a
poll period.

Starts ``python -m repro serve`` with the shipped defaults as a child,
sends it ten small jobs spaced so that each finds the server idle (its
wait just begun), and times each from ``submit_to_spool`` to
``wait_for_result`` returning.  A server or waiter that sits out its
``--poll`` timer instead of being woken (``service/spool.py``,
"Nobody waits on a timer") adds half a period per wait on average, so
the gate fails when the median exceeds **half the default** ``--poll``:
the job itself runs for a few hundredths of a second.

Skips — loudly, exit 0 — where the temporary directory's filesystem
has no FIFOs: there the poll timeout is the designed behaviour.
``make check-gates`` and ``make test-service`` run this.
"""

from __future__ import annotations

import os
import pathlib
import signal
import statistics
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cli import build_parser  # noqa: E402
from repro.service import PICJob, submit_to_spool, wait_for_result  # noqa: E402

JOBS = 10
#: between jobs: longer than a job, and not a multiple of the poll
SPACING_S = 0.13


def main() -> int:
    poll = build_parser().parse_args(["serve", "--spool", "x"]).poll
    limit = poll / 2
    job = PICJob(case="landau", grid=(16, 16), n_particles=1500, steps=10,
                 seed=3)
    with tempfile.TemporaryDirectory(prefix="repro-latency-gate-") as tmp:
        spool = pathlib.Path(tmp) / "spool"
        try:
            os.mkfifo(pathlib.Path(tmp) / "probe")
        except OSError as exc:
            print(f"gate-status: serve-latency skipped(no FIFOs in {tmp}: "
                  f"{exc.strerror})")
            return 0
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--spool", str(spool)],
            cwd=REPO, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            # warm-up: the child's imports and first job are not latency
            wait_for_result(spool, submit_to_spool(spool, job), timeout=60)
            latencies = []
            for _ in range(JOBS):
                time.sleep(SPACING_S)
                t0 = time.perf_counter()
                doc = wait_for_result(spool, submit_to_spool(spool, job),
                                      timeout=60)
                latencies.append(time.perf_counter() - t0)
                if doc["state"] != "succeeded":
                    print(f"serve-latency FAILED: job {doc['state']}: "
                          f"{doc.get('error')}", file=sys.stderr)
                    return 1
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    p50 = statistics.median(latencies)
    print(f"serve-latency: p50 {1e3 * p50:.1f} ms, max "
          f"{1e3 * max(latencies):.1f} ms over {JOBS} jobs "
          f"(limit {1e3 * limit:.0f} ms = half of --poll {poll})")
    if p50 >= limit:
        print("serve-latency FAILED: the median job waited out a poll "
              "timer", file=sys.stderr)
        return 1
    print("gate-status: serve-latency ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
