#!/usr/bin/env python
"""Service-level chaos gate: SIGKILL ``repro serve`` mid-campaign,
restart it with ``--recover``, and assert nothing was lost.

The single-run chaos gate (``tools/chaos_check.py``) proves a
*supervised run* survives injected faults; this gate proves the layer
above — the serving process itself — survives the one fault no
in-process supervisor can catch: its own SIGKILL.

Procedure (all sizes and the kill point are seeded):

1. run the campaign to completion on a pristine spool with an
   in-process ``serve_spool`` — the **golden** summaries;
2. run the same campaign in a ``repro serve --drain`` *subprocess*
   against a fresh spool + data dir, and SIGKILL it once a seeded
   number of jobs have settled *and* the server's journal shows a job
   ``running`` that has not settled — so the kill always lands inside
   a job, never at a settle boundary or after the queue drained (a
   fixed sleep after the settle count raced small jobs' drain);
3. while the server is down, submit two more jobs — the dead server
   left its ``wake`` FIFO behind with nobody reading it, and a
   submitter must neither block on it nor lose the job;
4. restart ``repro serve --drain --recover`` on the same spool and
   data dir and let it drain;
5. assert every job settled — the interrupted ones and the two late
   ones — every summary matches the golden one **bitwise** (state,
   steps, energy drift and the full diagnostic series), and the spool
   + data dirs hold no ``*.tmp`` or orphaned ``*.lease`` litter.

Exit status 0 only when all assertions hold.  ``make chaos-service``
runs this; ``make check`` includes it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.service import PICJob, serve_spool, submit_to_spool  # noqa: E402
from repro.service.journal import JobJournal  # noqa: E402

#: what must match bitwise between a recovered and an uninterrupted
#: campaign (scheduling artifacts — segments, timings, supervisor
#: checkpoint counts — legitimately differ; physics must not)
_COMPARED_KEYS = ("state", "steps_done", "steps_total", "error",
                  "energy_drift", "series")

#: jobs submitted between the kill and the restart
LATE_JOBS = 2


def build_campaign(n_jobs: int, steps: int) -> list[tuple[str, PICJob]]:
    cases = ("landau", "two-stream")
    return [
        (f"chaos-{i:02d}",
         PICJob(case=cases[i % len(cases)], grid=(16, 16),
                n_particles=8000 + 500 * i, steps=steps,
                checkpoint_every=10, backend="numpy", seed=7 + i))
        for i in range(n_jobs)
    ]


def normalize(doc: dict) -> dict:
    return {k: doc.get(k) for k in _COMPARED_KEYS}


def read_results(results: pathlib.Path) -> dict[str, dict]:
    out = {}
    for path in results.glob("*.json"):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        out[path.stem] = doc
    return out


def golden_run(campaign, workdir: pathlib.Path) -> dict[str, dict]:
    spool = workdir / "golden-spool"
    for job_id, job in campaign:
        submit_to_spool(spool, job, job_id=job_id)
    settled = serve_spool(spool, max_workers=2, poll=0.02, drain=True)
    assert settled == len(campaign), f"golden run settled {settled}"
    return {k: normalize(v) for k, v in
            read_results(spool / "results").items()}


def running_jobs(data_dir: pathlib.Path) -> list[str]:
    """Jobs whose last journal record says a segment is running: the
    server is inside them, and they have not settled."""
    view = JobJournal.replay(data_dir / "journal.jsonl")
    return sorted(job_id for job_id, v in view.items() if v["state"] == "running")


def serve_subprocess(spool, data_dir, *, recover: bool) -> subprocess.Popen:
    cmd = [sys.executable, "-m", "repro", "serve", "--spool", str(spool),
           "--data-dir", str(data_dir), "--drain", "--max-workers", "2",
           "--poll", "0.05", "--lease-ttl", "2"]
    if recover:
        cmd.append("--recover")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["PYTHONHASHSEED"] = "0"
    return subprocess.Popen(cmd, cwd=REPO, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def scan_litter(*roots: pathlib.Path) -> list[str]:
    """``*.tmp`` files and orphaned ``*.lease`` sidecars (a lease whose
    claim document is gone) anywhere under the given roots."""
    litter = []
    for root in roots:
        if not root.is_dir():
            continue
        for p in root.rglob("*.tmp"):
            litter.append(str(p))
        for p in root.rglob("*.lease"):
            if not p.with_name(p.name[:-len(".lease")]).exists():
                litter.append(f"{p} (orphan lease)")
    return litter


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=4)
    ap.add_argument("--steps", type=int, default=60)
    ap.add_argument("--timeout", type=float, default=300.0,
                    help="overall wall-clock budget per serve phase")
    ap.add_argument("--keep", action="store_true",
                    help="keep the work directory for post-mortems")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    campaign = build_campaign(args.jobs + LATE_JOBS, args.steps)
    late = campaign[args.jobs:]  # submitted while the server is down
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro-chaos-service-"))
    failures: list[str] = []
    try:
        print(f"golden campaign: {len(campaign)} jobs x {args.steps} steps "
              f"(seed {args.seed})")
        golden = golden_run(campaign, workdir)

        spool = workdir / "spool"
        data = workdir / "data"
        results = spool / "results"
        for job_id, job in campaign[:args.jobs]:
            submit_to_spool(spool, job, job_id=job_id)

        kill_after = rng.randrange(0, max(1, args.jobs - 1))
        print(f"chaos serve: SIGKILL after {kill_after} settled "
              f"result(s), inside a running job")
        proc = serve_subprocess(spool, data, recover=False)
        deadline = time.monotonic() + args.timeout
        killed = []
        while time.monotonic() < deadline and proc.poll() is None:
            if len(read_results(results)) >= kill_after:
                killed = running_jobs(data)
                if killed:
                    proc.send_signal(signal.SIGKILL)
                    break
            time.sleep(0.02)
        proc.wait(timeout=args.timeout)
        if killed:
            print(f"killed serve (pid {proc.pid}) inside {', '.join(killed)} "
                  f"with {len(read_results(results))} result(s) settled")
        else:
            failures.append("server drained before the kill point — "
                            "enlarge --steps so the kill lands mid-campaign")

        if not (spool / "wake").exists():
            os.mkfifo(spool / "wake")  # killed before it got that far
        t0 = time.monotonic()
        for job_id, job in late:
            submit_to_spool(spool, job, job_id=job_id)
        blocked = time.monotonic() - t0
        print(f"submitted {len(late)} job(s) with the server down "
              f"in {blocked:.3f}s")
        if blocked > 1.0:
            failures.append(f"submitting to a dead server's spool took "
                            f"{blocked:.1f}s (blocked on the orphaned FIFO?)")

        print("restarting with --recover")
        proc = serve_subprocess(spool, data, recover=True)
        try:
            rc = proc.wait(timeout=args.timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            failures.append(f"recovered server failed to drain within "
                            f"{args.timeout}s")
            rc = -1
        if rc not in (0, -1):
            failures.append(f"recovered server exited {rc}")

        final = read_results(results)
        for job_id, _job in campaign:
            if job_id not in final:
                failures.append(f"{job_id}: no result after recovery")
                continue
            got = normalize(final[job_id])
            want = golden.get(job_id)
            if got != want:
                diffs = [k for k in _COMPARED_KEYS if got.get(k) != (want or {}).get(k)]
                failures.append(f"{job_id}: summary differs from golden "
                                f"in {diffs}")
        litter = scan_litter(spool, data)
        if litter:
            failures.append("leftover litter: " + ", ".join(litter))

        if failures:
            for f in failures:
                print(f"chaos-service FAILED: {f}", file=sys.stderr)
            if args.keep:
                print(f"work dir kept at {workdir}", file=sys.stderr)
            return 1
        print(f"chaos-service OK: {args.jobs} job(s) killed-and-recovered "
              f"and {len(late)} submitted to the dead server's spool, all "
              "bitwise-equal to golden, no spool litter")
        return 0
    finally:
        if not (args.keep and failures):
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
