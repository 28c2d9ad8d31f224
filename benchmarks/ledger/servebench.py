"""The ``serve_jobs`` workload: ``python -m repro serve`` as a child
process, loaded through its spool directory by this one process with
one thread.

Phase ``stream`` is an open loop: jobs are due at a fixed spacing
whatever the server does, latency runs from each job's *due* time to
the moment its result document is visible, and how late the generator
itself ran is recorded.  The traced pass also watches ``claimed/`` so
latency splits into claim wait, queue wait, run and settle wait, adds
phase ``burst`` — a batch submitted at once and timed until the last
result — and then probes ``service``, ``resilience``, ``cli`` and the
job's own kernels in-process.

Host speed (``reference.py``): throughput, run times, set-up and the
probes are processor-bound and reported at nominal host speed, from
reference samples taken while the server is idle — before and after a
phase, never during one: a sample taken while a job runs often shares
its core (it reads up to 2.4x) and slows the job.  The latencies and
their parts are not corrected: the server claims and settles on its
0.2 s poll timer, so a job's latency is its claim wait plus whole poll
periods, whatever the host's speed — until its run time crosses a
period, which the job's size keeps a factor of two away.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import repro
from repro.resilience.supervisor import SupervisedRun
from repro.service import JobEngine, JobJournal, PICJob, submit_to_spool
from repro.service.spool import spool_dirs

from reference import factor
from simbench import (
    Bench,
    Outcome,
    Run2D,
    end_to_end,
    probes_2d,
    span_metrics,
    timed_window,
)
from stats import median, percentile
from workloads import ServeWorkload

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parent.parent)

#: how often the load generator looks at the spool directories; the
#: resolution of every latency it reports
WATCH_INTERVAL_S = 0.005

#: the open loop is valid only while the generator keeps its schedule:
#: a job submitted later than this after its due time (this process
#: lost its core for a moment) is left out of the latency samples ...
MAX_LATENESS_S = 0.050

#: ... and with more than this share of the jobs late the stream phase
#: is invalid, which counts as a failed operation
MAX_LATE_SHARE = 0.25

#: a job not settled this long after the last submit counts as failed
SETTLE_TIMEOUT_S = 60.0

#: steps of the job's simulation timed in-process for the two
#: simulation metrics (twenty sort periods, about a second)
IN_PROCESS_STEPS = 400


def child_env(workdir) -> dict:
    """Environment of every child: the engine importable, temporary
    files kept inside the work directory."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, TMPDIR=str(workdir),
                PYTHONPATH=SRC_DIR + (os.pathsep + path if path else ""))


class Server:
    """``python -m repro serve`` with the shipped defaults; stopped and
    reaped by :meth:`stop` (idempotent — call it from a ``finally``)."""

    def __init__(self, workdir, tag: str):
        workdir = pathlib.Path(workdir)
        self.spool = workdir / f"spool-{tag}"
        self.data = workdir / f"data-{tag}"
        spool_dirs(self.spool)
        self._log = open(workdir / f"serve-{tag}.log", "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--spool", str(self.spool), "--data-dir", str(self.data)],
            env=child_env(workdir), cwd=workdir,
            stdout=self._log, stderr=subprocess.STDOUT,
        )

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def make_job(wl: ServeWorkload, seed: int, i: int) -> PICJob:
    return PICJob(case="landau", grid=wl.grid, n_particles=wl.particles,
                  steps=wl.steps, seed=seed * 1000 + i % wl.distinct_seeds)


def drive(spool, jobs, dues, *, watch_claims: bool = False) -> dict:
    """Submit ``jobs[i]`` (``(id, PICJob)``) ``dues[i]`` seconds after
    the start and watch ``results/`` until every job has settled.

    Returns per-job offsets from the start: ``submitted`` (start, end),
    ``claimed`` (first seen in ``claimed/``; traced pass only) and
    ``settled`` (result document first seen)."""
    _, claimed_dir, results_dir = spool_dirs(spool)
    ids = {job_id for job_id, _ in jobs}
    submitted, claimed, settled = {}, {}, {}
    t0 = time.perf_counter()
    nxt = 0
    give_up = None
    while len(settled) < len(jobs):
        now = time.perf_counter() - t0
        while nxt < len(jobs) and dues[nxt] <= now:
            job_id, job = jobs[nxt]
            start = time.perf_counter() - t0
            submit_to_spool(spool, job, job_id=job_id)
            now = time.perf_counter() - t0
            submitted[job_id] = (start, now)
            nxt += 1
        if nxt == len(jobs):
            if give_up is None:
                give_up = now + SETTLE_TIMEOUT_S
            elif now > give_up:
                break
        for directory, seen in ((results_dir, settled),
                                (claimed_dir, claimed if watch_claims else None)):
            if seen is None:
                continue
            with os.scandir(directory) as it:
                for entry in it:
                    stem, ext = os.path.splitext(entry.name)
                    if ext == ".json" and stem in ids and stem not in seen:
                        seen[stem] = time.perf_counter() - t0
        wait = WATCH_INTERVAL_S
        if nxt < len(jobs):
            wait = min(wait, dues[nxt] - (time.perf_counter() - t0))
        if wait > 0:
            time.sleep(wait)
    return {"submitted": submitted, "claimed": claimed, "settled": settled,
            "wall_s": time.perf_counter() - t0}


def read_results(spool, ids) -> dict:
    _, _, results_dir = spool_dirs(spool)
    docs = {}
    for job_id in ids:
        path = results_dir / f"{job_id}.json"
        if path.exists():
            docs[job_id] = json.loads(path.read_text(encoding="utf-8"))
            docs[job_id]["_bytes"] = path.stat().st_size
    return docs


def reference_drifts(wl: ServeWorkload, seed: int) -> dict:
    """Energy drift of each distinct job run bare in this process: what
    the served result must equal."""
    drifts = {}
    for i in range(wl.distinct_seeds):
        job = make_job(wl, seed, i)
        sim = job.build_simulation()
        try:
            sim.run(job.steps)
            drifts[job.seed] = sim.history.energy_drift()
        finally:
            sim.close()
    return drifts


def check_results(out: Outcome, phase: str, jobs, docs, drifts) -> None:
    """One attempted operation per job: settled, ``succeeded``, and its
    energy drift equal to the in-process run of the same job."""
    bad = []
    for job_id, job in jobs:
        doc = docs.get(job_id)
        if doc is None:
            bad.append(f"{job_id}: not settled")
        elif doc.get("state") != "succeeded":
            bad.append(f"{job_id}: {doc.get('state')} {doc.get('error')}")
        elif doc.get("energy_drift") != drifts[job.seed]:
            bad.append(f"{job_id}: drift {doc.get('energy_drift')!r} != "
                       f"in-process {drifts[job.seed]!r}")
    out.tally(f"{phase}_results", len(jobs), len(bad),
              f"{len(jobs) - len(bad)}/{len(jobs)} jobs succeeded with the "
              f"in-process energy drift" + (f"; {bad[:3]}" if bad else ""))


def lateness(schedule, trace: dict) -> tuple[list, list]:
    """How long after its due time each job of ``schedule``
    (``[(job_id, due)]``) was submitted, and the part of the schedule
    that was on time: only those jobs give latency samples."""
    late = [trace["submitted"][job_id][0] - due for job_id, due in schedule]
    return late, [jd for jd, x in zip(schedule, late) if x < MAX_LATENESS_S]


def split_latency(schedule, trace: dict, docs: dict) -> tuple[dict, list]:
    """Split each streamed job's latency (due → result visible) into
    claim wait (due → seen in ``claimed/``), queue wait and run (the
    result document's ``engine`` block) and settle wait (the
    remainder), so that the four parts of a job sum to its latency.

    ``schedule`` is ``[(job_id, due)]``.  Returns the per-part sample
    lists and the spans: one per job, its parts as children."""
    parts = {"claim": [], "queue": [], "run": [], "settle": []}
    spans = []
    for job_id, due in schedule:
        doc, seen = docs.get(job_id), trace["settled"].get(job_id)
        if doc is None or seen is None or job_id not in trace["claimed"]:
            continue
        eng = doc.get("engine", {})
        claim = trace["claimed"][job_id] - due
        queue, run = eng.get("queue_wait_seconds", 0.0), eng.get("run_seconds", 0.0)
        settle = seen - due - claim - queue - run
        for key, secs in zip(parts, (claim, queue, run, settle)):
            parts[key].append(secs)
        spans.append({"id": job_id, "name": "job", "parent": None,
                      "start": due, "end": seen})
        sub = trace["submitted"][job_id]
        spans.append({"id": f"{job_id}/submit", "name": "submit",
                      "parent": job_id, "start": sub[0], "end": sub[1]})
        t = due
        for name, secs in (("claim_wait", claim), ("queue_wait", queue),
                           ("run", run), ("settle_wait", settle)):
            spans.append({"id": f"{job_id}/{name}", "name": name,
                          "parent": job_id, "start": t, "end": t + secs})
            t += secs
    return parts, spans


def run_serve(wl: ServeWorkload, seed: int, seconds: float, trace: bool,
              bench: Bench) -> Outcome:
    """The untraced pass starts ``setup_reps`` servers (a ``setup_s``
    sample each: ``Popen`` to the first warm-up job settled) and
    streams through the first; the traced pass starts one, streams, and
    then drains a burst."""
    out = Outcome()
    ref = bench.ref
    out.detail["backend"] = {"requested": PICJob().backend,
                             "resolved": PICJob().backend}
    n_stream = max(4, int(wl.stream_share * seconds / wl.spacing_s))
    n_burst = max(4, int(wl.burst_jobs_per_s * seconds)) if trace else 0
    stream_jobs = [(f"stream-{i:03d}", make_job(wl, seed, i)) for i in range(n_stream)]
    burst_jobs = [(f"burst-{i:03d}", make_job(wl, seed, i)) for i in range(n_burst)]
    dues = [i * wl.spacing_s for i in range(n_stream)]

    setups, docs = [], {}
    ref_idle = None

    def phase_factor() -> float:
        """Host-speed factor of the phase that just ended, from the
        sample taken before it and one taken now; the server is idle
        (or not yet started) at both."""
        nonlocal ref_idle
        before, ref_idle = ref_idle, ref.settled_sample()
        return factor(before, ref_idle)

    for rep in range(1 if trace else bench.setup_reps):
        ref_idle = ref.settled_sample()
        server = Server(bench.workdir, f"{rep}")
        try:
            warm = drive(server.spool, [("warm", make_job(wl, seed, 0))], [0.0])
            if not warm["settled"]:
                raise RuntimeError(f"server {rep} settled no warm-up job; see "
                                   f"{bench.workdir}/serve-{rep}.log")
            wall = time.perf_counter() - server.started
            setups.append(wall * phase_factor())
            if rep == 0:
                stream = drive(server.spool, stream_jobs, dues, watch_claims=trace)
                stream_factor = phase_factor()
                if trace:
                    burst = drive(server.spool, burst_jobs, [0.0] * n_burst)
                    burst_factor = phase_factor()
                docs = read_results(server.spool, [j for j, _ in stream_jobs + burst_jobs])
        finally:
            server.stop()

    drifts = reference_drifts(wl, seed)
    check_results(out, "stream", stream_jobs, docs, drifts)
    late, on_time = lateness(
        [(job_id, due) for (job_id, _), due in zip(stream_jobs, dues)], stream)
    n_late = n_stream - len(on_time)
    out.check("generator_lateness", n_late <= MAX_LATE_SHARE * n_stream,
              f"open-loop generator at most {1e3 * max(late):.1f} ms late; {n_late} of "
              f"{n_stream} jobs submitted {1e3 * MAX_LATENESS_S:.0f} ms or more after "
              f"their due time and left out of the latency samples (more than "
              f"{MAX_LATE_SHARE:.0%}: the stream phase is invalid)")
    latency = [stream["settled"][j] - due for j, due in on_time if j in stream["settled"]]
    out.detail.update(
        stream_jobs=n_stream, late_jobs=n_late, latency_s=latency, lateness_s=late,
        setup_samples=setups, particles=wl.particles, steps=wl.steps,
    )
    if not latency:
        return out

    if not trace:
        # the two simulation metrics: the job's own simulation stepped
        # in this process through the same window as the other four
        # workloads, where the reference samples run on the same core
        # as the steps (the server's processes share no core with this
        # one for long, and the two cores do not slow down together)
        job = make_job(wl, seed, 0)
        run = Run2D(job.build_simulation(), job.make_case(), job.seed)
        try:
            records = timed_window(run, ref, 0.0, trace=False,
                                   min_steps=IN_PROCESS_STEPS,
                                   steps_per_sample=run.sort_period)
        finally:
            run.close()
        out.metrics, out.info = end_to_end(records, run.n, run.sort_period)
        out.metrics.update({
            "job_latency_p50_s": median(latency),
            "job_latency_p90_s": percentile(latency, 90),
            "setup_s": min(setups),
        })
        served_step_ms = [1e3 * docs[j]["engine"]["run_seconds"] / wl.steps
                          for j, _ in stream_jobs if j in docs and docs[j].get("engine")]
        out.info["wall_served_step_ms_p50"] = {
            "value": median(served_step_ms) if served_step_ms else 0.0, "unit": "ms"}
        return out

    # ---- traced pass: burst, latency split, then the layer probes ----
    check_results(out, "burst", burst_jobs, docs, drifts)
    if len(burst["settled"]) == n_burst:
        burst_wall = max(burst["settled"].values()) - min(
            start for start, _ in burst["submitted"].values())
        out.metrics["service.burst_jobs_per_s"] = n_burst / (burst_wall * burst_factor)
        out.detail.update(burst_jobs=n_burst, burst_wall_s=burst_wall)
    parts, out.spans = split_latency(on_time, stream, docs)
    m = out.metrics
    m["service.claim_wait_p50_s"] = median(parts["claim"])
    m["service.queue_wait_p50_s"] = median(parts["queue"])
    m["service.run_p50_s"] = median(parts["run"])
    m["service.settle_wait_p50_s"] = median(parts["settle"])
    out.detail["latency_parts_over_p50"] = sum(
        median(v) for v in parts.values()) / median(latency)
    out.detail["traced_job_latency_p50_s"] = median(latency)
    m["service.submit_ms"] = 1e3 * stream_factor * median(
        e - s for s, e in stream["submitted"].values())
    m["service.result_kb"] = median(d["_bytes"] for d in docs.values()) / 1024
    m["service.generator_late_max_ms"] = 1e3 * max(late)
    m.update(service_probes(bench, wl, seed))
    m.update(job_kernel_probes(bench, wl, seed))
    return out


def service_probes(bench: Bench, wl: ServeWorkload, seed: int) -> dict:
    """``service`` / ``resilience`` / ``cli`` measured in-process."""
    workdir = bench.workdir
    job = make_job(wl, seed, 0)
    out = {}

    def bare_run():
        t0 = time.perf_counter()
        sim = job.build_simulation()
        try:
            sim.run(job.steps)
            return time.perf_counter() - t0
        finally:
            sim.close()

    written = []

    def supervised_run():
        t0 = time.perf_counter()
        sup = SupervisedRun(
            job.build_simulation(),
            checkpoint_dir=workdir / f"sup-{len(written)}",
            checkpoint_every=job.checkpoint_every, guards=job.guards,
            max_retries=job.max_retries)
        try:
            sup.run(job.steps)
            written.append(sup.report.checkpoints_written)
            return time.perf_counter() - t0
        finally:
            sup.close()

    bare, supervised = [], []
    for _ in range(bench.probe_reps):
        bare.append(bench.bracket(bare_run))
        supervised.append(bench.bracket(supervised_run))
    out["service.bare_job_s"] = median(bare)
    out["resilience.supervised_overhead_ms_per_step"] = (
        1e3 * (median(supervised) - median(bare)) / job.steps)
    out["resilience.checkpoints_written"] = written[-1]

    def engine_batch(workers: int, n_jobs: int, tag: str) -> float:
        with JobEngine(workers, data_dir=workdir / f"engine-{tag}") as engine:
            t0 = time.perf_counter()
            ids = [engine.submit(make_job(wl, seed, i)) for i in range(n_jobs)]
            for job_id in ids:
                if not engine.result(job_id, timeout=SETTLE_TIMEOUT_S).ok:
                    raise RuntimeError(f"in-process engine job {job_id} failed")
            return time.perf_counter() - t0

    out["service.engine_job_s"] = median(
        bench.bracket(lambda: engine_batch(1, 1, f"one-{r}"))
        for r in range(bench.heavy_reps))
    batch = 8
    out["service.engine_jobs_per_s_w1"] = batch / bench.bracket(
        lambda: engine_batch(1, batch, "w1"))
    out["service.engine_jobs_per_s_w2"] = batch / bench.bracket(
        lambda: engine_batch(2, batch, "w2"))

    journal = JobJournal(workdir / "probe-journal.jsonl")
    out["service.journal_append_ms"] = 1e3 * bench.probe(
        lambda: journal.append("running", job_id="probe", segment=1, resumed=False),
        reps=max(bench.probe_reps, 20))
    out["cli.import_s"] = bench.probe(
        lambda: subprocess.run([sys.executable, "-c", "import repro.cli"],
                               env=child_env(workdir), check=True),
        heavy=True)
    return out


def job_kernel_probes(bench: Bench, wl: ServeWorkload, seed: int) -> dict:
    """Phase spans and kernel probes of the served job itself, run
    bare in this process — how much of a job is kernels at all."""
    job = make_job(wl, seed, 0)
    run = Run2D(job.build_simulation(), job.make_case(), job.seed)
    try:
        records = timed_window(run, bench.ref, 0.0, trace=True, min_steps=job.steps,
                               steps_per_sample=run.sort_period)
        out = span_metrics(records, run.n, run.sort_period, "core.step_other_ms")
        out.pop("_span_sum_over_step")
        out.update(probes_2d(bench, run.stepper, run.case, run.seed))
    finally:
        run.close()
    return out
