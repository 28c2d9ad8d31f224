"""The async multi-job engine: one worker pool, many simulations.

:class:`JobEngine` turns the single-run library into a long-running
service: jobs (:class:`~repro.service.job.PICJob`) are submitted into
a priority queue and multiplexed over a bounded pool of worker
threads.  Each dispatched job runs under its own
:class:`~repro.resilience.supervisor.SupervisedRun` — per-job guards,
rotating crash-safe checkpoints, rollback-and-retry, backend
degradation — so a faulting job degrades or dies *inside its own
supervisor* without taking the engine (or any other job) down.

Scheduling model
----------------
* **Priority, FIFO within priority.**  The runnable job with the
  highest ``priority`` (ties broken by submission order) is dispatched
  to the next free worker.
* **Cooperative preemption.**  When every worker is busy and a job
  with *strictly higher* priority arrives, the lowest-priority running
  job is asked to yield.  It stops at the next step boundary, its
  exact state is **parked** as a rotation checkpoint
  (:meth:`SupervisedRun.park`), its resources (worker pools,
  ``/dev/shm`` segments) are released, and it re-enters the queue as
  ``PREEMPTED``.  On its next dispatch the parked checkpoint is
  restored bit-exactly — a preempted-and-resumed job produces final
  state bitwise identical to an uninterrupted run (proved by
  ``tests/test_service_engine.py``).
* **Isolation.**  Jobs share nothing: each owns its stepper, its
  checkpoint directory, and (for ``numpy-mp`` jobs) its own worker
  pool and :class:`~repro.parallel.shm.SharedArena`.

Observability
-------------
Per-step diagnostics stream through :meth:`JobEngine.stream`; per-job
wall-clock phase timings accumulate in one
:class:`~repro.perf.instrument.Instrumentation` ledger per job across
preemption segments (the engine attaches its scheduling context under
the ledger's ``"engine"`` key); engine-level counters — queue-depth
samples, dispatch order, preemption counts — live in
:class:`EngineStats` (:meth:`JobEngine.stats`).

The operator manual, lifecycle state machine and failure-handling
matrix are in ``docs/service.md``.
"""

from __future__ import annotations

import heapq
import logging
import pathlib
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

from repro.core.checkpoint import CheckpointMismatchError, load_checkpoint
from repro.core.simulation import Simulation, SimulationHistory
from repro.resilience.supervisor import (
    DeadlineExceededError,
    SupervisedRun,
    SupervisionError,
)
from repro.service.job import JobInfo, JobResult, JobState, PICJob
from repro.service.journal import (
    JobJournal,
    read_json_tolerant,
    write_json_atomic,
)

__all__ = ["JobEngine", "EngineStats", "EngineClosedError", "UnknownJobError"]

logger = logging.getLogger("repro.service")

#: queue-depth samples kept before the ring stops growing
_MAX_DEPTH_SAMPLES = 4096


class EngineClosedError(RuntimeError):
    """The operation needs a live engine but :meth:`JobEngine.close`
    already ran."""


class UnknownJobError(KeyError):
    """No job with the given id was ever submitted to this engine."""


@dataclass
class EngineStats:
    """Engine-level counters and samples (one instance per engine).

    All counts are lifetime totals; ``queue_depth`` holds
    ``{"event", "depth", "running"}`` samples taken at every submit,
    dispatch and park (capped at 4096 so a long-lived engine cannot
    grow without bound).  ``per_job_phases`` maps job id to that job's
    cumulative per-phase kernel seconds, mirrored from the job ledgers
    so one record answers "where did the pool's time go"
    (``dataclasses.asdict`` makes it a JSON document).
    """

    submitted: int = 0
    succeeded: int = 0
    failed: int = 0
    cancelled: int = 0
    #: jobs adopted from a prior engine's journal by :meth:`recover`
    recovered: int = 0
    #: jobs actually parked-and-requeued (not preemption *requests*)
    preemptions: int = 0
    #: segments that restored a parked checkpoint
    resumes: int = 0
    #: dispatch order (job ids, one entry per segment start)
    started_order: list = field(default_factory=list)
    #: terminal order (job ids)
    completed_order: list = field(default_factory=list)
    queue_depth: list = field(default_factory=list)
    per_job_phases: dict = field(default_factory=dict)

    def sample_depth(self, event: str, depth: int, running: int) -> None:
        if len(self.queue_depth) < _MAX_DEPTH_SAMPLES:
            self.queue_depth.append(
                {"event": event, "depth": int(depth), "running": int(running)}
            )


class _JobRecord:
    """Engine-internal mutable state of one job (lock-protected)."""

    __slots__ = (
        "job_id", "job", "seq", "state", "injector", "events",
        "steps_done", "preemptions", "segments", "error", "history",
        "instr", "ckpt_dir", "supervisor_agg", "result",
        "cancel_requested", "yield_requested", "submitted_at",
        "first_dispatch_wait", "run_seconds", "recovered",
    )

    def __init__(self, job_id: str, job: PICJob, seq: int, ckpt_dir,
                 injector=None):
        self.job_id = job_id
        self.job = job
        self.seq = seq
        self.state = JobState.QUEUED
        self.injector = injector
        self.events: list[dict] = []
        self.steps_done = 0
        self.preemptions = 0
        self.segments = 0
        self.error: str | None = None
        self.history: SimulationHistory | None = None
        self.instr = None
        self.ckpt_dir = pathlib.Path(ckpt_dir)
        self.supervisor_agg: dict = {}
        self.result: JobResult | None = None
        self.cancel_requested = False
        self.yield_requested = False
        self.submitted_at = time.monotonic()
        self.first_dispatch_wait: float | None = None
        self.run_seconds = 0.0
        #: adopted from a prior engine's journal (restore may have to
        #: rebuild history from the sidecar, or restart from step 0)
        self.recovered = False

    def info(self) -> JobInfo:
        return JobInfo(
            job_id=self.job_id,
            state=self.state,
            priority=self.job.priority,
            steps_total=self.job.steps,
            steps_done=self.steps_done,
            preemptions=self.preemptions,
            segments=self.segments,
            error=self.error,
        )

    def engine_context(self) -> dict:
        """The scheduling context merged into the job's ledger."""
        ctx = {
            "job_id": self.job_id,
            "priority": self.job.priority,
            "preemptions": self.preemptions,
            "segments": self.segments,
            "run_seconds": self.run_seconds,
        }
        if self.first_dispatch_wait is not None:
            ctx["queue_wait_seconds"] = self.first_dispatch_wait
        return ctx


def _merge_report(agg: dict, report: dict) -> dict:
    """Accumulate one segment's supervisor report into the aggregate."""
    for key, val in report.items():
        if isinstance(val, (int, float)) and not isinstance(val, bool):
            agg[key] = agg.get(key, 0) + val
        elif isinstance(val, list):
            agg.setdefault(key, []).extend(val)
        else:
            agg[key] = val
    return agg


class JobEngine:
    """Submit / status / cancel / result engine over a shared pool.

    Parameters
    ----------
    max_workers:
        Concurrent jobs — the bounded worker-pool width.  Each worker
        is a thread driving one supervised simulation at a time; a
        ``numpy-mp`` job additionally owns real worker *processes* of
        its own, so ``max_workers`` bounds *jobs*, not host cores.
    data_dir:
        Root for the engine's durable state: per-job checkpoint
        directories (parked state lives in ``<data_dir>/<job_id>/``)
        and the append-only lifecycle journal
        (``<data_dir>/journal.jsonl``, see
        :mod:`repro.service.journal`).  ``None`` uses a private
        temporary directory removed on :meth:`close`; pass a path to
        make jobs survive the engine process itself —
        :meth:`JobEngine.recover` on the same directory rebuilds the
        queue and resumes interrupted jobs from their newest loadable
        checkpoint, even after a SIGKILL.
    autostart:
        Spawn the workers immediately.  ``False`` queues submissions
        until :meth:`start` — useful for deterministic dispatch-order
        tests and batch setups.

    Thread safety: every public method may be called from any thread.

    Usage::

        with JobEngine(max_workers=2) as engine:
            jid = engine.submit(PICJob(case="landau", steps=200))
            for event in engine.stream(jid):
                print(event["step"], event["field_energy"])
            result = engine.result(jid)
    """

    def __init__(self, max_workers: int = 2, *, data_dir=None,
                 autostart: bool = True):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = int(max_workers)
        self._tmpdir = None
        if data_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-engine-")
            data_dir = self._tmpdir.name
        self.data_dir = pathlib.Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.journal = JobJournal(self.data_dir / "journal.jsonl")
        self.stats = EngineStats()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[str, _JobRecord] = {}
        self._heap: list[tuple[int, int, str]] = []
        self._running: dict[str, _JobRecord] = {}
        self._threads: list[threading.Thread] = []
        self._terminal_listeners: list = []
        self._seq = 0
        self._stop = False
        self._closed = False
        self._started = False
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        with self._lock:
            if self._closed:
                raise EngineClosedError("engine is closed")
            if self._started:
                return
            self._started = True
            for i in range(self.max_workers):
                t = threading.Thread(
                    target=self._worker_loop, name=f"repro-job-worker-{i}",
                    daemon=True,
                )
                self._threads.append(t)
                t.start()

    def close(self) -> None:
        """Shut the engine down (idempotent).

        Running jobs are asked to yield and are **parked** — their
        exact state written to their checkpoint directory — then every
        worker thread is joined and, when the engine owns its
        ``data_dir``, the directory (parked checkpoints included) is
        removed.  Job records stay queryable: :meth:`status` and
        :meth:`result` keep answering for terminal jobs.  No thread,
        process pool or ``/dev/shm`` segment survives ``close``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._stop = True
            self._cond.notify_all()
        for t in self._threads:
            t.join()
        self._threads.clear()
        if self._tmpdir is None:
            # durable engines record the clean shutdown: the journal's
            # last line tells recover (and operators) that every
            # non-terminal job was parked, not killed mid-step
            self.journal.append("shutdown")
        else:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "JobEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @classmethod
    def recover(cls, data_dir, *, max_workers: int = 2,
                autostart: bool = True) -> "JobEngine":
        """Rebuild an engine from a previous engine's ``data_dir``.

        Replays the lifecycle journal and re-adopts every job that was
        not terminal when the previous engine stopped — whether it
        parked cleanly (:meth:`close`) or was killed outright.  Jobs
        with a parked checkpoint re-enter the queue ``PREEMPTED`` and
        resume from their newest loadable checkpoint with the
        diagnostic history restored from the ``history.json`` sidecar;
        jobs that died before any usable checkpoint restart from step
        0.  Either way the physics is deterministic, so a recovered
        job's final history is bitwise identical to an uninterrupted
        run (asserted by ``tests/test_service_recovery.py`` and the
        ``make chaos-service`` gate).

        Priority and submission order are preserved from the journal,
        so recovered dispatch order matches what the dead engine would
        have done next.
        """
        engine = cls(max_workers=max_workers, data_dir=data_dir,
                     autostart=False)
        view = JobJournal.replay(engine.journal.path)
        adopted = []
        with engine._lock:
            for job_id, info in sorted(view.items(),
                                       key=lambda kv: kv[1]["seq"]):
                if info["state"] in ("succeeded", "failed", "cancelled"):
                    continue
                if info["job"] is None:
                    logger.warning("journal has no job description for "
                                   "%s; cannot recover it", job_id)
                    continue
                try:
                    job = PICJob.from_dict(info["job"])
                except (TypeError, ValueError) as exc:
                    logger.warning("unrecoverable job description for "
                                   "%s: %s", job_id, exc)
                    continue
                engine._seq += 1
                rec = _JobRecord(job_id, job, engine._seq,
                                 engine.data_dir / job_id)
                rec.recovered = True
                has_ckpt = any(rec.ckpt_dir.glob("ckpt-*.npz"))
                rec.state = (JobState.PREEMPTED if has_ckpt
                             else JobState.QUEUED)
                engine._jobs[job_id] = rec
                heapq.heappush(engine._heap,
                               (-job.priority, rec.seq, job_id))
                engine.stats.submitted += 1
                engine.stats.recovered += 1
                engine.journal.append("recovered", job_id=job_id,
                                      resumed=has_ckpt)
                adopted.append(job_id)
            engine._cond.notify_all()
        for job_id in adopted:
            logger.info("recovered %s from journal", job_id)
        if autostart:
            engine.start()
        return engine

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    def submit(self, job: PICJob, *, job_id: str | None = None,
               injector=None) -> str:
        """Queue a job; returns its id immediately.

        ``job_id`` defaults to a sequential ``job-NNNN``; explicit ids
        must be unique per engine.  ``injector`` optionally attaches a
        :class:`~repro.resilience.faultinject.FaultInjector` to the
        job's supervised run (chaos testing).  May preempt a running
        lower-priority job — see the module docstring.
        """
        if not isinstance(job, PICJob):
            raise TypeError(f"submit() takes a PICJob, got {type(job).__name__}")
        with self._lock:
            if self._closed:
                raise EngineClosedError("engine is closed")
            self._seq += 1
            if job_id is None:
                job_id = f"job-{self._seq:04d}"
            if job_id in self._jobs:
                raise ValueError(f"job id {job_id!r} already submitted")
            rec = _JobRecord(job_id, job, self._seq,
                             self.data_dir / job_id, injector=injector)
            self._jobs[job_id] = rec
            heapq.heappush(self._heap, (-job.priority, rec.seq, job_id))
            self.journal.append("submitted", job_id=job_id, seq=rec.seq,
                                priority=job.priority, job=job.as_dict())
            self.stats.submitted += 1
            self.stats.sample_depth("submit", self._queued_count(),
                                    len(self._running))
            self._maybe_request_preemption(job.priority)
            self._cond.notify_all()
        logger.info("submitted %s: %s", job_id, job.describe())
        return job_id

    def add_terminal_listener(self, listener) -> None:
        """Call ``listener(job_id)`` the moment a job turns terminal.

        The hook an event-driven front-end waits on instead of polling
        :meth:`status` (``serve_spool`` hangs a self-pipe write on it).
        It runs on the settling thread **with the engine lock held**:
        keep it to a flag set or a pipe write, and never call back
        into the engine.  A listener that raises is logged and
        swallowed — it cannot take the worker or the result with it.
        """
        with self._lock:
            self._terminal_listeners.append(listener)

    # ------------------------------------------------------------------
    # Introspection / control API
    # ------------------------------------------------------------------
    def status(self, job_id: str) -> JobInfo:
        """A point-in-time :class:`~repro.service.job.JobInfo` snapshot."""
        with self._lock:
            return self._record(job_id).info()

    def list_jobs(self) -> list[JobInfo]:
        """Snapshots of every job ever submitted, in submission order."""
        with self._lock:
            recs = sorted(self._jobs.values(), key=lambda r: r.seq)
            return [r.info() for r in recs]

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; returns whether the cancellation took effect.

        A queued or preempted job is cancelled immediately; a running
        job is asked to stop at the next step boundary and transitions
        to ``CANCELLED`` when it does (partial history retained in the
        result).  Cancelling a terminal job is a no-op returning
        ``False``.
        """
        with self._lock:
            rec = self._record(job_id)
            if rec.state.terminal:
                return False
            if rec.state is JobState.RUNNING:
                rec.cancel_requested = True
                self._cond.notify_all()
                return True
            # queued / preempted: cancel in place
            self._finalize_locked(rec, JobState.CANCELLED)
            return True

    def preempt(self, job_id: str) -> bool:
        """Operator-forced preemption of a running job.

        Asks the job to yield at the next step boundary; it parks and
        re-enters the queue as ``PREEMPTED`` (and may resume at once
        if a worker is free — still exercising the full park/restore
        path).  Returns ``False`` unless the job is currently running.
        """
        with self._lock:
            rec = self._record(job_id)
            if rec.state is not JobState.RUNNING:
                return False
            rec.yield_requested = True
            self._cond.notify_all()
            return True

    def result(self, job_id: str, timeout: float | None = None) -> JobResult:
        """Block until the job is terminal and return its result.

        Raises :class:`TimeoutError` when ``timeout`` (seconds)
        elapses first.  After :meth:`close`, a job parked by the
        shutdown never becomes terminal — poll :meth:`status` instead
        of blocking on ``result`` for those.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            rec = self._record(job_id)
            while rec.result is None:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"job {job_id} not terminal after {timeout}s "
                            f"(state {rec.state.value})")
                if self._closed and not self._threads:
                    raise EngineClosedError(
                        f"engine closed before job {job_id} finished "
                        f"(state {rec.state.value})")
                self._cond.wait(remaining if remaining is not None else 0.5)
            return rec.result

    def stream(self, job_id: str, *, timeout: float | None = None):
        """Yield per-step diagnostic events until the job is terminal.

        Each event is a dict with ``step``, ``t``, ``field_energy``,
        ``kinetic_energy``, ``mode_amplitude``, ``phase_seconds`` and
        ``segment``.  Delivery is **at-least-once** per step: a
        supervisor rollback re-runs (and re-emits) rolled-back steps,
        so consumers keying on ``step`` see later emissions supersede
        earlier ones.  The generator ends when the job is terminal and
        all events are drained; ``timeout`` bounds each wait for the
        *next* event (:class:`TimeoutError`).
        """
        index = 0
        while True:
            with self._lock:
                rec = self._record(job_id)
                deadline = (None if timeout is None
                            else time.monotonic() + timeout)
                while len(rec.events) <= index and not rec.state.terminal:
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise TimeoutError(
                                f"no event from {job_id} within {timeout}s")
                    self._cond.wait(remaining if remaining is not None
                                    else 0.5)
                if len(rec.events) <= index:  # terminal and drained
                    return
                event = rec.events[index]
            index += 1
            yield event

    def join(self, timeout: float | None = None) -> bool:
        """Wait until every submitted job is terminal.

        Returns ``True`` on quiescence, ``False`` on timeout.  Unlike
        :meth:`close` this leaves the engine running, ready for more
        submissions.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while any(not r.state.terminal for r in self._jobs.values()):
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining if remaining is not None else 0.5)
            return True

    # ------------------------------------------------------------------
    # Internals — scheduling
    # ------------------------------------------------------------------
    def _record(self, job_id: str) -> _JobRecord:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(job_id) from None

    def _queued_count(self) -> int:
        return sum(1 for r in self._jobs.values() if r.state.runnable)

    def _maybe_request_preemption(self, priority: int) -> None:
        """Ask the weakest running job to yield for a stronger arrival.

        Called with the lock held.  Only fires when the pool is full;
        equal priorities never preempt (FIFO fairness within a
        priority level), so a steady stream of equal-priority arrivals
        cannot starve a running job.
        """
        if len(self._running) < self.max_workers:
            return
        victim = min(
            (r for r in self._running.values()
             if not r.yield_requested and not r.cancel_requested),
            key=lambda r: (r.job.priority, -r.seq),
            default=None,
        )
        if victim is not None and victim.job.priority < priority:
            victim.yield_requested = True

    def _pop_best_locked(self) -> _JobRecord | None:
        """Highest-priority runnable record, skipping stale heap rows."""
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            rec = self._jobs[job_id]
            if rec.state.runnable:
                return rec
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                rec = None
                while True:
                    if not self._stop:
                        rec = self._pop_best_locked()
                    if rec is not None or self._stop:
                        break
                    self._cond.wait()
                if rec is None:  # stopping and nothing runnable
                    return
                resuming = rec.state is JobState.PREEMPTED
                rec.state = JobState.RUNNING
                rec.yield_requested = False
                self._running[rec.job_id] = rec
                self.stats.started_order.append(rec.job_id)
                if resuming:
                    self.stats.resumes += 1
                if rec.first_dispatch_wait is None:
                    rec.first_dispatch_wait = time.monotonic() - rec.submitted_at
                self.stats.sample_depth("dispatch", self._queued_count(),
                                        len(self._running))
                self.journal.append("running", job_id=rec.job_id,
                                    segment=rec.segments + 1,
                                    resumed=resuming)
            try:
                self._run_segment(rec, resuming)
            except Exception:  # never let a scheduling bug kill the pool
                logger.exception("worker crashed running %s", rec.job_id)
                with self._lock:
                    self._running.pop(rec.job_id, None)
                    self._finalize_locked(rec, JobState.FAILED,
                                          error="internal engine error")

    # ------------------------------------------------------------------
    # Internals — running one segment of one job
    # ------------------------------------------------------------------
    def _run_segment(self, rec: _JobRecord, resuming: bool) -> None:
        """Drive one scheduling segment: build/restore, run, settle."""
        t0 = time.monotonic()
        rec.segments += 1
        try:
            sim = self._build_or_restore(rec, resuming)
        except Exception as exc:
            with self._lock:
                self._running.pop(rec.job_id, None)
                self._finalize_locked(
                    rec, JobState.FAILED,
                    error=f"{type(exc).__name__}: {exc}")
            return
        rec.history = sim.history
        rec.instr = sim.instrumentation
        sim.on_step = self._make_observer(rec)
        try:
            sup = SupervisedRun(
                sim,
                checkpoint_dir=rec.ckpt_dir,
                checkpoint_every=rec.job.checkpoint_every,
                guards=rec.job.guards,
                max_retries=rec.job.max_retries,
                backoff_base=rec.job.retry_backoff,
                deadline_s=rec.job.deadline_s,
                elapsed_offset=rec.run_seconds,
                on_checkpoint=self._make_history_writer(rec),
                injector=rec.injector,
            )
        except Exception as exc:  # e.g. an unparsable guard spec
            sim.close()
            with self._lock:
                self._running.pop(rec.job_id, None)
                self._finalize_locked(
                    rec, JobState.FAILED,
                    error=f"{type(exc).__name__}: {exc}")
            return
        error = None
        outcome = JobState.RUNNING  # sentinel: still unsettled
        parked_path = None
        try:
            remaining = rec.job.steps - sim.stepper.iteration
            if remaining > 0:
                sup.run(remaining, should_yield=lambda: (
                    rec.yield_requested or rec.cancel_requested or self._stop
                ))
            if sim.stepper.iteration >= rec.job.steps:
                outcome = JobState.SUCCEEDED
            elif rec.cancel_requested:
                outcome = JobState.CANCELLED
            else:  # preemption or engine shutdown: park the exact state
                parked_path = sup.park()
                outcome = JobState.PREEMPTED
        except DeadlineExceededError as exc:
            outcome = JobState.FAILED
            error = f"deadline: {exc}"
        except SupervisionError as exc:
            outcome = JobState.FAILED
            error = f"permanent failure: {exc}"
        except Exception as exc:  # a bug outside the supervisor's net
            outcome = JobState.FAILED
            error = f"{type(exc).__name__}: {exc}"
        finally:
            rec.run_seconds += time.monotonic() - t0
            _merge_report(rec.supervisor_agg, sup.report.as_dict())
            with self._lock:
                rec.steps_done = sim.stepper.iteration
            sup.close()  # closes sim: worker pools and /dev/shm released
        with self._lock:
            self._running.pop(rec.job_id, None)
            if outcome is JobState.PREEMPTED:
                preempted = rec.yield_requested and not self._stop
                rec.state = JobState.PREEMPTED
                rec.yield_requested = False
                if preempted:
                    rec.preemptions += 1
                    self.stats.preemptions += 1
                self.journal.append(
                    "preempted", job_id=rec.job_id,
                    iteration=rec.steps_done,
                    checkpoint=(parked_path.name if parked_path is not None
                                else None))
                heapq.heappush(self._heap,
                               (-rec.job.priority, rec.seq, rec.job_id))
                self.stats.sample_depth("park", self._queued_count(),
                                        len(self._running))
                self._cond.notify_all()
            else:
                self._finalize_locked(rec, outcome, error=error)

    def _build_or_restore(self, rec: _JobRecord, resuming: bool) -> Simulation:
        """A live Simulation: fresh on first dispatch, restored after.

        For a job adopted by :meth:`recover` the in-memory history died
        with the previous process, so it is rebuilt from the
        ``history.json`` sidecar — and a checkpoint is only usable if
        the sidecar covers its iteration (the sidecar is written right
        after each checkpoint, so a SIGKILL between the two can leave a
        newest checkpoint with no matching history; that candidate is
        skipped for an older covered one).  When nothing usable
        remains, a recovered job restarts from step 0: the physics is
        deterministic, so the final state is identical either way.
        """
        if not resuming:
            rec.ckpt_dir.mkdir(parents=True, exist_ok=True)
            return rec.job.build_simulation()
        history = rec.history
        if history is None and rec.recovered:
            history = self._load_history_sidecar(rec)
        parked = sorted(rec.ckpt_dir.glob("ckpt-*.npz"), reverse=True)
        stepper = None
        last_error: Exception | None = None
        for path in parked:  # newest first; skip torn archives
            try:
                candidate = load_checkpoint(
                    path, rec.job.make_config(), instrumentation=rec.instr,
                )
            except CheckpointMismatchError as exc:
                last_error = exc
                continue
            if (rec.recovered and history is not None
                    and candidate.iteration + 1 > len(history.times)):
                candidate.close()
                last_error = CheckpointMismatchError(
                    f"{path.name} is newer than the history sidecar "
                    f"({candidate.iteration + 1} > {len(history.times)})")
                continue
            stepper = candidate
            break
        if stepper is None:
            if rec.recovered:
                # no usable checkpoint+history pair: deterministic
                # restart from step 0 still reproduces the same run
                logger.warning(
                    "no usable checkpoint for recovered job %s (%s); "
                    "restarting from step 0", rec.job_id, last_error)
                rec.history = None
                rec.ckpt_dir.mkdir(parents=True, exist_ok=True)
                return rec.job.build_simulation()
            raise CheckpointMismatchError(
                f"no usable parked checkpoint for {rec.job_id} in "
                f"{rec.ckpt_dir}: {last_error}")
        if history is not None:
            # the parked checkpoint may be older than the history tip
            # (e.g. shutdown parked an earlier cadence checkpoint);
            # drop entries past the restored iteration
            history.truncate(stepper.iteration + 1)
        return Simulation.from_stepper(
            stepper, history=history,
            mode_x=rec.job.mode_x, mode_y=rec.job.mode_y,
        )

    def _load_history_sidecar(self, rec: _JobRecord) -> SimulationHistory | None:
        """The diagnostic history persisted next to the rotation."""
        doc = read_json_tolerant(rec.ckpt_dir / "history.json")
        if doc is None:
            return None
        try:
            return SimulationHistory.from_dict(doc)
        except (KeyError, TypeError, ValueError):
            logger.warning("unusable history sidecar for %s", rec.job_id)
            return None

    def _make_history_writer(self, rec: _JobRecord):
        """The supervisor ``on_checkpoint`` hook for one job.

        Persists the diagnostic series next to the rotation with the
        same atomic idiom as the checkpoints themselves, so a restart
        can resume the history bit-exactly
        (:meth:`SimulationHistory.as_dict` is what keeps recovered
        summaries bitwise equal to uninterrupted ones).
        """
        sidecar = rec.ckpt_dir / "history.json"

        def write(path, iteration: int) -> None:
            h = rec.history
            if h is None:
                return
            write_json_atomic(
                sidecar, {"iteration": int(iteration), **h.as_dict()})

        return write

    def _make_observer(self, rec: _JobRecord):
        """The per-step diagnostics publisher for one job."""

        def on_step(sim: Simulation) -> None:
            h = sim.history
            last = sim.instrumentation.last_step
            event = {
                "job_id": rec.job_id,
                "step": sim.stepper.iteration,
                "segment": rec.segments,
                "t": h.times[-1],
                "field_energy": h.field_energy[-1],
                "kinetic_energy": h.kinetic_energy[-1],
                "mode_amplitude": h.mode_amplitude[-1],
                "phase_seconds": dict(last) if last is not None else {},
            }
            with self._lock:
                rec.steps_done = sim.stepper.iteration
                rec.events.append(event)
                self._cond.notify_all()

        return on_step

    def _finalize_locked(self, rec: _JobRecord, state: JobState,
                         error: str | None = None) -> None:
        """Settle a job into a terminal state (lock held)."""
        rec.state = state
        rec.error = error
        if rec.instr is not None:
            rec.instr.engine = rec.engine_context()
            self.stats.per_job_phases[rec.job_id] = (
                rec.instr.timings.as_dict())
        rec.result = JobResult(
            job_id=rec.job_id,
            state=state,
            steps_done=rec.steps_done,
            steps_total=rec.job.steps,
            preemptions=rec.preemptions,
            segments=rec.segments,
            history=rec.history,
            timings=rec.instr.as_record() if rec.instr is not None else {},
            supervisor=dict(rec.supervisor_agg),
            error=error,
        )
        if state is JobState.SUCCEEDED:
            self.stats.succeeded += 1
        elif state is JobState.FAILED:
            self.stats.failed += 1
            logger.warning("job %s failed: %s", rec.job_id, error)
        else:
            self.stats.cancelled += 1
        self.stats.completed_order.append(rec.job_id)
        self.journal.append(
            "terminal", job_id=rec.job_id, state=state.value,
            steps_done=rec.steps_done, error=error,
            retries=int(rec.supervisor_agg.get("recoveries", 0)))
        shutil.rmtree(rec.ckpt_dir, ignore_errors=True)
        self._cond.notify_all()
        for listener in self._terminal_listeners:
            try:
                listener(rec.job_id)
            except Exception:
                logger.exception("terminal listener failed for %s",
                                 rec.job_id)
