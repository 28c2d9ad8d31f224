"""repro.service — simulation-as-a-service: the async multi-job engine.

The single-run library (:class:`~repro.core.simulation.Simulation`)
is the wrong shape for many users submitting many runs.  This package
is the serving shape: a long-running engine that multiplexes many
simulation jobs over one bounded worker pool, with priority
scheduling, checkpoint-based preemption/resume, per-job fault
isolation (each job runs under its own
:class:`~repro.resilience.supervisor.SupervisedRun`), streamed
per-step diagnostics, and engine-level instrumentation.

Two layers:

* :class:`PICJob`, :class:`JobState`, :class:`JobInfo`,
  :class:`JobResult` (:mod:`repro.service.job`) — the job vocabulary:
  an immutable serializable run description (the one ``repro run``
  builds its simulation from, too) and the lifecycle types.
* :class:`JobEngine` (:mod:`repro.service.engine`) — the engine:
  ``submit(job) -> id``, then status / cancel / preempt / result /
  stream by id, over a priority queue and a bounded worker pool.

The process-boundary front-end (``repro serve`` / ``repro submit``)
lives in :mod:`repro.service.spool`.  The operator manual — lifecycle
state machine, preemption semantics, fairness policy and the
failure-handling matrix — is ``docs/service.md``.

Quickstart::

    from repro.service import JobEngine, PICJob

    jobs = [PICJob(case="landau", n_particles=n, steps=100)
            for n in (10_000, 20_000)]
    with JobEngine(max_workers=2) as engine:
        for job_id in [engine.submit(job) for job in jobs]:
            print(job_id, engine.result(job_id).energy_drift())
"""

from repro.service.engine import (
    EngineClosedError,
    EngineStats,
    JobEngine,
    UnknownJobError,
)
from repro.service.job import JobInfo, JobResult, JobState, PICJob
from repro.service.journal import JobJournal, write_json_atomic
from repro.service.spool import (
    gc_spool,
    parse_age,
    read_result,
    reclaim_stale,
    serve_spool,
    submit_to_spool,
    wait_for_result,
)

__all__ = [
    "PICJob",
    "JobState",
    "JobInfo",
    "JobResult",
    "JobEngine",
    "EngineStats",
    "EngineClosedError",
    "UnknownJobError",
    "JobJournal",
    "write_json_atomic",
    "submit_to_spool",
    "read_result",
    "wait_for_result",
    "serve_spool",
    "reclaim_stale",
    "gc_spool",
    "parse_age",
]
