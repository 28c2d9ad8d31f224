"""Job descriptions for the simulation service.

A :class:`PICJob` is an immutable, validated, serializable description
of one simulation run — the estimator-style config object of the
service layer, analogous to an sklearn estimator's constructor
parameters: you describe *what* to run, the
:class:`~repro.service.engine.JobEngine` decides *when and where*.

The companion types are the public vocabulary of the job lifecycle:

* :class:`JobState` — the six states of the lifecycle state machine
  (see ``docs/service.md`` for the full transition diagram);
* :class:`JobInfo` — a point-in-time status snapshot;
* :class:`JobResult` — the terminal outcome, including the diagnostic
  history and the aggregated supervisor/engine accounting.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, field

__all__ = ["PICJob", "JobState", "JobInfo", "JobResult"]


class JobState(enum.Enum):
    """Lifecycle states of an engine-managed job.

    ``QUEUED`` and ``PREEMPTED`` are the two *runnable* states (a
    preempted job is a queued job that additionally owns a parked
    checkpoint); ``RUNNING`` is the only *active* state;
    ``SUCCEEDED``/``FAILED``/``CANCELLED`` are terminal.  Transitions::

        QUEUED ----> RUNNING ----> SUCCEEDED
          ^  |          |  \\----> FAILED
          |  |          |
          |  +--> CANCELLED <--+ (cancel works from any
          |                    |  non-terminal state)
          +---- PREEMPTED <----+
                (parked checkpoint; rescheduled like QUEUED)
    """

    QUEUED = "queued"
    RUNNING = "running"
    PREEMPTED = "preempted"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """Whether the job can never run again."""
        return self in (JobState.SUCCEEDED, JobState.FAILED,
                        JobState.CANCELLED)

    @property
    def runnable(self) -> bool:
        """Whether the scheduler may dispatch the job."""
        return self in (JobState.QUEUED, JobState.PREEMPTED)


@dataclass(frozen=True)
class PICJob:
    """One simulation run, described as data.

    Parameters
    ----------
    case:
        Initial condition: any name of
        :data:`repro.particles.CASE_NAMES` (what ``repro run --help``
        prints).  The scenario-zoo cases carry their wall boundary,
        magnetic field and external drive on the case object; the
        checkpoint metadata records all three, so they park, resume and
        recover like any other job.
    grid:
        ``(ncx, ncy)`` cell counts.  Only the Morton (the default) and
        Hilbert orderings need power-of-two extents (they validate this
        at build time); row-major, column-major and L4D run any grid,
        whose push wraps by modulo where an extent is not a power of
        two (:func:`repro.core.kernels.wrap_for`).
    n_particles:
        Particle count.
    steps:
        Total time steps the job runs (preemption never changes this:
        a resumed job continues to the same target).
    dt:
        Time-step size.
    alpha:
        Perturbation amplitude; ``None`` uses the case's default
        (0.05 for Landau, 0.5 nonlinear, 1e-3 for the instabilities).
    ordering:
        Cell ordering for the redundant field layout (any name of
        :func:`repro.curves.available_orderings`).
    backend:
        Kernel-execution backend.  The default ``"auto"`` resolves at
        build time: ``"c"`` where it builds, else ``"numpy"`` (the two
        are bitwise equal, so the choice moves time, never results).
        A job stored with an explicit name runs on that backend.
        ``"numpy-mp"`` jobs each own a private worker pool and
        :class:`~repro.parallel.shm.SharedArena` — jobs never share
        shared-memory segments.
    workers:
        Threads of the ``"c"`` backend's team, or worker processes of
        ``"numpy-mp"`` (``None``: the usable CPUs).
    seed:
        Start seed; ``None`` selects the low-noise quiet start.
    domain:
        ``(xmin, xmax, ymin, ymax)``; ``None`` uses the standard
        ``[0, 4π)²`` box (k = 0.5 for the 64-cell side).
    priority:
        Scheduling priority — higher runs first; a strictly higher
        priority may preempt a running lower-priority job (see the
        fairness policy in ``docs/service.md``).
    checkpoint_every:
        Steps between the supervisor's rotation checkpoints while the
        job runs — the rollback *and* preemption-loss granularity.
    guards:
        Guard spec for the per-job
        :class:`~repro.resilience.supervisor.SupervisedRun`
        (``"default"``, ``"none"``, ``"finite,charge:1e-6"``, ...).
    max_retries:
        Consecutive in-job failures before backend degradation.
    deadline_s:
        Optional wall-clock budget in seconds, summed across
        preemption segments.  Enforced cooperatively at step
        boundaries by the job's supervisor; exceeding it settles the
        job ``FAILED`` with a ``deadline: ...`` error.  ``None``
        (default) means no deadline.
    retry_backoff:
        Base seconds of exponential backoff between the supervisor's
        rollback-retries (``base * 2**(attempt-1)``, capped).  The
        default 0 retries immediately — right for deterministic
        faults; set it when failures are contention-shaped (shared
        filesystems, oversubscribed hosts).
    mode_x, mode_y:
        Spatial mode tracked in the diagnostic history.

    A job is hashable and serializable: :meth:`as_dict` /
    :meth:`from_dict` round-trip it through JSON, which is how the
    ``repro submit`` / ``repro serve`` spool ships jobs between
    processes.

    Examples
    --------
    >>> job = PICJob(case="landau", grid=(32, 16), n_particles=20_000,
    ...              steps=100, priority=5)
    >>> with JobEngine(max_workers=2) as engine:      # doctest: +SKIP
    ...     job_id = engine.submit(job)
    ...     result = engine.result(job_id)
    """

    case: str = "landau"
    grid: tuple[int, int] = (32, 16)
    n_particles: int = 10_000
    steps: int = 100
    dt: float = 0.05
    alpha: float | None = None
    ordering: str = "morton"
    backend: str = "auto"
    workers: int | None = None
    seed: int | None = None
    domain: tuple[float, float, float, float] | None = None
    priority: int = 0
    checkpoint_every: int = 25
    guards: str = "default"
    max_retries: int = 3
    deadline_s: float | None = None
    retry_backoff: float = 0.0
    mode_x: int = 1
    mode_y: int = 0

    def __post_init__(self):
        from repro.core.backends import AUTO, known_backend_names
        from repro.curves import available_orderings
        from repro.particles import CASE_NAMES

        if self.case not in CASE_NAMES:
            raise ValueError(
                f"case must be one of {CASE_NAMES}, got {self.case!r}")
        orderings = tuple(available_orderings())
        if self.ordering not in orderings:
            raise ValueError(
                f"ordering must be one of {orderings}, got {self.ordering!r}")

        backends = (AUTO, *known_backend_names())
        if self.backend not in backends:
            raise ValueError(
                f"backend must be one of {backends}, got {self.backend!r}")
        object.__setattr__(self, "grid", tuple(int(g) for g in self.grid))
        if len(self.grid) != 2 or min(self.grid) < 2:
            raise ValueError("grid must be (ncx, ncy) with both >= 2")
        if self.n_particles < 1:
            raise ValueError("n_particles must be positive")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1 (or None for usable cpus)")
        if self.domain is not None:
            dom = tuple(float(v) for v in self.domain)
            object.__setattr__(self, "domain", dom)
            if len(dom) != 4 or dom[1] <= dom[0] or dom[3] <= dom[2]:
                raise ValueError("domain must be (xmin, xmax, ymin, ymax) "
                                 "with xmax > xmin and ymax > ymin")

    # ------------------------------------------------------------------
    # Builders — the one way a description becomes a live run: the
    # engine, ``repro run`` and the examples all go through these, so
    # they build byte-identical simulations.
    # ------------------------------------------------------------------
    def make_grid(self):
        """The :class:`~repro.grid.spec.GridSpec` this job runs on."""
        from repro.grid import GridSpec

        ncx, ncy = self.grid
        dom = self.domain or (0.0, 4 * math.pi, 0.0, 4 * math.pi)
        return GridSpec(ncx, ncy, *dom)

    def make_case(self):
        """The :class:`~repro.particles.InitialCondition` instance."""
        from repro.particles import make_case

        return make_case(self.case, self.alpha)

    def make_config(self):
        """The :class:`~repro.core.config.OptimizationConfig`: the
        default run config for the chosen ordering."""
        from repro.core import OptimizationConfig

        cfg = OptimizationConfig(ordering=self.ordering, backend=self.backend)
        if self.workers is not None:
            cfg = cfg.with_(workers=self.workers)
        return cfg

    def build_simulation(self, config=None):
        """A fresh :class:`~repro.core.simulation.Simulation` at step 0.

        What the engine calls on first dispatch and ``repro run`` steps;
        resumes go through
        :func:`~repro.core.checkpoint.load_checkpoint` +
        :meth:`Simulation.from_stepper` instead.  ``config`` replaces
        :meth:`make_config`'s result — for a caller that adjusts an
        execution setting the description does not carry (``repro run
        --mp-timeout``).
        """
        from repro.core import Simulation

        return Simulation(
            self.make_grid(),
            self.make_case(),
            self.n_particles,
            config if config is not None else self.make_config(),
            dt=self.dt,
            seed=self.seed,
            quiet=self.seed is None,
            mode_x=self.mode_x,
            mode_y=self.mode_y,
        )

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """A JSON-compatible dict; inverse of :meth:`from_dict`."""
        d = asdict(self)
        d["grid"] = list(self.grid)
        if self.domain is not None:
            d["domain"] = list(self.domain)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PICJob":
        """Rebuild from :meth:`as_dict` output (unknown keys rejected).

        A stored ``loop_mode`` is dropped, whatever its value: journals
        and spool documents written while jobs carried that field run
        the one particle loop there is now."""
        d = dict(d)
        d.pop("loop_mode", None)
        if "grid" in d:
            d["grid"] = tuple(d["grid"])
        if d.get("domain") is not None:
            d["domain"] = tuple(d["domain"])
        return cls(**d)

    def describe(self) -> str:
        """One-line human-readable summary."""
        ncx, ncy = self.grid
        return (f"{self.case} {ncx}x{ncy} n={self.n_particles} "
                f"steps={self.steps} {self.ordering}/{self.backend} "
                f"prio={self.priority}")


@dataclass(frozen=True)
class JobInfo:
    """Point-in-time status snapshot of an engine-managed job.

    Returned by :meth:`JobEngine.status` and :meth:`JobEngine.list_jobs`;
    values are copies, safe to hold across state changes.
    """

    job_id: str
    state: JobState
    priority: int
    steps_total: int
    #: simulation steps completed so far (survives preemption)
    steps_done: int
    #: times the job was preempted (parked and requeued)
    preemptions: int
    #: scheduling segments started (1 + resumes)
    segments: int
    #: error summary for FAILED jobs, else ``None``
    error: str | None = None

    def describe(self) -> str:
        extra = f" [{self.error}]" if self.error else ""
        return (f"{self.job_id}: {self.state.value} "
                f"{self.steps_done}/{self.steps_total} steps, "
                f"{self.preemptions} preemption(s){extra}")


@dataclass
class JobResult:
    """Terminal outcome of a job.

    ``history`` is the full per-step diagnostic series (present for
    SUCCEEDED and CANCELLED jobs; a FAILED job carries whatever was
    recorded before the permanent failure).  ``supervisor`` aggregates
    the per-segment :class:`~repro.resilience.supervisor.RunReport`
    counters across preemption segments; ``timings`` is the job's
    cumulative instrumentation record
    (:meth:`repro.perf.instrument.Instrumentation.as_record`-shaped,
    engine context included under its ``"engine"`` key).
    """

    job_id: str
    state: JobState
    steps_done: int
    steps_total: int
    preemptions: int
    segments: int
    history: "object | None" = None
    timings: dict = field(default_factory=dict)
    supervisor: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the job ran to completion."""
        return self.state is JobState.SUCCEEDED

    def energy_drift(self) -> float | None:
        """The run's relative energy drift, if a history exists."""
        if self.history is None or not getattr(self.history, "times", None):
            return None
        return self.history.energy_drift()

    def summary(self) -> dict:
        """JSON-compatible summary (the ``repro serve`` result record)."""
        rec = {
            "job_id": self.job_id,
            "state": self.state.value,
            "steps_done": self.steps_done,
            "steps_total": self.steps_total,
            "preemptions": self.preemptions,
            "segments": self.segments,
            "error": self.error,
            "supervisor": dict(self.supervisor),
        }
        drift = self.energy_drift()
        rec["energy_drift"] = drift
        if self.history is not None and getattr(self.history, "times", None):
            arrays = self.history.as_arrays()
            rec["series"] = {k: v.tolist() for k, v in arrays.items()}
        if self.timings:
            rec["timings"] = self.timings.get("cumulative", {})
            if "engine" in self.timings:
                rec["engine"] = self.timings["engine"]
        return rec
