"""Per-step wall-clock instrumentation for the PIC steppers.

The cache/cost models of :mod:`repro.model` predict *paper-machine*
behaviour; this module measures what the Python kernels actually cost
on the host, so backend comparisons (NumPy vs C) and throughput
numbers rest on real wall-clock data:

* :class:`StepTimings` — cumulative monotonic-clock seconds per kernel
  phase plus particle-step counters, JSON round-trippable.
* :class:`Instrumentation` — the recorder the steppers drive: a
  ``phase(...)`` context manager around each kernel call, per-step
  records, and derived particles-per-second rates.

The phase set mirrors Fig. 1's main loop: ``sort``, ``update_v``
(interpolate + velocity kick), ``update_x`` (position push),
``accumulate`` (charge deposit), ``solve`` (Poisson).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "PHASES",
    "PARTICLE_PHASES",
    "StepTimings",
    "Instrumentation",
]

#: Kernel phases of one time step, in execution order.
PHASES = ("sort", "update_v", "update_x", "accumulate", "solve")

#: Phases that sweep the particle arrays (denominator: particle-steps).
PARTICLE_PHASES = ("update_v", "update_x", "accumulate", "sort")


@dataclass
class StepTimings:
    """Wall-clock seconds spent in each phase, accumulated over steps.

    These are *measured* times of the host kernels (used by the
    wall-clock benchmarks); the paper-shaped machine timings come from
    :mod:`repro.model.costmodel` instead.  ``particle_steps`` counts
    particles advanced (particles x steps), so
    :meth:`particles_per_second` is a true throughput.
    """

    update_v: float = 0.0
    update_x: float = 0.0
    accumulate: float = 0.0
    sort: float = 0.0
    solve: float = 0.0
    steps: int = 0
    particle_steps: int = 0
    #: serial-retry events of the numpy-mp engine (0 for in-process
    #: backends): each counts one worker shard that crashed or timed
    #: out and was recomputed in the parent
    fallbacks: int = 0
    #: supervisor rollbacks: times a
    #: :class:`repro.resilience.supervisor.SupervisedRun` restored the
    #: simulation from a checkpoint after a guard violation or a
    #: backend exception (0 for unsupervised runs)
    rollbacks: int = 0
    #: per-worker phase seconds of the numpy-mp engine, e.g.
    #: ``{"worker0": {"update_v": 1.2, ...}}``; empty for in-process
    #: backends
    worker_phases: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return (
            self.update_v
            + self.update_x
            + self.accumulate
            + self.sort
            + self.solve
        )

    @property
    def kernel_total(self) -> float:
        """Seconds in the particle loops (excludes sort + solve)."""
        return self.update_v + self.update_x + self.accumulate

    def particles_per_second(self) -> float:
        """Particle-steps per wall-clock second over all phases (0 if idle)."""
        return self.particle_steps / self.total if self.total > 0 else 0.0

    def phase_particles_per_second(self) -> dict[str, float]:
        """Particle-steps per second *per particle phase* (0 for idle ones).

        The per-phase denominator is the same cumulative
        ``particle_steps`` — each particle phase sweeps every particle
        once per step — so the rates are directly comparable across
        phases.
        """
        return {
            p: (self.particle_steps / s if (s := getattr(self, p)) > 0 else 0.0)
            for p in PARTICLE_PHASES
        }

    def as_dict(self) -> dict[str, float]:
        """Per-phase seconds plus the total (the benchmark-facing view)."""
        return {
            "update_v": self.update_v,
            "update_x": self.update_x,
            "accumulate": self.accumulate,
            "sort": self.sort,
            "solve": self.solve,
            "total": self.total,
        }

    def as_record(self) -> dict[str, float | int]:
        """Full serializable state: phases, counters, derived rates.

        (:meth:`as_dict` keeps its historical phase-only key set; the
        engine extras — ``fallbacks``, ``workers`` — appear here.)
        """
        rec: dict = self.as_dict()
        rec["steps"] = self.steps
        rec["particle_steps"] = self.particle_steps
        rec["particles_per_second"] = self.particles_per_second()
        rec["phase_particles_per_second"] = self.phase_particles_per_second()
        rec["fallbacks"] = self.fallbacks
        rec["rollbacks"] = self.rollbacks
        rec["workers"] = {w: dict(p) for w, p in self.worker_phases.items()}
        return rec

    def to_json(self, **dumps_kwargs) -> str:
        """Serialize to a JSON object string (see :meth:`from_json`)."""
        return json.dumps(self.as_record(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "StepTimings":
        """Rebuild from :meth:`to_json` output (derived fields, and the
        ``autotune`` list, data-movement block, ``fused`` phase and
        ``loop_paths`` counts older records carry, ignored)."""
        rec = json.loads(text)
        return cls(
            update_v=rec["update_v"],
            update_x=rec["update_x"],
            accumulate=rec["accumulate"],
            sort=rec["sort"],
            solve=rec["solve"],
            steps=int(rec.get("steps", 0)),
            particle_steps=int(rec.get("particle_steps", 0)),
            fallbacks=int(rec.get("fallbacks", 0)),
            rollbacks=int(rec.get("rollbacks", 0)),
            worker_phases=rec.get("workers", {}),
        )


@dataclass
class Instrumentation:
    """Recorder the steppers drive around each kernel phase.

    One :meth:`step` context per time step, one :meth:`phase` context
    per kernel call inside it (a phase entered more than once sums
    into the step's record).  Keeps the cumulative
    :class:`StepTimings` plus one record per step for time-series
    inspection.
    """

    timings: StepTimings = field(default_factory=StepTimings)
    #: one ``{"step": i, "particles": n, "<phase>": seconds...}`` per step
    per_step: list[dict] = field(default_factory=list)
    #: machine-readable run-supervisor report (checkpoints, rollbacks,
    #: degradations) attached by ``SupervisedRun``; ``None`` for
    #: unsupervised runs and omitted from :meth:`as_record` while unset
    supervisor: dict | None = None
    #: machine-readable job-engine context (job id, priority,
    #: preemptions, segment count, queue wait) attached by
    #: :class:`repro.service.JobEngine` to each job's ledger; ``None``
    #: outside the engine and omitted from :meth:`as_record` while unset
    engine: dict | None = None

    def __post_init__(self):
        self._current: dict | None = None

    # ------------------------------------------------------------------
    @contextmanager
    def step(self, n_particles: int):
        """Context for one time step advancing ``n_particles``."""
        current = {"step": self.timings.steps, "particles": int(n_particles)}
        current.update({p: 0.0 for p in PHASES})
        current["fallbacks"] = 0
        self._current = current
        try:
            yield self
        finally:
            self._current = None
            self.timings.steps += 1
            self.timings.particle_steps += int(n_particles)
            self.per_step.append(current)

    @contextmanager
    def phase(self, name: str):
        """Time one kernel phase on the monotonic clock."""
        if name not in PHASES:
            raise KeyError(f"unknown phase {name!r}; expected one of {PHASES}")
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.record_phase(name, time.perf_counter() - t0)

    def record_phase(self, name: str, seconds: float) -> None:
        """Book ``seconds`` to phase ``name`` (what :meth:`phase` does
        with the time it measures; a pass that runs two phases at once
        books each its share)."""
        if name not in PHASES:
            raise KeyError(f"unknown phase {name!r}; expected one of {PHASES}")
        setattr(self.timings, name, getattr(self.timings, name) + seconds)
        if self._current is not None:
            self._current[name] += seconds

    def record_fallback(self, count: int = 1) -> None:
        """Count serial-retry events (numpy-mp worker crash/timeout)."""
        self.timings.fallbacks += int(count)
        if self._current is not None:
            self._current["fallbacks"] += int(count)

    def record_worker_phase(self, worker: str, phase: str, seconds: float) -> None:
        """Accumulate one worker's wall-clock share of a kernel phase."""
        if phase not in PHASES:
            raise KeyError(f"unknown phase {phase!r}; expected one of {PHASES}")
        per = self.timings.worker_phases.setdefault(
            worker, {p: 0.0 for p in PHASES}
        )
        per[phase] += float(seconds)

    # ------------------------------------------------------------------
    @property
    def last_step(self) -> dict | None:
        """The most recent completed per-step record (None before step 1)."""
        return self.per_step[-1] if self.per_step else None

    def record_rollback(self, count: int = 1) -> None:
        """Count supervisor rollback events (checkpoint restores)."""
        self.timings.rollbacks += int(count)

    def as_record(self) -> dict:
        """Cumulative timings plus the per-step series, one JSON object.

        Supervised runs additionally carry the supervisor's run report
        under the ``"supervisor"`` key; engine-managed jobs carry their
        scheduling context under ``"engine"``.
        """
        rec = {
            "cumulative": self.timings.as_record(),
            "per_step": list(self.per_step),
        }
        if self.supervisor is not None:
            rec["supervisor"] = dict(self.supervisor)
        if self.engine is not None:
            rec["engine"] = dict(self.engine)
        return rec

    def to_json(self, **dumps_kwargs) -> str:
        return json.dumps(self.as_record(), **dumps_kwargs)
