"""The run supervisor: checkpoint rotation, rollback, degradation.

:class:`SupervisedRun` wraps a :class:`~repro.core.simulation.Simulation`
and drives it step by step exactly as ``Simulation.run`` would — same
``sim.step()`` call, so a fault-free supervised run is **bitwise
identical** to an unsupervised one — while adding, between steps:

1. **guards** (:mod:`repro.resilience.guards`): read-only invariant
   checks; a violation is treated like any other step failure;
2. **checkpoints**: every ``checkpoint_every`` steps the full stepper
   state is written atomically
   (:func:`~repro.core.checkpoint.save_checkpoint`) into a rotation
   that keeps the newest ``keep_checkpoints`` archives;
3. **recovery**: when a step raises or a guard trips, the run rolls
   back to the newest *loadable and clean* checkpoint (torn archives
   are discarded, restored state is re-guarded) and retries, with
   optional exponential backoff (``backoff_base · 2**(k−1)`` seconds
   before the k-th retry, capped at :data:`MAX_BACKOFF_S`); after
   ``max_retries`` consecutive failures without progress the kernel
   backend is **degraded** along
   :func:`~repro.core.backends.degradation_chain` (``c`` → ``numpy``,
   ``numpy-mp`` → ``numpy``) — all backends produce identical physics,
   so a degraded run is slower, never wrong.

Everything that happened is recorded in a machine-readable
:class:`RunReport`, which is also merged into the run's
instrumentation (the ``"supervisor"`` key of ``--timings-json``).

Usage::

    sim = Simulation(grid, case, n, config)
    with SupervisedRun(sim, checkpoint_every=50, guards="default") as sup:
        history = sup.run(1000)
        print(sup.report.as_dict())
"""

from __future__ import annotations

import logging
import pathlib
import re
import tempfile
import time
from dataclasses import dataclass, field

from repro.core.backends import degradation_chain
from repro.core.checkpoint import (
    CheckpointMismatchError,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.guards import GuardSuite, GuardViolation

logger = logging.getLogger("repro.resilience")

#: retry backoff: the k-th consecutive retry sleeps
#: ``backoff_base * BACKOFF_FACTOR**(k-1)`` seconds, at most MAX_BACKOFF_S
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_S = 30.0

__all__ = [
    "SupervisedRun",
    "RunReport",
    "SupervisionError",
    "DeadlineExceededError",
    "GuardTrippedError",
    "CheckpointRotation",
]


class SupervisionError(RuntimeError):
    """The supervisor ran out of options: retries and degradation are
    exhausted, or no usable checkpoint is left to roll back to.  The
    :attr:`report` attribute carries the run report up to the point of
    giving up."""

    def __init__(self, message: str, report: "RunReport | None" = None):
        super().__init__(message)
        self.report = report


class DeadlineExceededError(SupervisionError):
    """The run's wall-clock deadline elapsed.  Enforced cooperatively
    at step boundaries in :meth:`SupervisedRun.run`, so state is fully
    consistent when it surfaces; the engine settles such a job FAILED
    with a ``deadline`` reason instead of retrying it forever."""


class GuardTrippedError(RuntimeError):
    """An invariant guard reported violations after a step.  Raised
    inside the supervised loop and handled like any step failure; the
    :attr:`violations` list holds the structured findings."""

    def __init__(self, violations: list[GuardViolation]):
        names = ", ".join(v.guard for v in violations)
        detail = "; ".join(v.message for v in violations)
        super().__init__(f"guard(s) [{names}] tripped: {detail}")
        self.violations = violations


@dataclass
class RunReport:
    """What the supervisor did, machine-readable.

    ``failures`` holds one entry per caught step failure (exception
    type, message, step, and guard violations when applicable);
    ``degradations`` one entry per backend switch.  ``recoveries``
    counts failures the run survived; a run that completes has
    ``recoveries == len(failures)``.
    """

    rollbacks: int = 0
    recoveries: int = 0
    checkpoints_written: int = 0
    checkpoints_discarded: int = 0
    #: total seconds slept in retry backoff (0.0 unless backoff_base>0)
    backoff_seconds: float = 0.0
    failures: list[dict] = field(default_factory=list)
    degradations: list[dict] = field(default_factory=list)
    backend_history: list[str] = field(default_factory=list)
    guards: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "rollbacks": self.rollbacks,
            "recoveries": self.recoveries,
            "checkpoints_written": self.checkpoints_written,
            "checkpoints_discarded": self.checkpoints_discarded,
            "backoff_seconds": self.backoff_seconds,
            "failures": [dict(f) for f in self.failures],
            "degradations": [dict(d) for d in self.degradations],
            "backend_history": list(self.backend_history),
            "guards": list(self.guards),
        }


_CKPT_RE = re.compile(r"^ckpt-(\d{8})\.npz$")


class CheckpointRotation:
    """A directory of ``ckpt-<iteration>.npz`` archives, newest-first.

    Writing prunes down to the ``keep`` newest; reading enumerates the
    survivors in descending iteration order so the supervisor tries the
    most recent state first and falls back through older ones.
    """

    def __init__(self, directory, keep: int = 3):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)

    def path_for(self, iteration: int) -> pathlib.Path:
        return self.directory / f"ckpt-{int(iteration):08d}.npz"

    def existing(self) -> list[pathlib.Path]:
        """Rotation members, newest (highest iteration) first."""
        found = [
            (int(m.group(1)), p)
            for p in self.directory.iterdir()
            if (m := _CKPT_RE.match(p.name))
        ]
        return [p for _i, p in sorted(found, reverse=True)]

    def save(self, stepper) -> pathlib.Path:
        path = save_checkpoint(stepper, self.path_for(stepper.iteration))
        for old in self.existing()[self.keep:]:
            self.discard(old)
        return path

    def discard(self, path) -> None:
        pathlib.Path(path).unlink(missing_ok=True)


class SupervisedRun:
    """Drive a :class:`~repro.core.simulation.Simulation` with guards,
    checkpoint rotation, rollback-and-retry, and backend degradation.

    Parameters
    ----------
    sim:
        The simulation to supervise.  The supervisor takes ownership:
        :meth:`close` (and ``with``-exit) closes it.
    checkpoint_dir:
        Where the rotation lives.  ``None`` (default) uses a private
        temporary directory removed on :meth:`close`; pass a path to
        keep the final rotation around for manual restarts.
    checkpoint_every:
        Steps between checkpoints.  The rollback granularity: a fault
        costs at most this many re-run steps (plus the failed one).
    keep_checkpoints:
        Rotation depth — how many archives survive pruning.
    guards:
        A :class:`~repro.resilience.guards.GuardSuite` or a spec string
        for :meth:`GuardSuite.from_spec` (``"default"``, ``"none"``,
        ``"finite,charge:1e-6"``, ...), run after every step.
    max_retries:
        Consecutive recoveries without a fresh checkpoint before the
        backend is degraded one link down the chain; with the chain
        exhausted the run fails with :class:`SupervisionError`.
    backoff_base:
        Sleep ``min(base * 2**(attempt-1), MAX_BACKOFF_S)`` seconds
        before each retry; the default base of 0 disables sleeping
        (faults here are deterministic, not contention).
    deadline_s:
        Optional wall-clock budget in seconds.  Checked cooperatively
        before every step of :meth:`run`; when
        ``elapsed_offset + time-in-this-run`` exceeds it the run stops
        at the step boundary with :class:`DeadlineExceededError` (the
        report is published first).  ``None`` disables the deadline.
    elapsed_offset:
        Wall-clock seconds already spent on this workload *before*
        this supervisor started — how the job engine makes a deadline
        span preemption segments (it passes the job's accumulated
        ``run_seconds``).
    on_checkpoint:
        Optional ``callback(path, iteration)`` fired after every
        checkpoint write (cadence and :meth:`park` alike).  The job
        engine uses it to persist a diagnostic-history sidecar next to
        the rotation; callback exceptions are swallowed with a log
        line, never failing the run.
    injector:
        Optional :class:`~repro.resilience.faultinject.FaultInjector`
        whose ``before_step`` hook is invoked ahead of every step.
    """

    def __init__(
        self,
        sim,
        *,
        checkpoint_dir=None,
        checkpoint_every: int = 50,
        keep_checkpoints: int = 3,
        guards: GuardSuite | str = "default",
        max_retries: int = 3,
        backoff_base: float = 0.0,
        deadline_s: float | None = None,
        elapsed_offset: float = 0.0,
        on_checkpoint=None,
        injector=None,
    ):
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        self.sim = sim
        self._tmpdir = None
        if checkpoint_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
            checkpoint_dir = self._tmpdir.name
        self.rotation = CheckpointRotation(checkpoint_dir, keep_checkpoints)
        self.checkpoint_every = int(checkpoint_every)
        if isinstance(guards, str):
            guards = GuardSuite.from_spec(guards)
        self.guards = guards
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.deadline_s = None if deadline_s is None else float(deadline_s)
        self.elapsed_offset = float(elapsed_offset)
        self.on_checkpoint = on_checkpoint
        self.injector = injector
        # the degradation chain is anchored at the *resolved* backend
        # actually running, not the config string (which may be "auto")
        self._chain = degradation_chain(sim.config.backend)
        self._chain_pos = 0
        self._attempts = 0
        self.report = RunReport(guards=self.guards.names)
        self.report.backend_history.append(self.backend_name)
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def backend_name(self) -> str:
        """The (possibly degraded) backend the run is currently on."""
        return self._chain[self._chain_pos]

    @property
    def instrumentation(self):
        return self.sim.instrumentation

    def timings_json(self, **dumps_kwargs) -> str:
        """The simulation's timings JSON, run report included."""
        self._publish_report()
        return self.sim.timings_json(**dumps_kwargs)

    def _publish_report(self) -> None:
        self.instrumentation.supervisor = self.report.as_dict()

    # ------------------------------------------------------------------
    def run(self, n_steps: int, *, should_yield=None):
        """Advance ``n_steps`` (counted in *completed* simulation steps
        — rolled-back work is re-run, not double-counted) and return
        the simulation history.

        ``should_yield`` is an optional zero-argument callable polled
        before every step; when it returns true the run stops cleanly
        at the current iteration boundary (state fully consistent,
        report published) and ``run`` returns early.  The job engine
        (:mod:`repro.service`) uses this for cooperative preemption and
        cancellation: yield, then :meth:`park` the exact state, then
        resume later from the parked checkpoint.
        """
        stepper = self.sim.stepper
        target = stepper.iteration + int(n_steps)
        run_started = time.monotonic()
        if not self.rotation.existing():
            self._checkpoint()
        while self.sim.stepper.iteration < target:
            if should_yield is not None and should_yield():
                break
            if self.deadline_s is not None:
                elapsed = self.elapsed_offset + (time.monotonic() - run_started)
                if elapsed > self.deadline_s:
                    self._publish_report()
                    raise DeadlineExceededError(
                        f"wall-clock deadline of {self.deadline_s:g}s "
                        f"exceeded after {elapsed:.3f}s at iteration "
                        f"{self.sim.stepper.iteration}", self.report)
            stepper = self.sim.stepper
            step_index = stepper.iteration
            try:
                if self.injector is not None:
                    self.injector.before_step(stepper, step_index)
                self.sim.step()
                violations = self.guards.check(
                    self.sim.stepper, self.sim.history,
                    self.sim.stepper.iteration,
                )
                if violations:
                    raise GuardTrippedError(violations)
            except (KeyboardInterrupt, SystemExit):
                raise
            except SupervisionError:
                raise
            except Exception as exc:
                self._recover(exc, step_index)
                continue
            it = self.sim.stepper.iteration
            if it % self.checkpoint_every == 0 and it < target:
                self._checkpoint()
        self._publish_report()
        return self.sim.history

    def park(self) -> pathlib.Path:
        """Checkpoint the *current* iteration into the rotation.

        Unlike the cadence checkpoints :meth:`run` writes every
        ``checkpoint_every`` steps, this captures the state exactly
        where the run stopped — the preemption primitive: after a
        ``should_yield`` early return, ``park()`` then :meth:`close`
        leaves a rotation whose newest entry resumes the run
        bit-exactly (checkpoint save/restore round-trips every array
        verbatim).  Returns the path written.  Counted in the report
        like any other checkpoint.
        """
        path = self.rotation.path_for(self.sim.stepper.iteration)
        if not path.exists():
            self._checkpoint()
        return path

    # ------------------------------------------------------------------
    def _checkpoint(self) -> None:
        path = self.rotation.save(self.sim.stepper)
        self.report.checkpoints_written += 1
        # a fresh checkpoint is proof of progress: the retry budget
        # resets, so only *consecutive* failures trigger degradation
        self._attempts = 0
        if self.on_checkpoint is not None:
            try:
                self.on_checkpoint(path, self.sim.stepper.iteration)
            except Exception:
                # a sidecar/observer failure must never fail the run
                logger.exception("on_checkpoint callback failed for %s", path)

    def _recover(self, exc: Exception, step_index: int) -> None:
        failure = {
            "step": step_index,
            "error": type(exc).__name__,
            "message": str(exc),
            "backend": self.backend_name,
        }
        if isinstance(exc, GuardTrippedError):
            failure["violations"] = [v.as_dict() for v in exc.violations]
        self.report.failures.append(failure)
        self._attempts += 1
        if self._attempts > self.max_retries:
            self._degrade(exc)
        elif self.backoff_base > 0.0:
            pause = min(
                self.backoff_base * BACKOFF_FACTOR ** (self._attempts - 1),
                MAX_BACKOFF_S,
            )
            self.report.backoff_seconds += pause
            time.sleep(pause)
        self._rollback()
        self.report.recoveries += 1
        self._publish_report()

    def _degrade(self, exc: Exception) -> None:
        if self._chain_pos + 1 >= len(self._chain):
            self._publish_report()
            raise SupervisionError(
                f"giving up after {self._attempts - 1} retries on backend "
                f"{self.backend_name!r} (degradation exhausted): {exc}",
                self.report,
            ) from exc
        old = self.backend_name
        self._chain_pos += 1
        self._attempts = 0
        self.report.degradations.append({
            "step": self.sim.stepper.iteration,
            "from": old,
            "to": self.backend_name,
        })
        self.report.backend_history.append(self.backend_name)

    def _rollback(self) -> None:
        """Restore the newest loadable *and clean* checkpoint.

        Torn/corrupt archives (:class:`CheckpointMismatchError`) and
        restored states that immediately trip a guard (the first
        checkpoint of a run is written before any guard has seen its
        state) are discarded and the next older archive is tried.
        """
        cfg = self.sim.config.with_(backend=self.backend_name)
        for path in self.rotation.existing():
            try:
                stepper = load_checkpoint(
                    path, cfg, instrumentation=self.instrumentation,
                )
            except CheckpointMismatchError:
                self.rotation.discard(path)
                self.report.checkpoints_discarded += 1
                continue
            bad = self.guards.check(stepper, None, stepper.iteration)
            if bad:
                stepper.close()
                self.rotation.discard(path)
                self.report.checkpoints_discarded += 1
                continue
            old = self.sim.stepper
            self.sim.stepper = stepper
            self.sim.config = cfg
            old.close()
            self.sim.history.truncate(stepper.iteration + 1)
            self.instrumentation.record_rollback()
            self.report.rollbacks += 1
            return
        self._publish_report()
        raise SupervisionError(
            "rollback impossible: no usable checkpoint remains", self.report,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release everything: the simulation's backend resources and
        (when the supervisor created it) the temporary checkpoint
        directory.  Idempotent and exception-safe."""
        if self._closed:
            return
        self._closed = True
        self._publish_report()
        try:
            self.sim.close()
        finally:
            if self._tmpdir is not None:
                self._tmpdir.cleanup()
                self._tmpdir = None

    def __enter__(self) -> "SupervisedRun":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
