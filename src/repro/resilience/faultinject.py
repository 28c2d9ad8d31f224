"""Deterministic, seeded fault injection for tests and chaos runs.

The supervisor's recovery paths (rollback, backend degradation, torn-
checkpoint skipping) are only trustworthy if they are *exercised*, so
this module provides reproducible ways to break a running simulation:

* :meth:`FaultInjector.add_nan` — poison a particle attribute with NaN
  at a chosen step (indices drawn from a seeded RNG, so two runs with
  the same seed corrupt the same particles);
* :meth:`FaultInjector.add_kernel_raise` — make a chosen kernel raise
  :class:`InjectedKernelError`, optionally only while a given backend
  is active (a persistent fault that degradation "fixes");
* :meth:`FaultInjector.add_worker_kill` — SIGKILL one ``numpy-mp``
  worker mid-run (exercises the pool's respawn + serial-retry path);
* :meth:`FaultInjector.add_engine_death` — SIGKILL the *whole serving
  process* just before a chosen step (the service-level crash the
  durable journal and spool leases exist to survive; used by
  ``tools/chaos_service.py`` and the recovery tests);
* :func:`lease_clock_skew` — a context manager that skews the spool's
  lease clock by a chosen number of seconds, so stale-lease reclaim
  can be exercised without sleeping through a real TTL;
* :func:`truncate_file` — tear a checkpoint archive on disk.

The injector is driven by :class:`~repro.resilience.supervisor.
SupervisedRun`, which calls :meth:`FaultInjector.before_step` with the
stepper and the index of the step about to execute.  One-shot faults
(``once=True``, the default for NaN/kill) fire exactly once per
injector even across rollback re-execution — the model of a transient
fault; backend-gated kernel faults persist until the supervisor
degrades past the gated backend — the model of a deterministically
broken engine.

This module is test/benchmark machinery only: nothing in the engine
imports it, and an injector is only active where one is passed in
explicitly.
"""

from __future__ import annotations

import contextlib
import logging
import os
import signal
from dataclasses import dataclass, field

import numpy as np

from repro.core.backends import KernelBackend

__all__ = [
    "Fault",
    "FaultInjector",
    "InjectedKernelError",
    "lease_clock_skew",
    "truncate_file",
]

logger = logging.getLogger("repro.resilience")


class InjectedKernelError(RuntimeError):
    """Raised by an injected kernel fault (never by real kernels)."""


@dataclass
class Fault:
    """One scheduled fault.

    ``kind`` is ``"nan"``, ``"kernel_raise"``, ``"worker_kill"`` or
    ``"engine_death"``; the remaining fields apply per kind (see the
    ``add_*`` helpers).
    ``fired`` counts activations, so ``once`` faults stay spent across
    rollback re-execution of their step.
    """

    kind: str
    step: int
    array: str = "vx"
    count: int = 4
    kernel: str = "accumulate_rows"
    backend: str | None = None
    worker: int = 0
    once: bool = True
    fired: int = field(default=0, compare=False)


class _KernelTrap:
    """Backend proxy that raises for the trapped kernel names.

    Delegates every other attribute to the real backend, so stepper
    bookkeeping (``backend.name``, lifecycle hooks, untouched kernels)
    is unaffected.  Installed/removed per step by the injector.
    """

    def __init__(self, inner, faults):
        self._inner = inner
        self._faults = {f.kernel: f for f in faults}
        # update-v is the gather and the kick in one call, and advance
        # update-v and the push in one: a trap on a part fires on the
        # whole too
        for whole, parts in (("update_v", ("interpolate_rows", "kick")),
                             ("advance", ("update_v", "push"))):
            for part in parts:
                if part in self._faults:
                    self._faults.setdefault(whole, self._faults[part])

    def __getattr__(self, name):
        fault = self._faults.get(name)
        if fault is None:
            return getattr(self._inner, name)

        def _raise(*_args, **_kwargs):
            fault.fired += 1
            raise InjectedKernelError(
                f"injected fault in kernel {name!r} "
                f"(backend {self._inner.name!r}, firing #{fault.fired})"
            )

        return _raise


class FaultInjector:
    """A seeded plan of faults applied between/inside steps.

    ``seed`` determinises everything random (which particles a NaN
    poisoning hits); the step schedule itself is explicit.  The
    injector is reusable across rollbacks of the same run — spent
    one-shot faults do not re-fire — but not across runs; build a new
    injector per run.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.faults: list[Fault] = []
        #: log of fired faults: ``(step, kind, detail)`` tuples
        self.log: list[tuple[int, str, str]] = []

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    def add_nan(self, step: int, array: str = "vx", count: int = 4,
                once: bool = True) -> "FaultInjector":
        """Poison ``count`` entries of ``particles.<array>`` with NaN
        just before ``step`` executes."""
        self.faults.append(Fault("nan", int(step), array=array,
                                 count=int(count), once=once))
        return self

    def add_kernel_raise(self, step: int, kernel: str = "accumulate_rows",
                         backend: str | None = None,
                         once: bool = False) -> "FaultInjector":
        """Make ``backend.<kernel>`` raise from ``step`` onwards.

        ``kernel`` is the name the stepper fetches from its backend:
        one of :class:`~repro.core.backends.KernelBackend`'s abstract
        kernels (anything else would never fire, so it is a
        ``ValueError`` here).  With ``backend`` set, the fault only
        arms while that backend is
        active — a deterministic engine fault that goes away once the
        supervisor degrades to the next backend in the chain.  With
        ``once=True`` the first raise disarms it (a transient glitch).
        """
        if kernel not in KernelBackend.__abstractmethods__:
            raise ValueError(
                f"cannot trap {kernel!r}: the steppers call "
                f"{sorted(KernelBackend.__abstractmethods__)}"
            )
        self.faults.append(Fault("kernel_raise", int(step), kernel=kernel,
                                 backend=backend, once=once))
        return self

    def add_worker_kill(self, step: int, worker: int = 0,
                        once: bool = True) -> "FaultInjector":
        """SIGKILL ``numpy-mp`` worker ``worker`` just before ``step``.

        A no-op for in-process backends (logged as skipped) — the fault
        models an OS-level crash only the multiprocess engine has."""
        self.faults.append(Fault("worker_kill", int(step), worker=int(worker),
                                 once=once))
        return self

    def add_engine_death(self, step: int, once: bool = True) -> "FaultInjector":
        """SIGKILL the *current process* just before ``step`` executes.

        The service-level crash model: not a worker, not a kernel —
        the serving engine itself dies without any chance to park,
        flush or clean up.  Nothing downstream of the kill runs, so
        this is only meaningful in a sacrificial subprocess (the chaos
        harness and the recovery tests spawn one); the durable journal
        and spool leases are what make the aftermath recoverable.
        """
        self.faults.append(Fault("engine_death", int(step), once=once))
        return self

    # ------------------------------------------------------------------
    # Execution (driven by the supervisor)
    # ------------------------------------------------------------------
    def before_step(self, stepper, step: int) -> None:
        """Apply every fault due at ``step``; manage kernel traps."""
        real = self._real_backend(stepper)
        for f in self.faults:
            if f.kind == "nan" and self._due(f, step):
                self._poison(stepper, f)
            elif f.kind == "worker_kill" and self._due(f, step):
                self._kill_worker(stepper, real, f)
            elif f.kind == "engine_death" and self._due(f, step):
                f.fired += 1
                self.log.append((step, "engine_death", "SIGKILL self"))
                logger.warning("injected engine death at step %d "
                               "(SIGKILL pid %d)", step, os.getpid())
                os.kill(os.getpid(), signal.SIGKILL)
        # (re)install or remove the kernel trap to match what is armed
        armed = [
            f for f in self.faults
            if f.kind == "kernel_raise"
            and step >= f.step
            and not (f.once and f.fired)
            and (f.backend is None or f.backend == real.name)
        ]
        stepper.backend = _KernelTrap(real, armed) if armed else real

    # ------------------------------------------------------------------
    def _due(self, fault: Fault, step: int) -> bool:
        return step == fault.step and not (fault.once and fault.fired)

    @staticmethod
    def _real_backend(stepper):
        backend = stepper.backend
        return backend._inner if isinstance(backend, _KernelTrap) else backend

    def _poison(self, stepper, fault: Fault) -> None:
        arr = np.asarray(getattr(stepper.particles, fault.array))
        if arr.size == 0:  # pragma: no cover - nothing to poison
            return
        # seed per (injector, step, array): reproducible regardless of
        # how many times other faults fired first
        rng = np.random.default_rng(
            (self.seed, fault.step, hash(fault.array) & 0xFFFF)
        )
        idx = rng.choice(arr.size, size=min(fault.count, arr.size),
                         replace=False)
        arr[idx] = np.nan
        fault.fired += 1
        self.log.append(
            (fault.step, "nan",
             f"{fault.array}[{np.sort(idx).tolist()}] <- nan")
        )

    def _kill_worker(self, stepper, backend, fault: Fault) -> None:
        engine = None
        engine_for = getattr(backend, "engine_for", None)
        if engine_for is not None:
            engine = engine_for(stepper)
        if engine is None:
            self.log.append((fault.step, "worker_kill",
                             "skipped: no numpy-mp engine"))
            return
        fault.fired += 1
        engine.pool.kill_worker(fault.worker)
        self.log.append((fault.step, "worker_kill",
                         f"killed worker {fault.worker}"))


@contextlib.contextmanager
def lease_clock_skew(seconds: float):
    """Skew the spool's lease clock by ``seconds`` inside the block.

    Positive skew makes this process's lease reads/writes see a clock
    that far in the *future* — so leases written by an unskewed writer
    look that many seconds staler than they are, which is exactly the
    fault model of a fleet with drifting wall clocks.  The recovery
    tests use it to exercise ``reclaim_stale`` without sleeping
    through a real ``--lease-ttl``.
    """
    from repro.service import spool

    previous = spool._CLOCK_SKEW
    spool._CLOCK_SKEW = previous + float(seconds)
    try:
        yield
    finally:
        spool._CLOCK_SKEW = previous


def truncate_file(path, keep_bytes: int | None = None,
                  fraction: float = 0.5) -> int:
    """Tear a file to its first ``keep_bytes`` (or ``fraction`` of its
    size) — a torn-checkpoint simulator.  Returns the new size."""
    size = os.path.getsize(path)
    keep = int(size * fraction) if keep_bytes is None else int(keep_bytes)
    keep = max(0, min(keep, size))
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    return keep
