"""Resilience layer: invariant guards, supervised runs, fault injection.

Long runs fail — a NaN in the phase space, a kernel bug surfaced by an
edge case, a worker process killed by the OS.  This package turns those
from run-killers into bounded detours:

* :mod:`repro.resilience.guards` — cheap read-only invariant checks
  (finite state, cell bounds, charge conservation, energy drift);
* :mod:`repro.resilience.supervisor` — :class:`SupervisedRun`, which
  checkpoints on a rotation, rolls back and retries on failure, and
  degrades the kernel backend (``c`` → ``numpy``, ``numpy-mp`` → ``numpy``)
  when retries don't help;
* :mod:`repro.resilience.faultinject` — a deterministic, seeded fault
  injector used by the chaos tests to prove the above actually works.

The engine never imports this package; supervision is strictly opt-in
(the CLI's ``--supervise``), and an unsupervised run pays nothing.
"""

from repro.resilience.faultinject import (
    FaultInjector,
    InjectedKernelError,
    lease_clock_skew,
    truncate_file,
)
from repro.resilience.guards import (
    DEFAULT_GUARD_SPEC,
    GuardSuite,
    GuardViolation,
)
from repro.resilience.supervisor import (
    CheckpointRotation,
    DeadlineExceededError,
    GuardTrippedError,
    RunReport,
    SupervisedRun,
    SupervisionError,
)

__all__ = [
    "DEFAULT_GUARD_SPEC",
    "GuardSuite",
    "GuardViolation",
    "GuardTrippedError",
    "CheckpointRotation",
    "RunReport",
    "SupervisedRun",
    "SupervisionError",
    "DeadlineExceededError",
    "FaultInjector",
    "InjectedKernelError",
    "lease_clock_skew",
    "truncate_file",
]
