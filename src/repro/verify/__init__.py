"""Differential verification: equivalence fuzzing, oracles, goldens.

The paper's central claim is that every layout / ordering /
parallelization choice in §IV–§V is a *pure performance transform*:
the physics trajectory is unchanged.  This subpackage turns that claim
into an enforced contract with three layers:

* :mod:`repro.verify.configspace` — a seeded sampler over the
  optimization-config space (grid size, particle count, ordering,
  layout, sort cadence, backend knobs), so
  equivalence is checked across *random* corners of the space rather
  than the handful a human picked;
* :mod:`repro.verify.differ` — the :class:`DifferentialRunner`, which
  executes one sampled scenario on every available backend/worker-count
  combination in lockstep and holds each pair to the repo's **promise
  matrix** (bitwise where the codebase promises bit-identity,
  tolerance-bounded elsewhere), attributing any divergence to the
  first step, kernel phase and array that produced it via the
  stepper's ``phase_hook``;
* :mod:`repro.verify.oracles` + :mod:`repro.verify.golden` — physics
  acceptance oracles (Landau damping and two-stream rates vs linear
  theory, energy drift, momentum conservation) and committed
  golden-run digests gating ``make check`` against silent numerical
  regressions of the reference path.

``docs/verification.md`` documents the promise matrix and the golden
regeneration workflow; the ``repro verify`` CLI subcommand is the
front door.
"""

from repro.verify.configspace import Scenario, ScenarioSampler
from repro.verify.differ import (
    Combo,
    DifferentialRunner,
    Divergence,
    PairResult,
    Perturbation,
    ScenarioReport,
)
from repro.verify.golden import (
    GoldenCheckResult,
    check_golden,
    generate_golden,
    golden_cases,
    load_golden,
)
from repro.verify.oracles import OracleResult, run_all_oracles

__all__ = [
    "Scenario",
    "ScenarioSampler",
    "Combo",
    "DifferentialRunner",
    "Divergence",
    "PairResult",
    "Perturbation",
    "ScenarioReport",
    "OracleResult",
    "run_all_oracles",
    "GoldenCheckResult",
    "check_golden",
    "generate_golden",
    "golden_cases",
    "load_golden",
]
