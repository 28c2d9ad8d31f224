"""Measured performance of a real run — the clocks, not the model.

* :mod:`~repro.perf.instrument` — per-phase wall-clock
  instrumentation the steppers drive (``--timings-json``, the
  wall-clock benchmarks, the ledger).
* :mod:`~repro.perf.datamove` — the measured data-movement ledger of
  the ``numpy-mp`` deposit and :mod:`resource` counter snapshots.

The paper-machine *predictions* (cache simulator, cost model,
bandwidth curve) live in :mod:`repro.model`; nothing here imports it.
"""

from repro.perf.datamove import deposit_movement, rusage_sample
from repro.perf.instrument import Instrumentation, StepTimings

__all__ = [
    "Instrumentation",
    "StepTimings",
    "deposit_movement",
    "rusage_sample",
]
