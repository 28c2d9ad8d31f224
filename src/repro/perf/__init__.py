"""Measured performance of a real run — the clocks, not the model.

* :mod:`~repro.perf.instrument` — per-phase wall-clock
  instrumentation the steppers drive (``--timings-json``, the
  wall-clock benchmarks, the ledger).

The paper-machine *predictions* (cache simulator, cost model,
bandwidth curve) live in :mod:`repro.model`; nothing here imports it.
"""

from repro.perf.instrument import Instrumentation, StepTimings

__all__ = ["Instrumentation", "StepTimings"]
