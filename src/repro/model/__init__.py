"""The paper-model testbed: a *simulated* machine, never part of a run.

The paper's evaluation is about hardware effects — cache misses
(perf/PAPI counters), SIMD speedups, memory-channel saturation, MPI and
OpenMP scaling on Curie.  This package reproduces those observables on
explicit models so Tables II–VII and Figs. 5–9 can be regenerated on
any host:

* :mod:`~repro.model.config` — :class:`~repro.model.config.ModelConfig`,
  the run config plus the layout axes of the paper's baselines
  (point-based fields, AoS particles, the single loop), and the
  cumulative Table IV stack.
* :mod:`~repro.model.machine` — machine descriptions (cache geometry,
  SIMD width, operation costs), with Haswell- and SandyBridge-like
  presets and a documented down-scaling rule.
* :mod:`~repro.model.cache` — a multi-level set-associative LRU cache
  simulator fed with exact address traces.
* :mod:`~repro.model.trace` — address-trace generators for every PIC
  loop x data-layout x ordering combination, built from real particle
  states.
* :mod:`~repro.model.experiments` — drives a scaled-down simulation
  through the simulator (Figs. 5/6, Table II).
* :mod:`~repro.model.costmodel` — a per-loop timing model: an
  instruction/SIMD term per code variant plus a stall term from the
  cache simulator; the model-side sort-period tuner and the
  ``repro calibrate`` fit query it.
* :mod:`~repro.model.bandwidth` — STREAM-triad-calibrated
  channel-saturation bandwidth curve and roofline helpers.
* :mod:`~repro.model.mpi` — a LogP-style price of §V-A's per-step
  charge-density allreduce.
* :mod:`~repro.model.openmp` — the roofline thread-scaling model
  (compute/p vs traffic/BW(p)) of §V-B.
* :mod:`~repro.model.scaling` — the weak/strong scaling series of
  Figs. 7/9 and Tables VI/VII.
* :mod:`~repro.model.domain_decomp` — the domain-decomposition
  alternative the paper argues against, priced on the same model.

The model prices parallel execution and never performs it: §V's
decomposition (fixed particle shares, a whole grid per worker, one ρ
reduction per step) runs for real in the ``numpy-mp`` engine
(:mod:`repro.parallel`), and no module here imports ``threading``,
``queue``, ``multiprocessing`` or ``concurrent``
(``tools/check_imports.py``).

The dependency is one-way: the model imports the engine
(``repro.core``, ``repro.particles``, …); nothing under
``src/repro/`` outside this package and ``cli.py`` imports the model
(``tools/check_imports.py``), so a run, a worker process and a
``repro serve`` process never load it.  Import the submodule you need;
the package itself imports nothing.
"""
