"""The real shared-memory engine behind ``backend="numpy-mp"`` (§V-B).

* :mod:`~repro.parallel.shm` / :mod:`~repro.parallel.executor` —
  particle and field storage in ``multiprocessing.shared_memory``, a
  persistent worker-process pool running the particle loops on
  contiguous slices, per-worker private ``rho`` slabs reduced
  deterministically; registered as the ``"numpy-mp"`` kernel backend.
* :mod:`~repro.parallel.partition` — how the deposit's cells are cut
  (histogram-balanced ranges along the curve + the hysteresis-guarded
  :class:`PartitionPlanner`).

The *simulated* MPI/OpenMP layers and the scaling series that
reproduce Figs. 7/9 and Tables VI/VII live in :mod:`repro.model`;
nothing here imports it.
"""

from repro.parallel.executor import MultiprocessBackend, ShmEngine, WorkerPool
from repro.parallel.partition import (
    PartitionPlanner,
    balance_ratio,
    partition_cells,
    partition_range,
)
from repro.parallel.shm import SharedArena, SharedGrid, SharedParticleStorage

__all__ = [
    "MultiprocessBackend",
    "ShmEngine",
    "WorkerPool",
    "SharedArena",
    "SharedGrid",
    "SharedParticleStorage",
    "partition_range",
    "partition_cells",
    "balance_ratio",
    "PartitionPlanner",
]
