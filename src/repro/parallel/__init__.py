"""Parallel substrate: simulated MPI, simulated OpenMP, scaling models.

The paper parallelizes *without domain decomposition*: every MPI rank
owns a fixed subset of particles and the whole grid; the only
communication is the ``MPI_ALLREDUCE`` of the charge density (§V-A).
Threads split the particle loops with a per-thread charge reduction
(§V-B).  Both layers are reproduced here:

* :mod:`~repro.parallel.mpi` — an in-process MPI: thread-per-rank
  execution with real collective semantics over numpy buffers, plus a
  LogP-style collective cost model for timing.
* :mod:`~repro.parallel.openmp` — simulated thread team: real
  partitioned execution (private rho copies + deterministic reduction)
  plus the roofline thread-scaling model (compute/p vs traffic/BW(p)).
* :mod:`~repro.parallel.hybrid` — a distributed PIC stepper running on
  the simulated MPI (physics identical to the serial code, which the
  tests assert).
* :mod:`~repro.parallel.scaling` — the weak/strong scaling series of
  Figs. 7/9 and Tables VI/VII.
* :mod:`~repro.parallel.shm` / :mod:`~repro.parallel.executor` — the
  *real* shared-memory engine: particle and field storage in
  ``multiprocessing.shared_memory``, the three particle loops fanned
  out over a persistent worker-process pool, registered as the
  ``"numpy-mp"`` kernel backend (see ``docs/parallelism.md``).
* :mod:`~repro.parallel.partition` — histogram-balanced cell
  partitioning for the parallel deposit (~equal particles per worker
  along the curve + the hysteresis-guarded :class:`PartitionPlanner`).
"""

from repro.parallel.mpi import CollectiveCostModel, SimComm, SimMPI
from repro.parallel.openmp import (
    ThreadScalingModel,
    parallel_accumulate_redundant,
    parallel_accumulate_standard,
)
from repro.parallel.partition import (
    PartitionPlanner,
    balance_ratio,
    partition_cells,
    partition_range,
)
from repro.parallel.domain_decomp import (
    DomainDecompositionModel,
    SchemeComparison,
    compare_schemes,
)
from repro.parallel.hybrid import DistributedPICStepper, run_distributed_landau
from repro.parallel.scaling import (
    ScalingPoint,
    strong_scaling_hybrid,
    strong_scaling_threads,
    weak_scaling_series,
)

# imported last: executor pulls in repro.core.backends (fully loaded by
# the time any of the imports above finish) and registers "numpy-mp"
from repro.parallel.executor import MultiprocessBackend, ShmEngine, WorkerPool
from repro.parallel.shm import SharedArena, SharedGrid, SharedParticleStorage

__all__ = [
    "MultiprocessBackend",
    "ShmEngine",
    "WorkerPool",
    "SharedArena",
    "SharedGrid",
    "SharedParticleStorage",
    "SimMPI",
    "SimComm",
    "CollectiveCostModel",
    "partition_range",
    "partition_cells",
    "balance_ratio",
    "PartitionPlanner",
    "parallel_accumulate_redundant",
    "parallel_accumulate_standard",
    "ThreadScalingModel",
    "DistributedPICStepper",
    "run_distributed_landau",
    "DomainDecompositionModel",
    "SchemeComparison",
    "compare_schemes",
    "ScalingPoint",
    "weak_scaling_series",
    "strong_scaling_hybrid",
    "strong_scaling_threads",
]
