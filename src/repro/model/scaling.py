"""Weak- and strong-scaling series (Figs. 7/9, Table VI).

Combines the single-core cost model, the thread roofline, and the
collective cost model into the execution/communication time series the
paper plots.  The compute side is per-rank (every rank advances its
own particles, thread-parallel inside the rank); the communication
side is ``iters x allreduce(P, grid bytes)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.config import ModelConfig
from repro.model.costmodel import LoopCostModel, LoopKind
from repro.model.machine import MachineSpec
from repro.model.mpi import CollectiveCostModel
from repro.model.openmp import ThreadScalingModel

__all__ = [
    "ScalingPoint",
    "weak_scaling_series",
    "strong_scaling_hybrid",
    "strong_scaling_threads",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a scaling curve."""

    cores: int
    ranks: int
    threads_per_rank: int
    particles_per_rank: int
    exec_seconds: float
    comm_seconds: float

    @property
    def comm_fraction(self) -> float:
        return self.comm_seconds / self.exec_seconds if self.exec_seconds else 0.0


def _iteration_compute_seconds(
    thread_model: ThreadScalingModel,
    config: ModelConfig,
    n_per_rank: int,
    threads: int,
    misses: dict[LoopKind, dict[str, float]] | None,
) -> float:
    return thread_model.iteration_seconds(config, n_per_rank, threads, misses)["total"]


def weak_scaling_series(
    core_counts,
    n_per_core: int,
    grid_bytes: int,
    iters: int,
    machine: MachineSpec | None = None,
    comm_model: CollectiveCostModel | None = None,
    config: ModelConfig | None = None,
    threads_per_rank: int = 1,
    misses: dict[LoopKind, dict[str, float]] | None = None,
) -> list[ScalingPoint]:
    """Fig. 7: fixed particles *per core*, growing core count.

    ``threads_per_rank=1`` is the pure-MPI curve (one rank per core);
    ``threads_per_rank=8`` the hybrid one (one rank per socket on
    Curie).  ``grid_bytes`` is the allreduced message size (the whole
    point-based rho array).
    """
    machine = machine or MachineSpec.sandybridge()
    comm_model = comm_model or CollectiveCostModel()
    config = config or ModelConfig.fully_optimized()
    thread_model = ThreadScalingModel(machine)
    points = []
    for cores in core_counts:
        if cores % threads_per_rank:
            raise ValueError(
                f"core count {cores} not divisible by threads_per_rank={threads_per_rank}"
            )
        ranks = cores // threads_per_rank
        n_rank = n_per_core * threads_per_rank
        compute_iter = _iteration_compute_seconds(
            thread_model, config, n_rank, threads_per_rank, misses
        )
        compute = iters * compute_iter
        comm = iters * comm_model.allreduce_seconds(ranks, grid_bytes, compute_iter)
        points.append(
            ScalingPoint(cores, ranks, threads_per_rank, n_rank, compute + comm, comm)
        )
    return points


def strong_scaling_hybrid(
    node_counts,
    n_total: int,
    grid_bytes: int,
    iters: int,
    machine: MachineSpec | None = None,
    comm_model: CollectiveCostModel | None = None,
    config: ModelConfig | None = None,
    sockets_per_node: int = 2,
    threads_per_rank: int = 8,
    misses: dict[LoopKind, dict[str, float]] | None = None,
) -> list[ScalingPoint]:
    """Fig. 9: fixed total population, growing node count (hybrid)."""
    machine = machine or MachineSpec.sandybridge()
    comm_model = comm_model or CollectiveCostModel()
    config = config or ModelConfig.fully_optimized()
    thread_model = ThreadScalingModel(machine)
    points = []
    for nodes in node_counts:
        ranks = nodes * sockets_per_node
        n_rank = n_total // ranks
        compute_iter = _iteration_compute_seconds(
            thread_model, config, n_rank, threads_per_rank, misses
        )
        compute = iters * compute_iter
        comm = iters * comm_model.allreduce_seconds(ranks, grid_bytes, compute_iter)
        points.append(
            ScalingPoint(
                nodes * sockets_per_node * threads_per_rank,
                ranks,
                threads_per_rank,
                n_rank,
                compute + comm,
                comm,
            )
        )
    return points


def strong_scaling_threads(
    thread_counts,
    n_total: int,
    iters: int,
    machine: MachineSpec | None = None,
    config: ModelConfig | None = None,
    misses: dict[LoopKind, dict[str, float]] | None = None,
) -> list[tuple[int, float]]:
    """Table VI: pure-OpenMP strong scaling on one socket.

    Returns ``(threads, million particles advanced per second)`` rows:
    ``Mp/s = n_total * iters / total_time / 1e6``.
    """
    machine = machine or MachineSpec.sandybridge()
    config = config or ModelConfig.fully_optimized()
    thread_model = ThreadScalingModel(machine)
    rows = []
    for p in thread_counts:
        t_iter = _iteration_compute_seconds(thread_model, config, n_total, p, misses)
        rows.append((p, n_total * iters / (t_iter * iters) / 1e6))
    return rows
