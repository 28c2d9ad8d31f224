"""Simulated OpenMP: partitioned execution + roofline thread scaling.

Functional half — the shared-memory semantics of §V-B executed for
real (single interpreter, thread-partitioned data):

* static partitioning of the particle range across threads;
* the accumulate race resolved the paper's way: each thread deposits
  into a *private* charge copy, then the copies are reduced in thread
  order (the hand-coded equivalent of OpenMP 4.5's
  ``reduction(+:rho[0:ncells][0:4])`` the paper had to write for icc).

Timing half — :class:`ThreadScalingModel`, the paper's own explanation
of its scaling knee made executable: on ``p`` threads a loop takes
``max(compute_time / p, traffic / BW(p))`` where ``BW(p)`` is the
channel-saturation curve.  update-positions is traffic-bound and stops
scaling once the channels saturate (4 on SandyBridge); update-v and
accumulate are stall/compute-bound, sit far below peak bandwidth, and
keep scaling to 8 threads — Fig. 8 and Table VI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import OptimizationConfig
from repro.core.kernels import accumulate_rows, accumulate_standard
from repro.model.bandwidth import BandwidthModel, loop_bytes_per_particle
from repro.model.costmodel import LoopCostModel, LoopKind
from repro.model.machine import MachineSpec
from repro.parallel.partition import partition_range

__all__ = [
    "parallel_accumulate_redundant",
    "parallel_accumulate_standard",
    "cellwise_accumulate_redundant",
    "ThreadScalingModel",
]


def parallel_accumulate_redundant(
    rho_1d: np.ndarray, icell, dx, dy, charge: float, nthreads: int
) -> None:
    """Thread-partitioned accumulate with private copies + reduction.

    Each simulated thread deposits its particle slice into its own
    zero-initialized copy of ``rho_1d``; the copies are then summed in
    thread order into the shared array.  Per-thread execution is
    sequential here (one interpreter), but the partitioning, the
    private buffers, and the reduction order are exactly those of the
    racing-free OpenMP scheme — the tests assert the result matches the
    serial deposit.
    """
    privates = []
    for sl in partition_range(len(icell), nthreads):
        priv = np.zeros_like(rho_1d)
        accumulate_rows(priv, icell[sl], (dx[sl], dy[sl]), charge)
        privates.append(priv)
    for priv in privates:  # deterministic thread-order reduction
        rho_1d += priv


def cellwise_accumulate_redundant(
    rho_1d: np.ndarray, icell, dx, dy, charge: float, nthreads: int
) -> None:
    """Cell-ownership deposit: private copies, *bitwise* thread-invariant.

    The particle-partitioned scheme above matches the serial deposit
    only to rounding (each bin's sum is re-associated at the thread
    boundary).  This variant partitions the *cells* instead: thread
    ``t`` owns the contiguous cell range ``[t*C/p, (t+1)*C/p)``, scans
    the whole particle array, and deposits only the particles whose
    cell it owns into its private copy.  Rows are disjoint across
    threads, and within a bin the contributions arrive in particle
    order — exactly the order the serial deposit sums them — so the
    reduction is bitwise equal to the serial result and invariant to
    ``nthreads``.  The trade is p passes over the particle keys for a
    race-free, reproducible reduction.
    """
    icell = np.asarray(icell)
    for sl in partition_range(rho_1d.shape[0], nthreads):
        own = (icell >= sl.start) & (icell < sl.stop)
        idx = np.nonzero(own)[0]  # ascending: preserves particle order
        priv = np.zeros((sl.stop - sl.start, rho_1d.shape[1]), dtype=rho_1d.dtype)
        accumulate_rows(priv, icell[idx] - sl.start, (dx[idx], dy[idx]), charge)
        rho_1d[sl] += priv  # disjoint row ranges: order-free reduction


def parallel_accumulate_standard(
    rho: np.ndarray, ix, iy, dx, dy, charge: float, nthreads: int
) -> None:
    """Thread-partitioned accumulate for the point-based layout."""
    privates = []
    for sl in partition_range(len(ix), nthreads):
        priv = np.zeros_like(rho)
        accumulate_standard(priv, ix[sl], iy[sl], dx[sl], dy[sl], charge)
        privates.append(priv)
    for priv in privates:
        rho += priv


@dataclass
class ThreadScalingModel:
    """Roofline timing of the particle loops on ``p`` threads.

    Parameters
    ----------
    machine:
        Geometry, frequency, bandwidth curve inputs.
    cost_model:
        Prices the single-thread instruction stream.
    sync_overhead_s:
        Fork/join + barrier cost per parallel region entry.
    """

    machine: MachineSpec
    cost_model: LoopCostModel | None = None
    sync_overhead_s: float = 5e-6
    #: multiplier on the single-core stall term when threads run
    #: concurrently: MSHR/queue contention exposes far more of the miss
    #: latency than a lone out-of-order core sees.  This is what makes
    #: the irregular loops *latency*-bound — they scale almost linearly
    #: with threads while achieving well under peak bandwidth (Fig. 8's
    #: update-v/accumulate bars), unlike streaming update-x which rides
    #: the bandwidth roof.
    thread_stall_multiplier: float = 4.0
    #: IPC malus for scalar-in-fused loops under full-socket load (the
    #: fused body's large live set contends for shared resources);
    #: forwarded to the internal cost model's fused_scalar_malus
    fused_thread_malus: float = 2.0

    def __post_init__(self):
        if self.cost_model is None:
            self.cost_model = LoopCostModel(
                self.machine, fused_scalar_malus=self.fused_thread_malus
            )
        self.bw = BandwidthModel(self.machine)

    # ------------------------------------------------------------------
    def loop_seconds(
        self,
        kind: LoopKind,
        config: OptimizationConfig,
        n_particles: int,
        nthreads: int,
        misses_per_particle: dict[str, float] | None = None,
    ) -> float:
        """max(compute/p, traffic/BW(p)) for one pass of one loop."""
        costs = self.cost_model.loop_costs(kind, config, misses_per_particle)
        cycles = (
            costs.instr_cycles + self.thread_stall_multiplier * costs.stall_cycles
        )
        compute = cycles * n_particles / (self.machine.freq_ghz * 1e9) / nthreads
        miss_bytes = 0.0
        if misses_per_particle:
            # DRAM refills: only misses of the last level reach memory
            last = self.machine.levels[-1].name
            miss_bytes = misses_per_particle.get(last, 0.0) * self.machine.line_bytes
        bpp = loop_bytes_per_particle(
            kind.value,
            particle_layout=config.particle_layout,
            store_coords=config.effective_store_coords,
            field_layout=config.field_layout,
            miss_bytes_per_particle=miss_bytes,
        )
        memory = self.bw.memory_time(bpp * n_particles, nthreads)
        return max(compute, memory) + self.sync_overhead_s

    def loop_bandwidth_gbs(
        self,
        kind: LoopKind,
        config: OptimizationConfig,
        n_particles: int,
        nthreads: int,
        misses_per_particle: dict[str, float] | None = None,
    ) -> float:
        """Achieved bandwidth of a loop: bytes moved / modeled time.

        This is the quantity Fig. 8 plots next to the STREAM triad.
        """
        miss_bytes = 0.0
        if misses_per_particle:
            last = self.machine.levels[-1].name
            miss_bytes = misses_per_particle.get(last, 0.0) * self.machine.line_bytes
        bpp = loop_bytes_per_particle(
            kind.value,
            particle_layout=config.particle_layout,
            store_coords=config.effective_store_coords,
            field_layout=config.field_layout,
            miss_bytes_per_particle=miss_bytes,
        )
        t = self.loop_seconds(kind, config, n_particles, nthreads, misses_per_particle)
        return bpp * n_particles / t / 1e9

    def sort_seconds(
        self, config: OptimizationConfig, n_particles: int, nthreads: int
    ) -> float:
        """Parallel out-of-place counting sort: memory-bound, partitioned."""
        serial = self.cost_model.sort_seconds_per_call(n_particles, config)
        bytes_moved = serial * self.machine.per_core_bandwidth_gbs * 1e9
        return self.bw.memory_time(bytes_moved, nthreads) + self.sync_overhead_s

    def iteration_seconds(
        self,
        config: OptimizationConfig,
        n_particles: int,
        nthreads: int,
        misses: dict[LoopKind, dict[str, float]] | None = None,
    ) -> dict[str, float]:
        """Per-phase modeled seconds for one iteration on ``p`` threads.

        Split mode rooflines each loop separately (three sweeps of the
        particle arrays).  Fused mode sweeps the particle arrays *once*
        but pays the combined field+charge miss traffic of all phases
        in that single pass: compute terms add, memory terms merge.
        """
        misses = misses or {}
        if config.loop_mode == "split":
            out = {
                kind.value: self.loop_seconds(
                    kind, config, n_particles, nthreads, misses.get(kind)
                )
                for kind in LoopKind
            }
        else:
            compute = 0.0
            miss_bytes = 0.0
            last = self.machine.levels[-1].name
            for kind in LoopKind:
                costs = self.cost_model.loop_costs(kind, config, misses.get(kind))
                cycles = (
                    costs.instr_cycles
                    + self.thread_stall_multiplier * costs.stall_cycles
                )
                compute += cycles * n_particles / (self.machine.freq_ghz * 1e9)
                miss_bytes += (
                    misses.get(kind, {}).get(last, 0.0) * self.machine.line_bytes
                )
            record = 8.0 * (7 if config.effective_store_coords else 5)
            bpp = 2.0 * record + miss_bytes  # one read+write record sweep
            memory = self.bw.memory_time(bpp * n_particles, nthreads)
            out = {
                "particle_loops": max(compute / nthreads, memory)
                + self.sync_overhead_s
            }
        if config.sort_period:
            out["sort"] = (
                self.sort_seconds(config, n_particles, nthreads) / config.sort_period
            )
        else:
            out["sort"] = 0.0
        out["total"] = sum(out.values())
        return out
