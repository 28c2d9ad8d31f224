"""Roofline thread scaling: the price of §V-B's OpenMP team.

The shared-memory scheme itself — threads splitting the particle range,
the deposit race resolved without giving up serial bits — is executed
by the ``numpy-mp`` engine (:mod:`repro.parallel`), whose corner-owned
deposit is bitwise equal to the serial one at any worker count.  This
module only prices it.

:class:`ThreadScalingModel` is the paper's own explanation of its
scaling knee made executable: on ``p`` threads a loop takes
``max(compute_time / p, traffic / BW(p))`` where ``BW(p)`` is the
channel-saturation curve.  update-positions is traffic-bound and stops
scaling once the channels saturate (4 on SandyBridge); update-v and
accumulate are stall/compute-bound, sit far below peak bandwidth, and
keep scaling to 8 threads — Fig. 8 and Table VI.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.bandwidth import BandwidthModel, loop_bytes_per_particle
from repro.model.config import ModelConfig
from repro.model.costmodel import LoopCostModel, LoopKind
from repro.model.machine import MachineSpec

__all__ = ["ThreadScalingModel"]


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
        config: ModelConfig,
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
        config: ModelConfig,
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
        self, config: ModelConfig, n_particles: int, nthreads: int
    ) -> float:
        """Parallel out-of-place counting sort: memory-bound, partitioned."""
        serial = self.cost_model.sort_seconds_per_call(n_particles, config)
        bytes_moved = serial * self.machine.per_core_bandwidth_gbs * 1e9
        return self.bw.memory_time(bytes_moved, nthreads) + self.sync_overhead_s

    def iteration_seconds(
        self,
        config: ModelConfig,
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
