"""Cache-miss experiment harness (the scaled replica of §IV-B's setup).

Drives a real (scaled-down) simulation phase by phase; before each
particle loop it generates that loop's address trace from the live
particle state and replays it through a warm
:class:`~repro.model.cache.CacheHierarchy`.  The resulting per-iteration
miss series is Fig. 5/6; its average over iterations is Table II; and
the per-particle averages feed the cost model's stall term for
Tables III/IV/VII.

Scaling rule (printed by every benchmark that uses this): particle
count and cache capacities are shrunk together so that the ratios
(field-array bytes / cache bytes) and (particles / cell) stay within
the regime of the paper's test case.  Misses are reported *per
particle per iteration*, which is the scale-free quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.stepper import PICStepper
from repro.grid.spec import GridSpec
from repro.model.cache import CacheHierarchy, CacheSimResult
from repro.model.config import ModelConfig
from repro.model.costmodel import LoopKind
from repro.model.machine import MachineSpec
from repro.model.trace import (
    MemoryLayoutMap,
    trace_accumulate,
    trace_fused_loop,
    trace_update_positions,
    trace_update_velocities,
)
from repro.particles.initializers import InitialCondition, LandauDamping

__all__ = ["MissExperiment", "MissSeries", "default_scaled_machine"]

_TRACERS = {
    LoopKind.UPDATE_V: trace_update_velocities,
    LoopKind.UPDATE_X: trace_update_positions,
    LoopKind.ACCUMULATE: trace_accumulate,
}


def default_scaled_machine(scale: int = 16, l3_scale: int = 256) -> MachineSpec:
    """The Haswell geometry shrunk for Python-sized runs.

    L1/L2 shrink by ``scale``; L3 shrinks by the larger ``l3_scale``
    because the working-set ratio that matters differs per level: the
    paper's L2 is smaller than the field arrays while its L3 is not —
    there, L3 misses are the field lines evicted by the (hardware-
    prefetched) particle stream.  With no prefetcher in the model, the
    same regime needs an L3 smaller than fields + particle stream,
    which ``l3_scale=256`` (25 MiB -> ~100 KiB) gives at bench sizes.
    """
    import dataclasses

    m = MachineSpec.haswell().scaled(scale)
    levels = list(m.levels)
    l3 = MachineSpec.haswell().levels[-1]
    cap = l3.capacity_bytes // l3_scale
    min_cap = l3.line_bytes * l3.associativity
    cap -= cap % min_cap
    levels[-1] = dataclasses.replace(l3, capacity_bytes=max(cap, min_cap))
    return dataclasses.replace(m, levels=tuple(levels))


@dataclass
class MissSeries:
    """Per-iteration miss counts for one configuration."""

    config: ModelConfig
    n_particles: int
    n_iterations: int
    machine_name: str
    #: per-iteration CacheSimResult of the update-v + accumulate loops
    #: combined (the pair Figs. 5/6 instrument)
    per_iteration: list[CacheSimResult] = field(default_factory=list)
    #: per-loop totals over all iterations
    totals: dict[LoopKind, CacheSimResult] = field(default_factory=dict)

    def misses_per_iteration(self, level: str) -> np.ndarray:
        """The Fig. 5/6 series for one cache level."""
        return np.array(
            [r.misses_by_name()[level] for r in self.per_iteration], dtype=np.int64
        )

    def average_misses(self, level: str) -> float:
        """Table II's per-iteration average for one level."""
        series = self.misses_per_iteration(level)
        return float(series.mean()) if len(series) else 0.0

    def misses_per_particle(self) -> dict[LoopKind, dict[str, float]]:
        """Per-loop per-particle averages — the cost model's stall input."""
        denom = self.n_particles * max(self.n_iterations, 1)
        out: dict[LoopKind, dict[str, float]] = {}
        for kind, res in self.totals.items():
            out[kind] = {
                name: m / denom for name, m in res.misses_by_name().items()
            }
        return out


class MissExperiment:
    """Runs one configuration's miss measurement on a scaled machine.

    Parameters
    ----------
    grid, n_particles, n_iterations:
        The scaled test case (the benches default to 64x64 cells and a
        few tens of thousands of particles).
    machine:
        Scaled cache geometry; see :func:`default_scaled_machine`.
    loops:
        Which loops to instrument.  The default is the paper's pair
        (update-velocities + accumulate); pass all three LoopKinds to
        feed a full cost-model stall table.
    trace_fused:
        Instrument the single fused loop instead (for the loop-
        splitting comparison); ``loops`` is then ignored.
    """

    def __init__(
        self,
        config: ModelConfig,
        grid: GridSpec,
        n_particles: int,
        n_iterations: int,
        machine: MachineSpec | None = None,
        case: InitialCondition | None = None,
        loops: tuple[LoopKind, ...] = (LoopKind.UPDATE_V, LoopKind.ACCUMULATE),
        trace_fused: bool = False,
        dt: float = 0.1,
        seed: int = 0,
    ):
        self.config = config
        self.machine = machine or default_scaled_machine()
        self.loops = tuple(loops)
        self.trace_fused = trace_fused
        self.stepper = PICStepper(
            grid,
            config,
            case=case or LandauDamping(alpha=0.05),
            n_particles=n_particles,
            dt=dt,
            seed=seed,
        )
        self.n_iterations = n_iterations
        self.mmap = MemoryLayoutMap.for_config(
            config, self.stepper.ordering, n_particles
        )

    # ------------------------------------------------------------------
    def run(self) -> MissSeries:
        """Execute the instrumented iterations; returns the miss series."""
        st = self.stepper
        cfg = self.config
        hierarchy = CacheHierarchy(self.machine)
        series = MissSeries(
            cfg, st.particles.n, self.n_iterations, self.machine.name
        )
        empty = CacheSimResult(
            hierarchy.level_names,
            (0,) * len(hierarchy.levels),
            (0,) * len(hierarchy.levels),
        )
        for kind in self.loops:
            series.totals[kind] = empty
        if self.trace_fused:
            series.totals = {k: empty for k in LoopKind}

        for it in range(self.n_iterations):
            if cfg.sort_period and it and it % cfg.sort_period == 0:
                st._phase_sort()
            iter_result = empty
            if self.trace_fused:
                trace = trace_fused_loop(st.particles, self.mmap)
                res = hierarchy.simulate(trace)
                iter_result = iter_result + res
                # attribute the fused misses to the phases in proportion
                # to their address counts (reported per-loop downstream)
                share = {
                    LoopKind.UPDATE_V: 0.45,
                    LoopKind.UPDATE_X: 0.25,
                    LoopKind.ACCUMULATE: 0.30,
                }
                for k, f in share.items():
                    scaled = CacheSimResult(
                        res.level_names,
                        tuple(int(a * f) for a in res.accesses),
                        tuple(int(m * f) for m in res.misses),
                    )
                    series.totals[k] = series.totals[k] + scaled
                self._advance_iteration()
            else:
                # mirror the split stepper: trace each loop right before
                # executing it, against the live state (the deposit
                # writes rho, so nothing is zeroed first)
                if LoopKind.UPDATE_V in self.loops:
                    res = hierarchy.simulate(
                        trace_update_velocities(st.particles, self.mmap)
                    )
                    series.totals[LoopKind.UPDATE_V] += res
                    iter_result = iter_result + res
                st._phase_update_v()
                if LoopKind.UPDATE_X in self.loops:
                    res = hierarchy.simulate(
                        trace_update_positions(st.particles, self.mmap)
                    )
                    series.totals[LoopKind.UPDATE_X] += res
                st._phase_update_x()
                if LoopKind.ACCUMULATE in self.loops:
                    res = hierarchy.simulate(
                        trace_accumulate(st.particles, self.mmap)
                    )
                    series.totals[LoopKind.ACCUMULATE] += res
                    iter_result = iter_result + res
                st._phase_accumulate()
                st._solve_fields()
                st.iteration += 1
            series.per_iteration.append(iter_result)
        return series

    def _advance_iteration(self) -> None:
        """Advance physics one step without re-tracing (fused mode)."""
        st = self.stepper
        st._phase_update_v()
        st._phase_update_x()
        st._phase_accumulate()
        st._solve_fields()
        st.iteration += 1
