#!/usr/bin/env python
"""Compare the four cell orderings: locality, cache misses, modeled time.

This is the paper's core study (§IV-B) end to end on the simulated
substrate: it prints each ordering's unit-move locality, replays real
particle traces through the scaled cache hierarchy, and prices the
loops with the cost model — reproducing the *shape* of Tables II/III.

Run:  python examples/layout_comparison.py
"""

import numpy as np

from repro.curves import get_ordering, neighbor_locality_report
from repro.grid import GridSpec
from repro.model.config import ModelConfig
from repro.model.costmodel import LoopCostModel, LoopKind
from repro.model.experiments import MissExperiment, default_scaled_machine
from repro.model.machine import MachineSpec

ORDERINGS = ["row-major", "l4d", "morton", "hilbert"]


def main():
    grid = GridSpec(64, 64, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    machine = default_scaled_machine()
    print("scaled machine:", machine.name,
          [(lv.name, f"{lv.capacity_bytes // 1024} KiB") for lv in machine.levels])

    print("\n--- unit-move locality (fraction of neighbor moves whose cell "
          "index changes by <= 8) ---")
    for name in ORDERINGS:
        o = get_ordering(name, 64, 64)
        r = neighbor_locality_report(o)
        print(f"{name:11s} close moves: {100 * r.frac_close_isotropic:5.1f}%   "
              f"(x-moves {100 * r.frac_close_dx:5.1f}%, y-moves {100 * r.frac_close_dy:5.1f}%)")

    print("\n--- simulated cache misses, update-v + accumulate loops "
          "(40k particles, 20 iterations, sort every 10) ---")
    misses = {}
    for name in ORDERINGS:
        cfg = ModelConfig.fully_optimized(name)
        if name == "l4d":
            cfg = ModelConfig.fully_optimized("l4d", size=8)
        cfg = cfg.with_(sort_period=10)
        series = MissExperiment(cfg, grid, 40_000, 20, machine=machine).run()
        misses[name] = series
        print(f"{name:11s} L1 {series.average_misses('L1') / 1e3:7.1f}k   "
              f"L2 {series.average_misses('L2') / 1e3:7.1f}k   "
              f"L3 {series.average_misses('L3') / 1e3:7.1f}k   per iteration")

    rm = misses["row-major"]
    print("\nimprovement vs row-major (paper Table II: L1 -3.5%, L2/L3 -36%):")
    for name in ORDERINGS[1:]:
        s = misses[name]
        print(f"{name:11s} " + "  ".join(
            f"{lv} {100 * (s.average_misses(lv) / rm.average_misses(lv) - 1):+6.1f}%"
            for lv in ("L1", "L2", "L3")
        ))

    print("\n--- modeled loop times at paper scale "
          "(50M particles x 100 iterations on Haswell; Table III shape) ---")
    model = LoopCostModel(MachineSpec.haswell())
    print(f"{'ordering':11s} {'update-v':>9s} {'update-x':>9s} {'accumulate':>10s} {'total':>8s}")
    for name in ORDERINGS:
        cfg = (ModelConfig.fully_optimized("l4d", size=8)
               if name == "l4d" else ModelConfig.fully_optimized(name))
        mpp = misses[name].misses_per_particle()
        times = {}
        for kind in LoopKind:
            c = model.loop_costs(kind, cfg, mpp.get(kind))
            times[kind] = c.seconds(50_000_000, model.machine) * 100
        total = sum(times.values()) + model.sort_seconds_per_call(50_000_000, cfg) * 100 / cfg.sort_period
        print(f"{name:11s} {times[LoopKind.UPDATE_V]:8.1f}s {times[LoopKind.UPDATE_X]:8.1f}s "
              f"{times[LoopKind.ACCUMULATE]:9.1f}s {total:7.1f}s")
    print("\n(Hilbert loses on update-x exactly as in the paper: its encode "
          "is a serial bit loop no compiler vectorizes.)")


if __name__ == "__main__":
    main()
