#!/usr/bin/env python
"""Quickstart: a 2d2v Landau-damping PIC run with the optimized engine.

Builds the paper's fully-optimized configuration (Morton-ordered
redundant field rows, SoA particles, split loops, bitwise update-x,
hoisting — all but the ordering and the update-x variant are what
every run executes; the baselines they replace are priced by
``repro.model``), runs 100
leap-frog steps, and prints the energy budget — the basic "does it
simulate a plasma" smoke test.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import OptimizationConfig, Simulation
from repro.grid import GridSpec
from repro.particles import LandauDamping


def main():
    # k = 2*pi/Lx = 0.5: the classical linear Landau damping benchmark
    grid = GridSpec(64, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    case = LandauDamping(alpha=0.05, vth=1.0)
    config = OptimizationConfig()

    print(f"grid      : {grid.ncx} x {grid.ncy} on [0,{grid.lx:.3f}) x [0,{grid.ly:.3f})")
    sim = Simulation(grid, case, n_particles=100_000, config=config,
                     dt=0.1, quiet=True, seed=None)
    print(f"config    : {config.ordering}-ordered {type(sim.stepper.fields).__name__}, "
          f"{type(sim.particles).__name__} particles, split loops, "
          f"{config.position_update} update-x")
    print(f"particles : {sim.particles.n} (weight {sim.particles.weight:.3e})")

    sim.run(100)

    h = sim.history.as_arrays()
    print("\n  t      field E        kinetic E      total E")
    for i in range(0, 101, 10):
        print(f"{h['times'][i]:5.1f}  {h['field_energy'][i]:.6e}  "
              f"{h['kinetic_energy'][i]:.6e}  {h['total_energy'][i]:.6e}")

    print(f"\nenergy drift          : {sim.history.energy_drift():.2e} (relative)")
    print(f"field-energy decay    : {h['field_energy'][-1] / h['field_energy'][0]:.3f}x "
          "of initial (Landau damping at work)")
    t = sim.timings
    rate = sim.particles.n * t.steps / t.total / 1e6
    print(f"throughput            : {rate:.2f} M particle-steps/s "
          f"(python engine wall clock)")
    print(f"phase breakdown (s)   : {({k: round(v, 2) for k, v in t.as_dict().items()})}")


if __name__ == "__main__":
    main()
