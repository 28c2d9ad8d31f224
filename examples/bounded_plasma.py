#!/usr/bin/env python
"""Bounded plasma between reflecting walls — the §VI boundary extension.

The paper's production code is periodic; its conclusion plans to adapt
the vectorization techniques to reflecting particles.  Here the wall is
the push's third wrap: `repro.core.kernels.wrap_for` names it
``"reflect"`` for a case with ``boundary="reflecting"``, and every
backend's push folds positions between the walls and flips the velocity
of each bounced axis without a branch.  The scenario zoo's
`BoundedPlasma` runs through `Simulation`, the path the goldens and the
job service use, on the backend ``auto`` picks (the compiled C push
wherever a compiler is found): a central slab expands, bounces off the
walls and stays centred, with the total energy bounded.

Run:  python examples/bounded_plasma.py
"""

import numpy as np

from repro.core import OptimizationConfig, Simulation
from repro.core.kernels import wrap_for
from repro.grid import GridSpec
from repro.particles.initializers import BoundedPlasma

N = 50_000
STEPS, EVERY = 300, 30


def slab_profile(sim, bins=48):
    p = sim.particles
    x = np.asarray(p.ix) + np.asarray(p.dx)
    hist, _ = np.histogram(x, bins=bins, range=(0, sim.grid.ncx))
    return hist


def ascii_profile(hist, shades=" .:-=+*#%@"):
    mx = hist.max() or 1
    top = len(shades) - 1
    return "|" + "".join(shades[min(int(v / mx * top), top)] for v in hist) + "|"


def main():
    grid = GridSpec(64, 16, xmax=4 * np.pi, ymax=2 * np.pi)
    case = BoundedPlasma(vth=0.4, slab_frac=0.3)
    with Simulation(grid, case, N, OptimizationConfig(), dt=0.05,
                    quiet=True) as sim:
        print(f"{N} particles in a slab {case.slab_frac:.0%} of the box wide, "
              f"{grid.ncx} x {grid.ncy} cells, backend "
              f"{sim.stepper.backend.name}, "
              f"{wrap_for(grid.shape, case.boundary)} update-x\n")
        for step in range(0, STEPS + 1, EVERY):
            p = sim.particles
            x = (np.asarray(p.ix) + np.asarray(p.dx)) / grid.ncx
            print(f"t={step * 0.05:5.2f}  x-profile "
                  f"{ascii_profile(slab_profile(sim))}  "
                  f"centre {np.mean(x) - 0.5:+.4f} box")
            if step < STEPS:
                sim.run(EVERY)
        print(f"\nlargest relative total-energy excursion over {STEPS} steps: "
              f"{sim.history.energy_drift():.2e}")
    print("(the walls fold the positions back and flip the velocities, so "
          "the slab stays centred and nothing leaks or wraps)")


if __name__ == "__main__":
    main()
