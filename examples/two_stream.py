#!/usr/bin/env python
"""Two-stream instability: exponential growth and saturation.

Two counter-streaming electron beams (±v0 along x) are unstable for
k*v0 below the plasma frequency; the perturbed mode's field energy
grows exponentially until particle trapping saturates it.  This is the
second validation case the paper cites (§IV).

Run:  python examples/two_stream.py
"""

import numpy as np

from repro.core import OptimizationConfig, Simulation
from repro.core.diagnostics import growth_rate_fit
from repro.grid import GridSpec
from repro.particles import TwoStream


def phase_space_histogram(sim, vmax=5.0, bins=(48, 24)):
    """(x, vx) phase-space density of the current particle state."""
    st = sim.stepper
    x = (np.asarray(st.particles.ix) + np.asarray(st.particles.dx)) * st.grid.dx
    vx, _ = st.physical_velocities()
    hist, _, _ = np.histogram2d(
        x, np.clip(vx, -vmax, vmax), bins=bins,
        range=((0, st.grid.lx), (-vmax, vmax)),
    )
    return hist


def ascii_density(hist, shades=" .:-=+*#%@"):
    h = hist.T[::-1]  # v on the vertical axis, x horizontal
    mx = h.max() or 1.0
    for row in h:
        print("  |" + "".join(shades[int(v / mx * (len(shades) - 1))] for v in row))
    print("  +" + "-" * hist.shape[0])


def main():
    grid = GridSpec(64, 8, 0.0, 10 * np.pi, 0.0, 10 * np.pi)
    case = TwoStream(v0=2.4, vth=0.1, alpha=1e-3)
    print(f"two beams at ±{case.v0}, k = {case.kx(grid):.3f}, "
          f"k*v0 = {case.kx(grid) * case.v0:.2f} (unstable band)")

    sim = Simulation(
        grid, case, 200_000, OptimizationConfig(),
        dt=0.1, quiet=True, seed=None,
    )

    print("\nphase space at t=0 (two cold beams):")
    ascii_density(phase_space_histogram(sim))

    sim.run(200)
    h = sim.history.as_arrays()
    gamma = growth_rate_fit(h["field_energy"], h["times"], t_min=5.0, t_max=18.0)
    print(f"\nlinear growth rate    : {gamma:.3f} (field amplitude e-foldings/time)")
    print(f"field energy grew     : {h['field_energy'][-1] / h['field_energy'][0]:.1e}x")

    sim.run(200)
    print("\nphase space at t=40 (trapping vortices — the beams rolled up):")
    ascii_density(phase_space_histogram(sim))

    h = sim.history.as_arrays()
    late = h["field_energy"][-100:]
    print(f"\nsaturated field energy: {late.mean():.3e} "
          f"(+/- {late.std():.1e}, no longer growing)")
    print(f"energy drift          : {sim.history.energy_drift():.2e}")


if __name__ == "__main__":
    main()
