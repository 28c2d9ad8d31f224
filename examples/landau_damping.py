#!/usr/bin/env python
"""Linear and nonlinear Landau damping against kinetic theory.

The paper validates its code on exactly these cases (§IV): the field
energy of a perturbed Maxwellian must decay at the Landau rate.  For
k = 0.5, vth = 1 the linear theory gives gamma ~ -0.1533 and the
plasma oscillation frequency omega ~ 1.4156.

Run:  python examples/landau_damping.py
"""

import numpy as np

from repro.core import OptimizationConfig, Simulation
from repro.core.diagnostics import damping_rate_fit, log_envelope_peaks
from repro.grid import GridSpec
from repro.particles import LandauDamping

THEORY_GAMMA = -0.1533
THEORY_OMEGA = 1.4156


def ascii_plot(series, width=72, height=16, label=""):
    """Log-scale ASCII plot of a positive series."""
    s = np.asarray(series)
    s = np.maximum(s, s[s > 0].min() if np.any(s > 0) else 1e-30)
    logs = np.log10(s)
    lo, hi = logs.min(), logs.max()
    span = max(hi - lo, 1e-12)
    idx = np.linspace(0, len(s) - 1, width).astype(int)
    rows = [[" "] * width for _ in range(height)]
    for col, i in enumerate(idx):
        level = int((logs[i] - lo) / span * (height - 1))
        rows[height - 1 - level][col] = "*"
    print(f"  {label}  (log scale, 1e{lo:.1f} .. 1e{hi:.1f})")
    for row in rows:
        print("  |" + "".join(row))
    print("  +" + "-" * width)


def run_case(alpha, n, steps, label):
    grid = GridSpec(64, 8, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    sim = Simulation(
        grid,
        LandauDamping(alpha=alpha),
        n,
        OptimizationConfig(),
        dt=0.1,
        quiet=True,
        seed=None,
    )
    h = sim.run(steps).as_arrays()
    print(f"\n=== {label} (alpha={alpha}) ===")
    ascii_plot(h["field_energy"], label="field energy vs time")
    return h, sim


def main():
    # ---- linear case ----
    h, sim = run_case(alpha=0.1, n=300_000, steps=200, label="Linear Landau damping")
    gamma = damping_rate_fit(h["field_energy"], h["times"], t_min=1.0, t_max=18.0)
    print(f"measured damping rate : {gamma:+.4f}")
    print(f"theory (k=0.5, vth=1) : {THEORY_GAMMA:+.4f}  "
          f"(error {100 * abs(gamma - THEORY_GAMMA) / abs(THEORY_GAMMA):.1f}%)")

    tp, _ = log_envelope_peaks(h["field_energy"], h["times"])
    early = tp[(tp > 0.5) & (tp < 12.0)]
    omega = np.pi / np.median(np.diff(early))
    print(f"measured oscillation  : omega = {omega:.3f} (theory {THEORY_OMEGA:.3f})")
    print(f"energy drift          : {sim.history.energy_drift():.2e}")

    # ---- nonlinear case ----
    h, sim = run_case(alpha=0.5, n=200_000, steps=300, label="Nonlinear Landau damping")
    fe = h["field_energy"]
    trough = fe[: len(fe) // 2].argmin()
    print(f"initial decay to t={h['times'][trough]:.1f}, then the field "
          f"oscillates/rebounds (trapping): FE_min={fe[trough]:.3e}, "
          f"FE_late={fe[-1]:.3e}")
    print(f"energy drift          : {sim.history.energy_drift():.2e}")


if __name__ == "__main__":
    main()
