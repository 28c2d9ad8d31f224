"""Physics acceptance oracles: is the simulation *right*, not just equal?

The differential layer proves every execution combo computes the same
numbers; these oracles check the numbers mean the correct physics.
Each oracle runs a small, calibrated scenario on a chosen backend and
holds one measured quantity to an expectation:

* **Landau damping** — the field-energy envelope of a perturbed
  Maxwellian must decay at the linear-theory rate (γ ≈ −0.1533 for
  k=0.5, vth=1).  Finite N and grid resolution bias the measured rate,
  so the tolerance (calibrated on the reference backend) is loose in
  absolute terms but tight enough to catch a wrong solver sign, a
  mis-scaled deposit, or a broken kick.
* **Two-stream growth** — counter-streaming beams must go unstable
  and e-fold at the predicted rate; this is the oracle most sensitive
  to a broken field solve (no growth at all).
* **Energy drift** — leap-frog on a periodic domain has no secular
  energy sink; total energy must stay within a small envelope.
* **Momentum conservation** — the self-consistent field exerts no net
  force; total momentum change must stay at accumulation roundoff.
* **Bump-on-tail growth** — the gentle-beam flank must drive resonant
  Langmuir waves at the calibrated kinetic rate.
* **Beam–plasma growth** — a weak cold beam through a warm bulk must
  e-fold at the calibrated (Landau-reduced) reactive rate.
* **Bounded-plasma confinement** — reflecting walls must keep the
  center of charge centered and the energy excursion bounded.
* **E×B drift** — the Boris rotation under crossed uniform fields
  must reproduce ``v_d = E x B / B^2`` in the gyroperiod average.
* **3D two-stream** — the same growth check against the 3d3v stepper
  (:mod:`repro.pic3d`), which otherwise has no instability-side test.

Profiles are sized to run in a couple of seconds each, so the full
battery is usable both from ``repro verify --oracles`` and from the
(slow-marked) test suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import OptimizationConfig
from repro.core.diagnostics import damping_rate_fit, growth_rate_fit, momentum
from repro.core.simulation import Simulation
from repro.core.stepper import PICStepper
from repro.grid.spec import GridSpec
from repro.particles.initializers import (
    BeamPlasma,
    BoundedPlasma,
    BumpOnTail,
    LandauDamping,
    MagnetizedExB,
    TwoStream,
)

__all__ = [
    "OracleResult",
    "landau_damping_oracle",
    "two_stream_oracle",
    "energy_drift_oracle",
    "momentum_oracle",
    "bump_on_tail_oracle",
    "beam_plasma_oracle",
    "bounded_plasma_oracle",
    "exb_drift_oracle",
    "two_stream_3d_oracle",
    "run_all_oracles",
    "THEORY_LANDAU_RATE",
    "THEORY_TWO_STREAM_RATE",
    "THEORY_BEAM_PLASMA_RATE",
]

#: Linear Landau damping rate for k*lambda_D = 0.5 (k=0.5, vth=1).
THEORY_LANDAU_RATE = -0.1533
#: Cold symmetric two-stream maximum growth rate, γ_max = ω_p/(2√2):
#: once past the initial transient the fastest-growing mode in the box
#: dominates the field energy, so the late-window fit measures γ_max
#: (slightly under it, from warm-beam corrections at vth/v0 ≈ 0.04).
THEORY_TWO_STREAM_RATE = 1.0 / (2.0 * np.sqrt(2.0))
#: Cold-beam (reactive) beam–plasma growth rate at resonance for a
#: beam fraction n_b: γ = (√3/2)(n_b/2)^{1/3} ω_p — 0.319 for n_b=0.1.
#: The warm bulk (vth = 1) Landau-damps the mode below this ideal; the
#: oracle holds the fit to its *calibrated* warm value and keeps the
#: cold-beam number as the anchor the calibration is judged against.
THEORY_BEAM_PLASMA_RATE = (np.sqrt(3.0) / 2.0) * (0.05) ** (1.0 / 3.0)


@dataclass
class OracleResult:
    """One oracle's verdict: measured vs expected within tolerance."""

    name: str
    backend: str
    measured: float
    expected: float
    tolerance: float
    passed: bool
    detail: str = ""
    seconds: float = 0.0

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name} [{self.backend}] measured "
            f"{self.measured:+.4f} vs expected {self.expected:+.4f} "
            f"(tol {self.tolerance:.3g}, {self.seconds:.1f}s)"
            + (f" — {self.detail}" if self.detail else "")
        )


def _config(backend: str) -> OptimizationConfig:
    return OptimizationConfig(ordering="morton", backend=backend)


def landau_damping_oracle(backend: str = "numpy") -> OracleResult:
    """Measured Landau damping rate vs linear theory.

    Calibration (numpy backend, this exact profile): measured ≈
    −0.135; theory −0.1533.  Finite-N noise floors the late-time
    envelope, biasing the fit toward zero, hence the ±0.035 band.
    """
    t0 = time.time()
    grid = GridSpec(32, 4, xmax=4 * np.pi, ymax=2 * np.pi)
    case = LandauDamping(alpha=0.1, vth=1.0)
    sim = Simulation(grid, case, 60_000, _config(backend), dt=0.1, quiet=True)
    try:
        sim.run(150)
        rate = damping_rate_fit(
            np.asarray(sim.history.field_energy),
            np.asarray(sim.history.times),
            t_min=0.5, t_max=11.0,
        )
    finally:
        sim.close()
    tol = 0.035
    return OracleResult(
        name="landau-damping-rate",
        backend=backend,
        measured=rate,
        expected=THEORY_LANDAU_RATE,
        tolerance=tol,
        passed=abs(rate - THEORY_LANDAU_RATE) <= tol,
        seconds=time.time() - t0,
    )


def two_stream_oracle(backend: str = "numpy") -> OracleResult:
    """Measured two-stream growth rate vs the cold-beam prediction.

    Calibration (numpy): measured ≈ +0.33 over the t ∈ [12, 22]
    asymptotic window with the field energy amplified ~10^4 —
    unambiguous instability at (slightly under) γ_max.
    """
    t0 = time.time()
    grid = GridSpec(64, 4, xmax=10 * np.pi, ymax=2 * np.pi)
    case = TwoStream(v0=2.4, vth=0.1, alpha=1e-3)
    sim = Simulation(grid, case, 40_000, _config(backend), dt=0.1, quiet=True)
    try:
        sim.run(220)
        fe = np.asarray(sim.history.field_energy)
        times = np.asarray(sim.history.times)
        rate = growth_rate_fit(fe, times, t_min=12.0, t_max=22.0)
        amplification = float(fe[-1] / fe[0])
    finally:
        sim.close()
    tol = 0.08
    grew = amplification > 100.0
    return OracleResult(
        name="two-stream-growth-rate",
        backend=backend,
        measured=rate,
        expected=THEORY_TWO_STREAM_RATE,
        tolerance=tol,
        passed=(abs(rate - THEORY_TWO_STREAM_RATE) <= tol) and grew,
        detail=f"field energy amplified x{amplification:.0f}",
        seconds=time.time() - t0,
    )


def energy_drift_oracle(backend: str = "numpy",
                        max_drift: float = 0.05) -> OracleResult:
    """Total-energy envelope over a Landau run stays within ``max_drift``."""
    t0 = time.time()
    grid = GridSpec(32, 8, xmax=4 * np.pi, ymax=2 * np.pi)
    case = LandauDamping(alpha=0.1, vth=1.0)
    sim = Simulation(grid, case, 20_000, _config(backend), dt=0.05, quiet=True)
    try:
        sim.run(200)
        drift = sim.history.energy_drift()
    finally:
        sim.close()
    return OracleResult(
        name="energy-drift",
        backend=backend,
        measured=drift,
        expected=0.0,
        tolerance=max_drift,
        passed=drift <= max_drift,
        seconds=time.time() - t0,
    )


def momentum_oracle(backend: str = "numpy",
                    max_change: float = 1e-9) -> OracleResult:
    """Total momentum change stays at accumulation roundoff.

    Roundoff scale: N ≈ 2·10^4 thermal-velocity terms summed per
    component — drift ~1e-15 measured, so 1e-9 is a six-decade margin
    that still catches any real force imbalance.
    """
    t0 = time.time()
    grid = GridSpec(32, 8, xmax=4 * np.pi, ymax=2 * np.pi)
    case = LandauDamping(alpha=0.1, vth=1.0)
    sim = Simulation(grid, case, 20_000, _config(backend), dt=0.05, quiet=True)
    try:
        st = sim.stepper
        p0 = momentum(*st.physical_velocities(), st.particles.weight, st.m)
        sim.run(100)
        p1 = momentum(*st.physical_velocities(), st.particles.weight, st.m)
    finally:
        sim.close()
    change = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
    return OracleResult(
        name="momentum-conservation",
        backend=backend,
        measured=change,
        expected=0.0,
        tolerance=max_change,
        passed=change <= max_change,
        seconds=time.time() - t0,
    )


def bump_on_tail_oracle(backend: str = "numpy") -> OracleResult:
    """Bump-on-tail instability: the gentle-beam flank must destabilize.

    Calibration (numpy, this exact profile): the resonant mode rides a
    noisy plateau until t ≈ 20, then e-folds at ≈ +0.114 through the
    t ∈ [20, 40] window and saturates near x7000 amplification around
    t ≈ 45.  The kinetic (gentle-bump) rate has no clean closed form at
    this beam strength, so the expectation is the calibrated measured
    value; the band is wide enough for sampling noise but excludes
    both "no instability" and the reactive cold-beam rate.
    """
    t0 = time.time()
    grid = GridSpec(64, 4, xmax=8 * np.pi, ymax=2 * np.pi)
    case = BumpOnTail()
    sim = Simulation(grid, case, 40_000, _config(backend), dt=0.1, quiet=True)
    try:
        sim.run(450)
        fe = np.asarray(sim.history.field_energy)
        times = np.asarray(sim.history.times)
        rate = growth_rate_fit(fe, times, t_min=20.0, t_max=40.0)
        amplification = float(fe.max() / fe[0])
    finally:
        sim.close()
    expected, tol = 0.114, 0.05
    return OracleResult(
        name="bump-on-tail-growth-rate",
        backend=backend,
        measured=rate,
        expected=expected,
        tolerance=tol,
        passed=(abs(rate - expected) <= tol) and amplification > 500.0,
        detail=f"field energy amplified x{amplification:.0f} at peak",
        seconds=time.time() - t0,
    )


def beam_plasma_oracle(backend: str = "numpy") -> OracleResult:
    """Beam–plasma instability: weak cold beam through a warm bulk.

    Calibration (numpy, this exact profile): e-folding at ≈ +0.214
    over t ∈ [18, 30], saturating around x18000 by t ≈ 32.  The
    cold-beam reactive prediction is
    :data:`THEORY_BEAM_PLASMA_RATE` ≈ 0.319; the warm bulk (vth = 1,
    so k·vth equals a third of the resonant phase velocity) Landau-
    damps the mode to the calibrated 0.21.  The band excludes both a
    dead field solve and the unphysical cold-beam value.
    """
    t0 = time.time()
    grid = GridSpec(64, 4, xmax=10 * np.pi, ymax=2 * np.pi)
    case = BeamPlasma()
    sim = Simulation(grid, case, 40_000, _config(backend), dt=0.1, quiet=True)
    try:
        sim.run(320)
        fe = np.asarray(sim.history.field_energy)
        times = np.asarray(sim.history.times)
        rate = growth_rate_fit(fe, times, t_min=18.0, t_max=30.0)
        amplification = float(fe.max() / fe[0])
    finally:
        sim.close()
    expected, tol = 0.214, 0.06
    return OracleResult(
        name="beam-plasma-growth-rate",
        backend=backend,
        measured=rate,
        expected=expected,
        tolerance=tol,
        passed=(abs(rate - expected) <= tol) and amplification > 100.0,
        detail=f"field energy amplified x{amplification:.0f} at peak",
        seconds=time.time() - t0,
    )


def bounded_plasma_oracle(backend: str = "numpy") -> OracleResult:
    """Reflecting-wall slab: confinement + bounded energy.

    A central slab expands, hits the walls and bounces.  Two invariants
    of elastic reflection are held: the center of charge stays at the
    box center (measured: the time-averaged fractional deviation of
    mean x — calibration ≈ 2e-4), and the total energy excursion stays
    small (calibration ≈ 1.7%, bound 8%).  A broken fold (particles
    leaking or double-counted bounces) moves the center or pumps
    energy immediately.
    """
    t0 = time.time()
    grid = GridSpec(64, 16, xmax=4 * np.pi, ymax=2 * np.pi)
    case = BoundedPlasma()
    stepper = PICStepper(
        grid, _config(backend), case=case, n_particles=20_000,
        dt=0.05, quiet=True,
    )
    try:
        e0 = stepper.total_energy()
        xs, excursion = [], 0.0
        for _ in range(300):
            stepper.step()
            xg = np.asarray(stepper.particles.ix) + np.asarray(
                stepper.particles.dx
            )
            xs.append(float(np.mean(xg)) * grid.dx)
            excursion = max(excursion, abs(stepper.total_energy() - e0) / e0)
    finally:
        stepper.close()
    center = grid.xmin + 0.5 * grid.lx
    deviation = abs(float(np.mean(xs)) - center) / grid.lx
    tol = 0.02
    return OracleResult(
        name="bounded-plasma-confinement",
        backend=backend,
        measured=deviation,
        expected=0.0,
        tolerance=tol,
        passed=(deviation <= tol) and excursion <= 0.08,
        detail=f"energy excursion {excursion:.1%}",
        seconds=time.time() - t0,
    )


def exb_drift_oracle(backend: str = "numpy") -> OracleResult:
    """Magnetized E×B drift: mean vy must equal ``-ex0/bz``.

    The population's mean velocity is the drift plus a gyrating
    remainder, so averaging mean vy over whole gyroperiods isolates
    the drift.  Four periods (T = 2π/|q·bz/m|, dt = 0.05) give
    calibration −0.1999 vs theory −0.2 — the Boris rotation's exact
    phase-space volume preservation shows up as four digits of
    agreement; a wrong rotation sign or a missing external-field term
    misses by O(1).
    """
    t0 = time.time()
    case = MagnetizedExB()
    grid = GridSpec(32, 32, xmax=4 * np.pi, ymax=4 * np.pi)
    stepper = PICStepper(
        grid, _config(backend), case=case, n_particles=20_000,
        dt=0.05, quiet=True,
    )
    try:
        gyroperiod = 2.0 * np.pi * stepper.m / abs(stepper.q * case.bz)
        n_steps = int(round(4 * gyroperiod / stepper.dt))
        vys = []
        for _ in range(n_steps):
            stepper.step()
            vys.append(float(np.mean(stepper.physical_velocities()[1])))
    finally:
        stepper.close()
    measured = float(np.mean(vys))
    expected = case.drift_velocity[1]
    tol = 0.02
    return OracleResult(
        name="exb-drift-velocity",
        backend=backend,
        measured=measured,
        expected=expected,
        tolerance=tol,
        passed=abs(measured - expected) <= tol,
        detail=f"{n_steps} steps = 4 gyroperiods",
        seconds=time.time() - t0,
    )


def two_stream_3d_oracle(backend: str = "numpy") -> OracleResult:
    """Two-stream growth on the 3d3v stepper (:mod:`repro.pic3d`).

    Calibration (numpy): measured ≈ +0.30 on a 32x4x4 box over the
    same asymptotic window as the 2D oracle — the 3D engine
    reproduces the 1D-physics instability since the transverse
    dynamics stay linear.
    """
    from repro.pic3d import GridSpec3D, PICStepper3D, TwoStream3D

    t0 = time.time()
    grid = GridSpec3D(32, 4, 4, xmax=10 * np.pi, ymax=2 * np.pi, zmax=2 * np.pi)
    case = TwoStream3D(v0=2.4, vth=0.1, alpha=1e-3)
    stepper = PICStepper3D(grid, case, 30_000, dt=0.1, backend=backend)
    times, fe = [], []

    def record():
        e2 = (stepper.ex_grid**2 + stepper.ey_grid**2 + stepper.ez_grid**2)
        times.append(stepper.iteration * stepper.dt)
        fe.append(0.5 * float(np.sum(e2)) * grid.cell_volume)

    record()
    for _ in range(220):
        stepper.step()
        record()
    rate = growth_rate_fit(np.asarray(fe), np.asarray(times), t_min=12.0, t_max=22.0)
    amplification = float(fe[-1] / fe[0])
    tol = 0.08
    return OracleResult(
        name="two-stream-growth-rate-3d",
        backend=backend,
        measured=rate,
        expected=THEORY_TWO_STREAM_RATE,
        tolerance=tol,
        passed=(abs(rate - THEORY_TWO_STREAM_RATE) <= tol)
        and amplification > 100.0,
        detail=f"field energy amplified x{amplification:.0f}",
        seconds=time.time() - t0,
    )


def run_all_oracles(backend: str = "numpy") -> list[OracleResult]:
    """The full acceptance battery against one backend."""
    return [
        landau_damping_oracle(backend),
        two_stream_oracle(backend),
        energy_drift_oracle(backend),
        momentum_oracle(backend),
        bump_on_tail_oracle(backend),
        beam_plasma_oracle(backend),
        bounded_plasma_oracle(backend),
        exb_drift_oracle(backend),
        two_stream_3d_oracle(backend),
    ]
