"""Physics diagnostics: energies, mode amplitudes, rate fits.

These are the observables the paper uses to validate the code (§IV:
"we checked the numerical conservation of the total energy and the
numerical evolution in time of the electric field") plus the fits the
examples use to compare against analytic Landau/two-stream rates.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels as _k

__all__ = [
    "field_energy",
    "kinetic_energy",
    "momentum",
    "mode_amplitude",
    "damping_rate_fit",
    "growth_rate_fit",
    "log_envelope_peaks",
    "phase_space_histogram",
]


def _sum_squares(backend):
    return _k.sum_squares if backend is None else backend.sum_squares


def field_energy(
    ex: np.ndarray, ey: np.ndarray, cell_area: float, eps0: float = 1.0,
    backend=None, ez: np.ndarray | None = None,
) -> float:
    """Electrostatic field energy ``(eps0/2) * sum(|E|^2) * dA``.

    ``ez`` makes it 3D (``cell_area`` is then the cell volume).  The
    sum is ``backend.sum_squares`` over the components with unit scales
    (the NumPy kernel without a backend): the bits of
    ``np.sum(ex*ex + ey*ey [+ ez*ez])``, without its grid-sized
    temporaries.
    """
    comps = (ex, ey) if ez is None else (ex, ey, ez)
    return 0.5 * eps0 * _sum_squares(backend)(comps, (1.0,) * len(comps)) * cell_area


def kinetic_energy(
    vx: np.ndarray, vy: np.ndarray, weight: float, mass: float = 1.0,
    scale=(1.0, 1.0), backend=None, vz: np.ndarray | None = None,
) -> float:
    """Kinetic energy ``(m/2) * w * sum(v^2)`` of the macro-particles.

    ``scale`` converts stored velocities to physical ones per axis
    (three entries with ``vz``).  The sum is ``backend.sum_squares``
    (the NumPy kernel without a backend): one pass over the velocity
    columns, the bits of ``np.sum((vx*sx)**2 + (vy*sy)**2 [+ ...])``,
    with no N-sized temporary.
    """
    vs = (vx, vy) if vz is None else (vx, vy, vz)
    return 0.5 * mass * weight * _sum_squares(backend)(vs, scale)


def mode_amplitude(rho: np.ndarray, mode_x: int = 1, mode_y: int = 0) -> float:
    """|FFT coefficient| of a grid quantity at spatial mode (mx, my).

    Normalized so a field ``A*cos(k.x)`` returns ``A/2``; used to track
    the perturbed mode through damping or growth.  The row transforms,
    then the one column transform the mode needs: ``fft2``'s
    coefficient bit for bit (it transforms axis 1 first, then every
    column of axis 0), without the other columns.
    """
    coef = np.fft.fft(np.fft.fft(rho, axis=1)[:, mode_y])[mode_x]
    return float(np.abs(coef)) / rho.size


def log_envelope_peaks(series: np.ndarray, times: np.ndarray):
    """Local maxima of an oscillating positive series, as (t, log value).

    Landau-damped field energy oscillates at ~2*omega while its envelope
    decays; fitting the *peaks* extracts the envelope rate.
    """
    s = np.asarray(series, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    if len(s) < 3:
        raise ValueError("need at least 3 samples to find peaks")
    interior = (s[1:-1] > s[:-2]) & (s[1:-1] >= s[2:])
    idx = np.nonzero(interior)[0] + 1
    idx = idx[s[idx] > 0]
    return t[idx], np.log(s[idx])


def damping_rate_fit(
    field_energy_series: np.ndarray,
    times: np.ndarray,
    t_min: float | None = None,
    t_max: float | None = None,
) -> float:
    """Exponential rate of the field-*amplitude* envelope from its energy.

    Fits a line to ``log E_peaks(t)`` and halves the slope (energy goes
    as amplitude squared).  Negative return = damping; for linear
    Landau damping with ``k=0.5, vth=1`` theory gives ~ -0.1533.
    """
    tp, logp = log_envelope_peaks(field_energy_series, times)
    if t_min is not None:
        keep = tp >= t_min
        tp, logp = tp[keep], logp[keep]
    if t_max is not None:
        keep = tp <= t_max
        tp, logp = tp[keep], logp[keep]
    if len(tp) < 2:
        raise ValueError("not enough envelope peaks in the fit window")
    slope = np.polyfit(tp, logp, 1)[0]
    return 0.5 * float(slope)


def growth_rate_fit(
    field_energy_series: np.ndarray,
    times: np.ndarray,
    t_min: float | None = None,
    t_max: float | None = None,
) -> float:
    """Exponential growth rate of the field amplitude (two-stream).

    Fits ``log E(t)`` directly over the window (growth is monotone, no
    envelope extraction needed) and halves the slope.
    """
    s = np.asarray(field_energy_series, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    keep = s > 0
    if t_min is not None:
        keep &= t >= t_min
    if t_max is not None:
        keep &= t <= t_max
    if keep.sum() < 2:
        raise ValueError("not enough samples in the fit window")
    slope = np.polyfit(t[keep], np.log(s[keep]), 1)[0]
    return 0.5 * float(slope)


def momentum(vx, vy, weight: float, mass: float = 1.0) -> tuple[float, float]:
    """Total momentum ``m * w * sum(v)`` per component.

    Zero and conserved (to roundoff) in a periodic electrostatic
    system: the self-field exerts no net force.
    """
    return (
        mass * weight * float(np.sum(vx)),
        mass * weight * float(np.sum(vy)),
    )


def phase_space_histogram(stepper, vmax: float = 5.0, bins=(64, 32)):
    """(x, vx) phase-space density of a stepper's current state.

    Returns an ``(bins[0], bins[1])`` array, x along axis 0.  This is
    the diagnostic that shows two-stream trapping vortices.
    """
    g, p = stepper.grid, stepper.particles
    x = g.xmin + (np.asarray(p.ix) + np.asarray(p.dx)) * g.dx
    vx, _ = stepper.physical_velocities()
    hist, _, _ = np.histogram2d(
        x, np.clip(vx, -vmax, vmax), bins=bins,
        range=((g.xmin, g.xmax), (-vmax, vmax)),
    )
    return hist
