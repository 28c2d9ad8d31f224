"""Core PIC engine: the paper's optimized 2d2v Vlasov–Poisson solver.

The engine is assembled from interchangeable pieces selected by an
:class:`~repro.core.config.OptimizationConfig` — cell ordering, push
variant, sort cadence and backend — over one stepper, in hoisted units.  The
paper's Table IV stack (baseline → … → optimized update-positions) is
:class:`repro.model.config.ModelConfig`'s, which prices the rows no
stepper executes.

Public entry points:

* :class:`~repro.core.simulation.Simulation` — high-level façade.
* :class:`~repro.core.stepper.PICStepper` — the leap-frog loop.
* :mod:`~repro.core.kernels` — the vectorized particle kernels.
* :mod:`~repro.core.diagnostics` — energies, mode amplitudes, rate fits.
"""

from repro.core.backends import (
    BackendUnavailableError,
    KernelBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from repro.core.config import OptimizationConfig
from repro.core.stepper import PICStepper, StepTimings
from repro.core.simulation import Simulation, SimulationHistory
from repro.core.diagnostics import (
    damping_rate_fit,
    field_energy,
    growth_rate_fit,
    kinetic_energy,
    mode_amplitude,
)

__all__ = [
    "OptimizationConfig",
    "PICStepper",
    "StepTimings",
    "KernelBackend",
    "BackendUnavailableError",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
    "available_backends",
    "Simulation",
    "SimulationHistory",
    "field_energy",
    "kinetic_energy",
    "mode_amplitude",
    "damping_rate_fit",
    "growth_rate_fit",
]
