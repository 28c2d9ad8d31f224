"""The 3D cases and the legacy 3D constructor.

A 3d3v run is a :class:`repro.core.stepper.PICStepper` over a
:class:`~repro.pic3d.grid3d.GridSpec3D`: the same constructor, loader,
unit scales, stagger, phase bodies, solve, sort and checkpoint pair as
2D, the particles a :class:`~repro.particles.storage.ParticleSoA` with
``ndim=3`` and the field rows the generic
:class:`~repro.grid.fields.RedundantFields` (8 corners per cell).
What lives here is the two 3D cases (always a quiet start: their
``sample`` ignores ``rng`` and ``quiet``) and :class:`PICStepper3D`,
an adapter that keeps the legacy constructor signature and defaults,
maps any configured ordering name onto the two curves a 3D grid has,
and carries the accessors the benchmark ledger reads.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import OptimizationConfig
from repro.core.stepper import PICStepper
from repro.curves.base import available_orderings
from repro.particles.initializers import halton_sequence, sample_perturbed_positions
from repro.pic3d.grid3d import GridSpec3D

__all__ = ["LandauDamping3D", "TwoStream3D", "PICStepper3D"]

#: the configured ordering names a 3D run lays out row-major; every
#: other registered name runs Morton (L4D and Hilbert order 2D grids
#: only)
_SCAN_ORDERS = ("row-major", "column-major")


def _quiet_start(n, grid, alpha, mode, vth):
    """Quiet-start physical positions and velocities of ``n`` particles:
    a ``cos(kx x)`` density ripple of amplitude ``alpha`` along x, Halton
    points across y and z, and a Maxwellian of spread ``vth`` per axis
    (Box–Muller over Halton pairs)."""
    lx, ly, lz = grid.lengths
    kx = 2 * np.pi * mode / lx
    x = grid.xmin + sample_perturbed_positions(n, lx, alpha, kx, quiet=True)
    y = grid.ymin + ly * halton_sequence(n, 3)
    z = grid.zmin + lz * halton_sequence(n, 5)

    def normal(base):
        u1 = np.clip(halton_sequence(n, base), 1e-12, 1.0)
        u2 = halton_sequence(n, base + 4)
        return vth * np.sqrt(-2 * np.log(u1)) * np.cos(2 * np.pi * u2)

    return x, y, z, normal(7), normal(13), normal(19)


class LandauDamping3D:
    """3D Landau damping: Maxwellian with a cos(kx x) density ripple."""

    def __init__(self, alpha: float = 0.05, vth: float = 1.0, mode: int = 1):
        self.alpha = float(alpha)
        self.vth = float(vth)
        self.mode = int(mode)

    def sample(self, n: int, grid: GridSpec3D, rng=None, quiet=False):
        """Quiet-start sample of physical positions and velocities
        (``rng`` and ``quiet`` are ignored: always a quiet start)."""
        return _quiet_start(n, grid, self.alpha, self.mode, self.vth)


class TwoStream3D:
    """3D two-stream instability: counter-streaming beams along x.

    Two cold-ish beams at ``±v0`` (each with thermal spread ``vth``)
    seeded with a small ``cos(kx x)`` density ripple; the instability
    grows at the §V two-stream rate since the transverse dynamics stay
    linear.  Gives the 3D stepper a growth-rate acceptance test to
    complement :class:`LandauDamping3D`'s damping-rate one.
    """

    def __init__(self, v0: float = 2.4, vth: float = 0.1,
                 alpha: float = 1e-3, mode: int = 1):
        self.v0 = float(v0)
        self.vth = float(vth)
        self.alpha = float(alpha)
        self.mode = int(mode)

    def sample(self, n: int, grid: GridSpec3D, rng=None, quiet=False):
        """Quiet-start sample of physical positions and velocities
        (``rng`` and ``quiet`` are ignored: always a quiet start)."""
        x, y, z, vx, vy, vz = _quiet_start(n, grid, self.alpha, self.mode, self.vth)
        beam = np.where(halton_sequence(n, 23) < 0.5, self.v0, -self.v0)
        return x, y, z, vx + beam, vy, vz


class PICStepper3D(PICStepper):
    """The legacy 3D constructor of a :class:`PICStepper`.

    Parameters mirror the legacy constructor; a full
    :class:`~repro.core.config.OptimizationConfig` may be supplied via
    ``config`` to drive ordering, sorting and backend
    selection exactly as in 2D (``backend``/``sort_period``
    are then taken from the config and the legacy kwargs ignored).
    The configured ordering runs row-major if it is a scan order and
    Morton otherwise; the run's config names the curve that runs.
    """

    def __init__(
        self,
        grid: GridSpec3D,
        case: LandauDamping3D,
        n_particles: int,
        dt: float = 0.1,
        q: float = -1.0,
        m: float = 1.0,
        sort_period: int = 20,
        backend: str = "auto",
        config: OptimizationConfig | None = None,
    ):
        if config is None:
            config = OptimizationConfig(
                ordering="morton",
                sort_period=int(sort_period),
                backend=backend,
            )
        name = config.ordering.lower()
        if name not in available_orderings():
            raise KeyError(
                f"unknown ordering {name!r}; available: {available_orderings()}"
            )
        curve = "row-major" if name in _SCAN_ORDERS else "morton"
        super().__init__(
            grid, config.with_(ordering=curve, ordering_kwargs={}),
            case=case, n_particles=n_particles, dt=dt, q=q, m=m,
            seed=None, quiet=True,
        )

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.particles.n

    @property
    def weight(self) -> float:
        return self.particles.weight

    @property
    def sort_period(self) -> int:
        return self.config.sort_period
