"""Config-driven 3d3v leap-frog PIC stepper on redundant cell rows.

A client of the 2D machinery: the step loop, sort, phase hooks, backend lifecycle *and the phase bodies*, the
solve included, are :class:`repro.core.stepper.StepLoop`'s, the field
store the generic :class:`~repro.grid.fields.RedundantFields`, the
particles a :class:`~repro.particles.storage.ParticleSoA` with
``ndim=3``, and ``numpy-mp`` drives it through the same engine as 2D.
What lives here is the 3D state: constructor, particle loader,
energies and the field scales.  Units are hoisted, as in 2D
(velocities stored as grid displacement per step, field rows
pre-scaled by ``q*dt^2/(m*spacing)``), and the sort is 2D's: the store
gathers each of its ten columns through a spare column of its dtype,
split by row range on the ``c`` team, so no second store sits on the
peak footprint the construction sets.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import OptimizationConfig
from repro.core.stepper import StepLoop
from repro.curves.base import available_orderings, get_ordering
from repro.grid.fields import RedundantFields
from repro.grid.poisson import SpectralPoissonSolver
from repro.particles.initializers import halton_sequence, sample_perturbed_positions
from repro.particles.storage import ParticleSoA
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

    def sample(self, n: int, grid: GridSpec3D):
        """Quiet-start sample of physical positions and velocities."""
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

    def sample(self, n: int, grid: GridSpec3D):
        """Quiet-start sample of physical positions and velocities."""
        x, y, z, vx, vy, vz = _quiet_start(n, grid, self.alpha, self.mode, self.vth)
        beam = np.where(halton_sequence(n, 23) < 0.5, self.v0, -self.v0)
        return x, y, z, vx + beam, vy, vz


class PICStepper3D(StepLoop):
    """Leap-frog 3d3v Vlasov–Poisson stepper (hoisted units).

    Parameters mirror the legacy constructor; a full
    :class:`~repro.core.config.OptimizationConfig` may be supplied via
    ``config`` to drive ordering, push variant, sorting and backend
    selection exactly as in 2D (``backend``/``sort_period``
    are then taken from the config and the legacy kwargs ignored).
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
                position_update="bitwise",
                sort_period=int(sort_period),
                backend=backend,
            )
        if not dt > 0:
            raise ValueError("dt must be positive")
        if config.position_update == "bitwise" and not grid.pow2:
            raise ValueError("the bitwise push requires power-of-two dims")
        self.grid = grid
        self.config = config
        self.dt = float(dt)
        self.q = float(q)
        self.m = float(m)
        self._build_fields()

        self.particles = self._load_particles(case, n_particles)
        self._attach_runtime()
        self._phase_sort()
        self._prepare(self._init_fields_and_stagger)

    def _build_fields(self) -> None:
        """Ordering, field storage and solver from grid + config."""
        name = self.config.ordering.lower()
        if name not in available_orderings():
            raise KeyError(
                f"unknown ordering {name!r}; available: {available_orderings()}"
            )
        curve = "row-major" if name in _SCAN_ORDERS else "morton"
        self.ordering = get_ordering(curve, *self.grid.shape)
        self.fields = RedundantFields(self.grid, self.ordering)
        self.solver = SpectralPoissonSolver(self.grid)

    def _load_particles(self, case, n: int) -> ParticleSoA:
        """Sample ``case`` at density 1, every column computed straight
        into the store (in hoisted units: grid displacement per step)."""
        grid = self.grid
        p = ParticleSoA(n, grid.volume / n, store_coords=True, ndim=3)
        sample = case.sample(n, grid)
        lows = (grid.xmin, grid.ymin, grid.zmin)
        for a, x, v, low, h, nc in zip(
            "xyz", sample[:3], sample[3:], lows, grid.spacings, grid.shape
        ):
            xg = (x - low) / h
            cell = np.floor(xg)
            p["i" + a][:] = cell.astype(np.int64) % nc
            p["d" + a][:] = xg - cell
            p["v" + a][:] = v * self.dt / h
        p.icell[:] = self.ordering.encode(p.ix, p.iy, p.iz)
        return p

    def _init_fields_and_stagger(self) -> None:
        """rho and E at t=0, then the leap-frog half kick backwards."""
        self._deposit_and_solve()
        self.backend.kick(self._columns("v"), self._interpolate(), (-0.5,) * 3)

    # ------------------------------------------------------------------
    @property
    def _field_scales(self) -> tuple[float, float, float]:
        """Physical field -> displacement per step, per axis."""
        dx, dy, dz = self.grid.spacings
        f = self.q * self.dt**2 / self.m
        return f / dx, f / dy, f / dz

    @property
    def _charge_factor(self) -> float:
        return self.q * self.weight / self.grid.cell_volume

    @property
    def n(self) -> int:
        return self.particles.n

    @property
    def weight(self) -> float:
        return self.particles.weight

    @property
    def sort_period(self) -> int:
        return self.config.sort_period

    # ------------------------------------------------------------------
    def field_energy(self) -> float:
        return 0.5 * float(
            np.sum(self.ex_grid**2 + self.ey_grid**2 + self.ez_grid**2)
        ) * self.grid.cell_volume

    def kinetic_energy(self) -> float:
        dx, dy, dz = self.grid.spacings
        p = self.particles
        v2 = (
            (p.vx * dx / self.dt) ** 2
            + (p.vy * dy / self.dt) ** 2
            + (p.vz * dz / self.dt) ** 2
        )
        return 0.5 * self.m * self.weight * float(np.sum(v2))

    def total_energy(self) -> float:
        return self.field_energy() + self.kinetic_energy()
