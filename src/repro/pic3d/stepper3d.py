"""Config-driven 3d3v leap-frog PIC stepper on redundant cell rows.

Capability parity with the 2D :class:`repro.core.stepper.PICStepper`:
the same ``_select_loop_path`` dispatch (``split`` /
``fused-backend``), the ``parallel_deposit`` and ``fused3d`` backend
capabilities, phase hooks for the differential verifier, and the
``numpy-mp`` corner-ownership deposit — all over the trilinear 8-corner
kernels of :mod:`repro.pic3d.kernels3d`.

One deliberate divergence from 2D: the 3D stepper only implements
*hoisted* units (velocities stored as grid displacement per step,
field rows pre-scaled by ``q*dt^2/(m*spacing)``) — the hoisting study
itself lives in 2D.  As in 2D, the fused path is **bitwise identical
to the split path at every population size**: the sweep before the
deposit is elementwise per particle, and one whole-grid deposit
follows it on either path.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import KernelBackend, get_backend
from repro.core.config import OptimizationConfig
from repro.particles.initializers import halton_sequence, sample_perturbed_positions
from repro.perf.instrument import Instrumentation
from repro.pic3d.grid3d import GridSpec3D, RedundantFields3D
from repro.pic3d.ordering3d import Morton3DOrdering, Ordering3D, RowMajor3DOrdering
from repro.pic3d.poisson3d import SpectralPoissonSolver3D

__all__ = ["LandauDamping3D", "TwoStream3D", "PICStepper3D"]

#: per-particle arrays of the dict-of-arrays 3D storage (the order the
#: checkpoint format and the differential verifier iterate them in)
PARTICLE_KEYS_3D = (
    "icell", "ix", "iy", "iz", "dx", "dy", "dz", "vx", "vy", "vz",
)


class LandauDamping3D:
    """3D Landau damping: Maxwellian with a cos(kx x) density ripple."""

    def __init__(self, alpha: float = 0.05, vth: float = 1.0, mode: int = 1):
        self.alpha = float(alpha)
        self.vth = float(vth)
        self.mode = int(mode)

    def sample(self, n: int, grid: GridSpec3D):
        """Quiet-start sample of physical positions and velocities."""
        lx, ly, lz = grid.lengths
        kx = 2 * np.pi * self.mode / lx
        x = grid.xmin + sample_perturbed_positions(n, lx, self.alpha, kx, quiet=True)
        y = grid.ymin + ly * halton_sequence(n, 3)
        z = grid.zmin + lz * halton_sequence(n, 5)

        def normal(base):
            u1 = np.clip(halton_sequence(n, base), 1e-12, 1.0)
            u2 = halton_sequence(n, base + 4)
            return self.vth * np.sqrt(-2 * np.log(u1)) * np.cos(2 * np.pi * u2)

        return x, y, z, normal(7), normal(13), normal(19)


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
        lx, ly, lz = grid.lengths
        kx = 2 * np.pi * self.mode / lx
        x = grid.xmin + sample_perturbed_positions(n, lx, self.alpha, kx, quiet=True)
        y = grid.ymin + ly * halton_sequence(n, 3)
        z = grid.zmin + lz * halton_sequence(n, 5)

        def normal(base):
            u1 = np.clip(halton_sequence(n, base), 1e-12, 1.0)
            u2 = halton_sequence(n, base + 4)
            return self.vth * np.sqrt(-2 * np.log(u1)) * np.cos(2 * np.pi * u2)

        beam = np.where(halton_sequence(n, 23) < 0.5, self.v0, -self.v0)
        return x, y, z, normal(7) + beam, normal(13), normal(19)


def _ordering_for(name: str, grid: GridSpec3D) -> Ordering3D:
    """Map a 2D-config ordering name onto the two 3D curves.

    3D ships exactly two orderings; ``"row-major"`` (and its transpose
    twin) map to the row-major curve, every space-filling-curve name
    maps to Morton — the closest 3D analogue of each.
    """
    if name in ("row-major", "column-major", "row-major-3d"):
        return RowMajor3DOrdering(*grid.shape)
    return Morton3DOrdering(*grid.shape)


class PICStepper3D:
    """Leap-frog 3d3v Vlasov–Poisson stepper (hoisted units).

    Parameters mirror the legacy constructor; a full
    :class:`~repro.core.config.OptimizationConfig` may be supplied via
    ``config`` to drive loop-path dispatch, sorting and backend
    selection exactly as in 2D (``backend``/``sort_period``
    are then taken from the config and the legacy kwargs ignored).
    Particles are a plain dict of arrays keyed by
    :data:`PARTICLE_KEYS_3D`; all kernels write *through* those arrays
    so a ``numpy-mp`` engine can relocate them into shared memory
    once, in :meth:`~repro.core.backends.KernelBackend.prepare_stepper`.
    """

    def __init__(
        self,
        grid: GridSpec3D,
        case: LandauDamping3D,
        n_particles: int,
        dt: float = 0.1,
        q: float = -1.0,
        m: float = 1.0,
        ordering: Ordering3D | None = None,
        sort_period: int = 20,
        backend: str = "auto",
        config: OptimizationConfig | None = None,
    ):
        if config is None:
            config = OptimizationConfig(
                field_layout="redundant",
                ordering="morton",
                loop_mode="split",
                position_update="bitwise",
                hoisting=True,
                sort_period=int(sort_period),
                backend=backend,
            )
        if not config.hoisting:
            raise ValueError("the 3D stepper only implements hoisted units")
        if config.field_layout != "redundant":
            raise ValueError("the 3D stepper only implements the redundant layout")
        if config.position_update == "bitwise" and not grid.pow2:
            raise ValueError("the bitwise push requires power-of-two dims")
        self.grid = grid
        self.config = config
        self.dt = float(dt)
        self.q = float(q)
        self.m = float(m)
        self.sort_period = int(config.sort_period)
        self.ordering = ordering or _ordering_for(config.ordering, grid)
        self.fields = RedundantFields3D(grid, self.ordering)
        self.solver = SpectralPoissonSolver3D(grid)
        self.backend: KernelBackend = get_backend(config.backend)
        self.instrumentation = Instrumentation()
        self.timings = self.instrumentation.timings
        #: optional ``hook(phase_name, stepper)`` — same contract as the
        #: 2D stepper's: called after ``"sort"``, the particle-loop
        #: phases (``"update_v"``/``"update_x"``/``"accumulate"`` when
        #: split, ``"fused"``/``"accumulate"`` otherwise) and
        #: ``"solve"``; hooks must not mutate stepper state.
        self.phase_hook = None
        self.iteration = 0

        x, y, z, vx, vy, vz = case.sample(n_particles, grid)
        dx, dy, dz = grid.spacings
        xg = (x - grid.xmin) / dx
        yg = (y - grid.ymin) / dy
        zg = (z - grid.zmin) / dz
        ix = np.floor(xg).astype(np.int64) % grid.ncx
        iy = np.floor(yg).astype(np.int64) % grid.ncy
        iz = np.floor(zg).astype(np.int64) % grid.ncz
        self.weight = grid.volume / n_particles  # density 1
        self.particles = {
            "icell": self.ordering.encode(ix, iy, iz),
            "ix": ix, "iy": iy, "iz": iz,
            "dx": xg - np.floor(xg), "dy": yg - np.floor(yg), "dz": zg - np.floor(zg),
            # hoisted: grid displacement per step
            "vx": vx * self.dt / dx, "vy": vy * self.dt / dy, "vz": vz * self.dt / dz,
        }
        self._sort()
        self._closed = False
        # backend hook before the first kernel call, exactly as in 2D:
        # the numpy-mp engine relocates the deposit inputs into shared
        # memory here, so the t=0 deposit below already runs through it.
        try:
            self.backend.prepare_stepper(self)
            self._deposit_and_solve()
            # leap-frog stagger: half kick backwards
            ex, ey, ez = self.backend.interpolate_redundant_3d(
                self.fields.e_1d, self.particles["icell"],
                self.particles["dx"], self.particles["dy"], self.particles["dz"],
            )
            self.particles["vx"] -= 0.5 * ex
            self.particles["vy"] -= 0.5 * ey
            self.particles["vz"] -= 0.5 * ez
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Release backend-held per-stepper resources (idempotent)."""
        if getattr(self, "_closed", True):
            return
        self._closed = True
        self.backend.release_stepper(self)

    # ------------------------------------------------------------------
    @property
    def _field_scales(self) -> tuple[float, float, float]:
        dx, dy, dz = self.grid.spacings
        f = self.q * self.dt**2 / self.m
        return f / dx, f / dy, f / dz

    @property
    def _charge_factor(self) -> float:
        return self.q * self.weight / self.grid.cell_volume

    @property
    def n(self) -> int:
        return len(self.particles["icell"])

    def _sort(self) -> None:
        order = np.argsort(self.particles["icell"], kind="stable")
        # scatter in place (arr[order] materializes first) so shared-
        # memory arrays exported to numpy-mp workers keep their identity
        for arr in self.particles.values():
            arr[:] = arr[order]

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _phase_update_v(self) -> None:
        p = self.particles
        ex, ey, ez = self.backend.interpolate_redundant_3d(
            self.fields.e_1d, p["icell"], p["dx"], p["dy"], p["dz"]
        )
        p["vx"] += ex
        p["vy"] += ey
        p["vz"] += ez

    def _phase_update_x(self) -> None:
        self.backend.push_positions_3d(
            self.particles, self.grid.shape, self.ordering,
            variant=self.config.position_update,
        )

    def _phase_fused(self) -> None:
        self.backend.fused_interp_kick_push_3d(
            self.fields, self.particles, self.ordering,
            self.config.position_update,
        )

    def _phase_accumulate(self) -> None:
        """Whole-grid deposit through the same two-rung ladder as 2D:
        the backend's parallel cell-ownership kernel when offered,
        serial otherwise — bitwise-identical by construction."""
        p = self.particles
        if self.backend.supports("parallel_deposit"):
            self.backend.accumulate_redundant_parallel_3d(
                self.fields.rho_1d, p["icell"], p["dx"], p["dy"], p["dz"],
                self._charge_factor,
            )
            return
        self.backend.accumulate_redundant_3d(
            self.fields.rho_1d, p["icell"], p["dx"], p["dy"], p["dz"],
            self._charge_factor,
        )

    def _solve(self) -> None:
        self.rho_grid = self.fields.reduce_rho_to_grid()
        _, ex, ey, ez = self.solver.solve(self.rho_grid)
        self.ex_grid, self.ey_grid, self.ez_grid = ex, ey, ez
        sx, sy, sz = self._field_scales
        self.fields.load_field_from_grid(ex * sx, ey * sy, ez * sz)

    def _deposit_and_solve(self) -> None:
        self.fields.reset_rho()
        self._phase_accumulate()
        self._solve()

    def _select_loop_path(self) -> str:
        """Which particle-loop path this step will run.

        Mirrors the 2D selector: ``"split"`` — three passes over the
        population; ``"fused-backend"`` — the backend's single-pass 3D
        kernel.  ``loop_mode="auto"`` resolves to ``split`` (the 2D
        continuous tuner is not ported).
        """
        return "fused-backend" if self.config.loop_mode == "fused" else "split"

    # ------------------------------------------------------------------
    def step(self) -> None:
        instr = self.instrumentation
        hook = self.phase_hook
        with instr.step(self.n):
            with instr.phase("sort"):
                if (
                    self.sort_period
                    and self.iteration
                    and self.iteration % self.sort_period == 0
                ):
                    self._sort()
            if hook is not None:
                hook("sort", self)

            self.fields.reset_rho()
            path = self._select_loop_path()
            instr.record_path(path)
            if path == "split":
                with instr.phase("update_v"):
                    self._phase_update_v()
                if hook is not None:
                    hook("update_v", self)
                with instr.phase("update_x"):
                    self._phase_update_x()
                if hook is not None:
                    hook("update_x", self)
            else:  # fused-backend
                with instr.phase("fused"):
                    self._phase_fused()
                if hook is not None:
                    hook("fused", self)
            # one whole-grid deposit on either path: the per-particle
            # phases above are elementwise, and the deposit sees the
            # identical arrays in the identical order
            with instr.phase("accumulate"):
                self._phase_accumulate()
            if hook is not None:
                hook("accumulate", self)

            with instr.phase("solve"):
                self._solve()
            if hook is not None:
                hook("solve", self)
        self.iteration += 1

    def run(self, n_steps: int) -> None:
        for _ in range(n_steps):
            self.step()

    # ------------------------------------------------------------------
    def field_energy(self) -> float:
        return 0.5 * float(
            np.sum(self.ex_grid**2 + self.ey_grid**2 + self.ez_grid**2)
        ) * self.grid.cell_volume

    def kinetic_energy(self) -> float:
        dx, dy, dz = self.grid.spacings
        p = self.particles
        v2 = (
            (p["vx"] * dx / self.dt) ** 2
            + (p["vy"] * dy / self.dt) ** 2
            + (p["vz"] * dz / self.dt) ** 2
        )
        return 0.5 * self.m * self.weight * float(np.sum(v2))

    def total_energy(self) -> float:
        return self.field_energy() + self.kinetic_energy()
