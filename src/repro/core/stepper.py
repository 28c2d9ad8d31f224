"""The leap-frog PIC time stepper (Fig. 1 of the paper).

One :class:`PICStepper` instance owns the grid, the field storage, the
particle storage, and the Poisson solver, and advances the coupled
system one time step at a time:

    sort (periodically) -> particle loops -> rho fold -> Poisson solve
    -> field broadcast

The deposit writes rho outright (it is not added into a zeroed
array), so there is no reset phase.

The particle loops run split: three full passes (update-v, update-x,
accumulate — §IV-A), over redundant field rows (§IV-B) and SoA particle
columns (§IV-C1).  ``OptimizationConfig``'s ``loop_mode``,
``field_layout`` and ``particle_layout`` do not change that: the
single-loop, point-based and AoS baselines they name are priced by
:mod:`repro.model`, not executed.  Cache blocking is not the stepper's
business: the NumPy kernels block internally
(:mod:`repro.core.kernels`).

Unit conventions
----------------
Positions always live in grid units (``ix + dx in [0, ncx)``).  With
loop hoisting (§IV-D) velocities are stored as *grid displacement per
time step* and the field is loaded into the storage pre-scaled by
``q*dt^2 / (m*spacing)``, so both inner loops are multiply-free; the
stepper converts back to physical units for diagnostics.  Without
hoisting, velocities are physical and the loops carry the multiplies.

:class:`StepLoop` is the loop itself — sort cadence, phase order,
hooks, instrumentation, backend lifecycle — and the phase bodies over
the redundant rows in hoisted units, the solve (ρ fold, Poisson,
scaled field broadcast) included, written once over ``grid.shape``
and the particle store's axis columns.
:class:`PICStepper` adds what only 2D has (Boris / external drive, the
reflecting wall, un-hoisted coefficients);
:class:`repro.pic3d.stepper3d.PICStepper3D` is a constructor, a loader,
the energies and its field scales.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import KernelBackend, get_backend
from repro.core.boundaries import push_positions_reflecting
from repro.core.config import OptimizationConfig
from repro.curves.base import get_ordering
from repro.grid.fields import RedundantFields
from repro.grid.poisson import SpectralPoissonSolver
from repro.grid.spec import GridSpec
from repro.particles.initializers import InitialCondition, load_particles
from repro.particles.sorting import sort_in_place, sort_out_of_place
from repro.particles.storage import ParticleStorage
from repro.perf.instrument import Instrumentation, StepTimings

__all__ = ["StepLoop", "PICStepper", "StepTimings"]

#: the solved field's grid-point components, physical units, per axis
_E_GRID = ("ex_grid", "ey_grid", "ez_grid")


class StepLoop:
    """Fig. 1's main loop over whatever state a subclass owns.

    A subclass builds ``grid``, ``config``, ``ordering``, ``fields``,
    ``solver`` and ``particles`` (a
    :class:`~repro.particles.storage.ParticleStorage`), then calls
    :meth:`_attach_runtime` and :meth:`_prepare`, and supplies
    ``_charge_factor`` and ``_field_scales``.  The phase bodies here
    serve redundant rows in hoisted units; a subclass with more cases
    overrides the body and falls through to these.
    """

    # scenario-zoo attributes as class-level defaults so instances
    # reconstructed via ``__new__`` (the checkpoint loader, including
    # pre-zoo checkpoints) and steppers without a zoo (3D) behave as
    # plain periodic electrostatic steppers unless the case says
    # otherwise
    boundary = "periodic"
    bz = 0.0
    ext_e = (0.0, 0.0)

    def _attach_runtime(self, instrumentation=None) -> None:
        """Everything a stepper holds besides physics state; shared by
        the constructors and the checkpoint loader."""
        #: resolved kernel-execution backend (config.backend, "auto" applied)
        self.backend: KernelBackend = get_backend(self.config.backend)
        # the store's own fold / broadcast methods run this body too
        self.fields.body = self.backend
        #: per-phase wall-clock recorder; `.timings` is its cumulative view
        self.instrumentation = (
            instrumentation if instrumentation is not None else Instrumentation()
        )
        self.timings: StepTimings = self.instrumentation.timings
        #: optional ``hook(phase_name, stepper)`` called after each phase
        #: of :meth:`step` completes — ``"sort"``, the particle-loop
        #: phases ``"update_v"``/``"update_x"``/``"accumulate"`` and
        #: ``"solve"``.  The differential
        #: verifier's bisector (:mod:`repro.verify.differ`) uses this to
        #: attribute a divergence to the kernel phase that produced it;
        #: hooks must not mutate the stepper state, and are observers
        #: of a live run, never part of checkpointed state.
        self.phase_hook = None
        self.iteration = 0
        #: double buffer of the out-of-place sort.  Allocated with the
        #: particles, not at the first sort: there it would be carved
        #: out of the heap space the kernels' N-sized temporaries keep
        #: reusing, and the next deposit would have to grow the heap
        #: (+10 % peak RSS at 1M particles)
        self._sort_buffer: ParticleStorage | None = None
        if self.config.sort_period and self.config.sort_variant != "in-place":
            self._sort_buffer = self.particles.clone_empty()
        self._closed = False

    def _prepare(self, init=None) -> None:
        """Backend hook, then ``init()``: multi-process backends
        relocate the particle and field storage into shared memory
        here, before the first kernel call (a t=0 deposit/solve in
        ``init`` already runs through it).  If anything after the hook
        raises, release what the hook acquired — a failed construction
        must not leak a worker pool or /dev/shm segments until
        interpreter exit."""
        try:
            self.backend.prepare_stepper(self)
            if init is not None:
                init()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Release backend-held per-stepper resources (idempotent).

        In-process backends hold none; the ``numpy-mp`` backend shuts
        down its worker pool and unlinks its shared-memory segments.
        Safe to call any number of times, including from exception
        paths and after a failed construction.
        """
        if getattr(self, "_closed", False):
            return
        self._closed = True
        self.backend.release_stepper(self)

    # ------------------------------------------------------------------
    def _phase_sort(self) -> None:
        ncells = self.ordering.ncells_allocated
        # the permutation build routes through the backend: same stable
        # counting sort, compiled cursor loop on backends that have one
        perm_fn = self.backend.counting_sort_permutation
        if self.config.sort_variant == "in-place":
            sort_in_place(self.particles, ncells, perm_fn=perm_fn)
            return
        if self._sort_buffer is None:  # sort_period == 0, sorted by hand
            self._sort_buffer = self.particles.clone_empty()
        sorted_parts = sort_out_of_place(
            self.particles, ncells, self._sort_buffer, perm_fn=perm_fn
        )
        self._sort_buffer = self.particles
        self.particles = sorted_parts

    def _deposit_and_solve(self) -> None:
        """Accumulate rho from current positions, then solve for E."""
        self._phase_accumulate()
        self._solve_fields()

    # ------------------------------------------------------------------
    # Phase bodies: redundant rows, any dimension.  Hoisted units make
    # every per-axis factor 1.0; PICStepper overrides the two factor
    # hooks for the un-hoisted study.
    # ------------------------------------------------------------------
    def _columns(self, prefix: str) -> tuple:
        """The particle store's per-axis columns ``<prefix>x``, ..."""
        p = self.particles
        return tuple(p[prefix + a] for a in "xyz"[: p.ndim])

    def _kick_coefs(self) -> tuple:
        """Multiplier applied inside update-velocities, per axis."""
        return (1.0,) * self.particles.ndim

    def _push_scales(self) -> tuple:
        """Stored velocity -> grid displacement per step, per axis."""
        return (1.0,) * self.particles.ndim

    def _interpolate(self) -> tuple:
        """Field at particles, in *stored* units (scaled when hoisted)."""
        return self.backend.interpolate_rows(
            self.fields.e_1d, self.particles.icell, self._columns("d")
        )

    def _phase_update_v(self) -> None:
        self.backend.kick(
            self._columns("v"), self._interpolate(), self._kick_coefs()
        )

    def _phase_update_x(self) -> None:
        self.backend.push(
            self.particles, self.grid.shape, self.ordering,
            self.config.position_update, self._push_scales(),
        )

    def _phase_accumulate(self) -> None:
        self.backend.accumulate_rows(
            self.fields.rho_1d, self.particles.icell, self._columns("d"),
            self._charge_factor,
        )

    def _solve_fields(self) -> None:
        """Fold rho onto grid points, solve, and store the field in
        stepper units: ``rho_grid`` and the physical ``e<axis>_grid``
        arrays are what diagnostics and checkpoints read."""
        self.rho_grid = self.backend.reduce_rows(self.fields)
        _, *e_grid = self.solver.solve(self.rho_grid)
        for name, comp in zip(_E_GRID, e_grid):
            setattr(self, name, comp)
        self._load_fields()

    def _load_fields(self) -> None:
        """Broadcast the solved field into the rows, each component
        times its ``_field_scales`` entry: pre-scaled to
        grid-displacement-per-step when hoisting is on (§IV-D),
        physical otherwise."""
        self.backend.broadcast_rows(
            self.fields,
            [getattr(self, name) for name in _E_GRID[: len(self.grid.shape)]],
            self._field_scales,
        )

    # ------------------------------------------------------------------
    # The public step
    # ------------------------------------------------------------------
    def step(self) -> None:
        """One iteration of Fig. 1's main loop (lines 4–13)."""
        cfg = self.config
        instr = self.instrumentation
        hook = self.phase_hook
        with instr.step(self.particles.n):
            with instr.phase("sort"):
                if (
                    cfg.sort_period
                    and self.iteration % cfg.sort_period == 0
                    and self.iteration
                ):
                    self._phase_sort()
            if hook is not None:
                hook("sort", self)

            with instr.phase("update_v"):
                self._phase_update_v()
            if hook is not None:
                hook("update_v", self)
            with instr.phase("update_x"):
                self._phase_update_x()
            if hook is not None:
                hook("update_x", self)
            with instr.phase("accumulate"):
                self._phase_accumulate()
            if hook is not None:
                hook("accumulate", self)

            with instr.phase("solve"):
                self._solve_fields()
            if hook is not None:
                hook("solve", self)
        self.iteration += 1

    def run(self, n_steps: int) -> None:
        """Advance ``n_steps`` iterations."""
        for _ in range(n_steps):
            self.step()


class PICStepper(StepLoop):
    """Advance a 2d2v periodic Vlasov–Poisson system by leap-frog.

    Parameters
    ----------
    grid:
        The spatial grid.
    config:
        Which optimization variant of each kernel to run.
    particles:
        Pre-built particle storage; mutually exclusive with ``case``.
    case, n_particles, seed, quiet:
        Alternatively, an :class:`InitialCondition` to sample.
    dt:
        Time step (plasma-frequency units with the defaults).
    q, m:
        Charge and mass of the macro-particles' species (electrons by
        default: ``q=-1, m=1``); a uniform neutralizing background is
        implied by the zero-mean Poisson solve.
    """

    def __init__(
        self,
        grid: GridSpec,
        config: OptimizationConfig,
        *,
        particles: ParticleStorage | None = None,
        case: InitialCondition | None = None,
        n_particles: int | None = None,
        dt: float = 0.05,
        q: float = -1.0,
        m: float = 1.0,
        eps0: float = 1.0,
        seed: int | None = 0,
        quiet: bool = False,
    ):
        if config.position_update == "bitwise" and not grid.pow2:
            raise ValueError(
                "bitwise position update requires power-of-two grid dims "
                f"(got {grid.ncx} x {grid.ncy})"
            )
        self.grid = grid
        self.config = config
        self.dt = float(dt)
        self.q = float(q)
        self.m = float(m)
        self.eps0 = float(eps0)
        # scenario-zoo extensions, carried as attributes *on the case*
        # (defaults reproduce the plain periodic electrostatic stepper
        # bit for bit): a non-periodic boundary, a uniform out-of-plane
        # magnetic field, a uniform external electric field
        self.boundary = str(getattr(case, "boundary", "periodic") or "periodic")
        if self.boundary not in ("periodic", "reflecting"):
            raise ValueError(
                f"unsupported boundary {self.boundary!r} "
                "(periodic or reflecting)"
            )
        self.bz = float(getattr(case, "bz", 0.0) or 0.0)
        ext = getattr(case, "ext_e", None) or (0.0, 0.0)
        self.ext_e = (float(ext[0]), float(ext[1]))
        self._build_fields()

        if particles is not None:
            if case is not None:
                raise ValueError("pass either particles or case, not both")
            self.particles = particles
        else:
            if case is None or n_particles is None:
                raise ValueError("pass particles, or case and n_particles")
            self.particles = load_particles(
                grid,
                self.ordering,
                case,
                n_particles,
                seed=seed,
                quiet=quiet,
                store_coords=config.effective_store_coords,
            )
        if self.particles.store_coords != config.effective_store_coords:
            raise ValueError(
                "particle storage store_coords does not match config "
                f"({self.particles.store_coords} vs {config.effective_store_coords})"
            )
        self._attach_runtime()
        #: physical (Ex, Ey) at grid points from the latest solve
        self.ex_grid = np.zeros((grid.ncx, grid.ncy))
        self.ey_grid = np.zeros((grid.ncx, grid.ncy))
        self.rho_grid = np.zeros((grid.ncx, grid.ncy))
        self._prepare(self._init_fields_and_stagger)

    def _build_fields(self) -> None:
        """Ordering, field storage and solver from grid + config."""
        grid, config = self.grid, self.config
        self.ordering = get_ordering(
            config.ordering, *grid.shape, **config.ordering_kwargs
        )
        self.fields = RedundantFields(grid, self.ordering)
        self.solver = SpectralPoissonSolver(grid, self.eps0)

    # ------------------------------------------------------------------
    # Unit scalings (§IV-D)
    # ------------------------------------------------------------------
    @property
    def _vel_scale_x(self) -> float:
        """Stored-velocity -> physical-velocity factor along x."""
        return self.grid.dx / self.dt if self.config.hoisting else 1.0

    @property
    def _vel_scale_y(self) -> float:
        return self.grid.dy / self.dt if self.config.hoisting else 1.0

    @property
    def _field_scales(self) -> tuple[float, float]:
        """Physical-field -> stored-field factor per axis.

        Hoisted: ``q*dt^2/(m*spacing)`` so update-v adds grid
        displacement directly; otherwise 1 (field stored physical).
        """
        if self.config.hoisting:
            return tuple(
                self.q * self.dt**2 / (self.m * h)
                for h in (self.grid.dx, self.grid.dy)
            )
        return 1.0, 1.0

    @property
    def _charge_factor(self) -> float:
        """Per-particle factor turning CiC weights into charge density."""
        return self.q * self.particles.weight / self.grid.cell_area

    def physical_velocities(self) -> tuple[np.ndarray, np.ndarray]:
        """Velocities in physical units regardless of hoisting."""
        return (
            np.asarray(self.particles.vx) * self._vel_scale_x,
            np.asarray(self.particles.vy) * self._vel_scale_y,
        )

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def _init_fields_and_stagger(self) -> None:
        """Compute rho and E at t=0, then shift v to t = -dt/2 (leap-frog)."""
        if self.config.hoisting:
            # loaded velocities are physical: convert to grid units/step
            self.particles.vx[:] = self.particles.vx * (self.dt / self.grid.dx)
            self.particles.vy[:] = self.particles.vy * (self.dt / self.grid.dy)
        self._deposit_and_solve()
        # half-kick backwards so v sits at -dt/2 while x sits at 0; with
        # a magnetic field this stays a plain electric half-kick (the
        # gyrophase offset is a one-off transient the time-averaging
        # oracles are insensitive to)
        e_p = self._add_external_field(*self._interpolate())
        cvx, cvy = self._kick_coefs()
        self.backend.kick(self._columns("v"), e_p, (-0.5 * cvx, -0.5 * cvy))

    # ------------------------------------------------------------------
    # Phases: what 2D adds to StepLoop's bodies
    # ------------------------------------------------------------------
    def _kick_coefs(self) -> tuple[float, float]:
        if self.config.hoisting:
            return 1.0, 1.0
        return self.q * self.dt / self.m, self.q * self.dt / self.m

    def _push_scales(self) -> tuple[float, float]:
        if self.config.hoisting:
            return 1.0, 1.0
        return self.dt / self.grid.dx, self.dt / self.grid.dy

    def _add_external_field(self, ex_p, ey_p):
        """Add the case's uniform external E (stored units); no-op bitwise
        when ``ext_e`` is zero — the arrays pass through untouched."""
        if self.ext_e != (0.0, 0.0):
            sx, sy = self._field_scales
            ex_p = ex_p + self.ext_e[0] * sx
            ey_p = ey_p + self.ext_e[1] * sy
        return ex_p, ey_p

    def _phase_update_v_boris(self) -> None:
        """Velocity update under a uniform out-of-plane ``bz`` (Boris).

        Half electric kick, exact magnetic rotation of the *physical*
        velocities, half electric kick — the standard volume-preserving
        splitting.  Both half kicks reuse the backend's kick kernel so
        any engine-side parallelism still applies; the rotation is a
        cheap whole-array sweep in the parent.
        """
        p = self.particles
        e_p = self._add_external_field(*self._interpolate())
        cvx, cvy = self._kick_coefs()
        if self.bz == 0.0:
            # external E only: one full kick, same kernel as unmagnetized
            self.backend.kick((p.vx, p.vy), e_p, (cvx, cvy))
            return
        self.backend.kick((p.vx, p.vy), e_p, (0.5 * cvx, 0.5 * cvy))
        t = self.q * self.bz * self.dt / (2.0 * self.m)
        s = 2.0 * t / (1.0 + t * t)
        svx, svy = self._vel_scale_x, self._vel_scale_y
        vx_ph = np.asarray(p.vx) * svx
        vy_ph = np.asarray(p.vy) * svy
        vpx = vx_ph + vy_ph * t
        vpy = vy_ph - vx_ph * t
        p.vx[:] = (vx_ph + vpy * s) / svx
        p.vy[:] = (vy_ph - vpx * s) / svy
        self.backend.kick((p.vx, p.vy), e_p, (0.5 * cvx, 0.5 * cvy))

    def _phase_update_v(self) -> None:
        if self.bz != 0.0 or self.ext_e != (0.0, 0.0):
            self._phase_update_v_boris()
        else:
            super()._phase_update_v()

    def _phase_update_x(self) -> None:
        if self.boundary == "reflecting":
            g = self.grid
            push_positions_reflecting(
                self.particles, g.ncx, g.ncy, self.ordering, *self._push_scales()
            )
        else:
            super()._phase_update_x()
