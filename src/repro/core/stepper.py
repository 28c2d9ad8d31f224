"""The leap-frog PIC time stepper (Fig. 1 of the paper), 2D or 3D.

One :class:`PICStepper` instance owns the grid, the field storage, the
particle storage, and the Poisson solver, and advances the coupled
system one time step at a time:

    sort (periodically) -> particle loops -> rho fold -> Poisson solve
    -> field broadcast

The deposit writes rho outright (it is not added into a zeroed
array), so there is no reset phase.

The particle loops run split (§IV-A), over redundant field rows
(§IV-B) and SoA particle columns (§IV-C1): update-v and update-x as one
pass of the backend's :meth:`~repro.core.backends.KernelBackend.advance`
(``c`` runs the two loops block by block, so that update-x reads what
update-v just streamed from cache), then the deposit as its own full
pass.  A step with a :attr:`PICStepper.phase_hook` runs update-v and
update-x as two full passes instead, to the same bits.  The scenario
zoo's physics rides in the same kernels: its reflecting wall is the
push's third wrap and its Boris rotation and external drive are stages
of update-v (:class:`~repro.core.kernels.Drive`).  Cache blocking is
otherwise not the stepper's business: the NumPy kernels block
internally (:mod:`repro.core.kernels`).

Unit conventions
----------------
Positions always live in grid units (``ix + dx in [0, ncx)``).  Loop
hoisting (§IV-D) is how every stepper runs: velocities are stored as
*grid displacement per time step* and the field is loaded into the
storage pre-scaled by ``q*dt^2 / (m*spacing)``, so both inner loops
are multiply-free; the stepper converts back to physical units for
diagnostics.  The un-hoisted baseline of Table IV is priced by
:mod:`repro.model` only.

Dimensions
----------
The paper's data structures do not depend on the dimension, and
neither does this class: it takes a :class:`~repro.grid.spec.GridSpec`
or a :class:`~repro.pic3d.grid3d.GridSpec3D` and reads of it only
``grid.shape``, ``grid.spacings`` and the cell measure (their
product).  One constructor, one loader
(:func:`~repro.particles.initializers.load_particles`), one set of
unit scales (one factor per axis), one t=0 stagger, one set of phase
bodies and one solve serve both.  What only 2D has is the scenario
zoo's physics (Boris / external drive, the reflecting wall), which a
3D grid refuses; :class:`repro.pic3d.stepper3d.PICStepper3D` is a
constructor adapter with the legacy 3D signature.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.backends import CBackend, KernelBackend, _check_cells, get_backend
from repro.core.config import OptimizationConfig
from repro.core.diagnostics import field_energy, kinetic_energy
from repro.core.kernels import Drive, wrap_for
from repro.core.team import ThreadTeam, shard_slices, usable_cpus
from repro.curves.base import get_ordering
from repro.grid.fields import RedundantFields
from repro.grid.poisson import SpectralPoissonSolver
from repro.particles.initializers import load_particles
from repro.particles.storage import ParticleSoA
from repro.perf.instrument import Instrumentation, StepTimings

__all__ = ["PICStepper", "StepTimings"]

#: the solved field's grid-point components, physical units, per axis
_E_GRID = ("ex_grid", "ey_grid", "ez_grid")


class PICStepper:
    """Advance a periodic Vlasov–Poisson system by leap-frog, 2d2v on a
    :class:`~repro.grid.spec.GridSpec` or 3d3v on a
    :class:`~repro.pic3d.grid3d.GridSpec3D`.

    Parameters
    ----------
    grid:
        The spatial grid; its number of axes is the run's dimension.
    config:
        The cell ordering, sort period and backend to run.
    particles:
        Pre-built particle storage (physical velocities); mutually
        exclusive with ``case``.
    case, n_particles, seed, quiet:
        Alternatively, an initial condition to sample (its ``sample``
        returns positions then velocities, one array per axis).  The
        scenario zoo's attributes (``boundary``, ``bz``, ``ext_e``) are
        read off the case, in 2D only.
    dt:
        Time step (plasma-frequency units with the defaults).
    q, m:
        Charge and mass of the macro-particles' species (electrons by
        default: ``q=-1, m=1``); a uniform neutralizing background is
        implied by the zero-mean Poisson solve.
    """

    def __init__(
        self,
        grid,
        config: OptimizationConfig,
        *,
        particles: ParticleSoA | None = None,
        case=None,
        n_particles: int | None = None,
        dt: float = 0.05,
        q: float = -1.0,
        m: float = 1.0,
        eps0: float = 1.0,
        seed: int | None = 0,
        quiet: bool = False,
    ):
        if not dt > 0:
            raise ValueError("dt must be positive")
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
        if len(grid.shape) != 2 and (self.boundary != "periodic" or self.bz
                                     or self.ext_e != (0.0, 0.0)):
            raise ValueError("walls, Boris rotation and external drive are 2D only")
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
            )
        self._attach_runtime()
        if case is not None:  # Fig. 1's line 1: sort at t=0
            self._phase_sort()
        #: rho and the physical field at grid points from the latest solve
        self.rho_grid = np.zeros(grid.shape)
        for name in _E_GRID[: len(grid.shape)]:
            setattr(self, name, np.zeros(grid.shape))
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
    # Unit scalings (§IV-D), one factor per axis
    # ------------------------------------------------------------------
    @property
    def _vel_scales(self) -> tuple:
        """Stored-velocity -> physical-velocity factor per axis,
        ``spacing / dt``."""
        return tuple(h / self.dt for h in self.grid.spacings)

    @property
    def _field_scales(self) -> tuple:
        """Physical-field -> stored-field factor per axis:
        ``q*dt^2/(m*spacing)``, so update-v adds grid displacement
        directly."""
        return tuple(
            self.q * self.dt**2 / (self.m * h) for h in self.grid.spacings
        )

    @property
    def _charge_factor(self) -> float:
        """Per-particle factor turning CiC weights into charge density:
        ``q * w`` over the cell measure (area in 2D, volume in 3D)."""
        return self.q * self.particles.weight / math.prod(self.grid.spacings)

    def physical_velocities(self) -> tuple:
        """Velocities in physical units, one array per axis."""
        return tuple(
            np.asarray(v) * s
            for v, s in zip(self._columns("v"), self._vel_scales)
        )

    # ------------------------------------------------------------------
    # Energies (§IV's conservation check), one pass each, any dimension
    # ------------------------------------------------------------------
    def field_energy(self) -> float:
        """``(eps0/2) Σ|E|²`` over the latest solve's grid field, times
        the cell measure."""
        e = [getattr(self, name) for name in _E_GRID[: len(self.grid.shape)]]
        return field_energy(*e[:2], math.prod(self.grid.spacings), self.eps0,
                            self.backend, *e[2:])

    def kinetic_energy(self) -> float:
        """``(m/2) w Σ|v|²`` of the particles, velocities in physical
        units (the stored columns times :attr:`_vel_scales`)."""
        v = self._columns("v")
        return kinetic_energy(*v[:2], self.particles.weight, self.m,
                              self._vel_scales, self.backend, *v[2:])

    def total_energy(self) -> float:
        return self.field_energy() + self.kinetic_energy()

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def _init_fields_and_stagger(self) -> None:
        """Compute rho and E at t=0, then shift v to t = -dt/2 (leap-frog)."""
        # loaded velocities are physical: convert to grid units/step
        for v, h in zip(self._columns("v"), self.grid.spacings):
            np.multiply(v, self.dt / h, out=v)
        self._deposit_and_solve()
        # half-kick backwards so v sits at -dt/2 while x sits at 0; with
        # a magnetic field this stays a plain electric half-kick (the
        # gyrophase offset is a one-off transient the time-averaging
        # oracles are insensitive to), the drive's field added
        e_p = self.backend.interpolate_rows(
            self.fields.e_1d, self.particles.icell, self._columns("d"))
        if self._drive is not None and self._drive.field is not None:
            e_p = tuple(e + g for e, g in zip(e_p, self._drive.field))
        self.backend.kick(self._columns("v"), e_p, (-0.5,) * len(e_p))

    def _attach_runtime(self, instrumentation=None) -> None:
        """Everything a stepper holds besides physics state; shared by
        the constructor and the checkpoint loader."""
        #: resolved kernel-execution backend (config.backend, "auto" applied)
        self.backend: KernelBackend = get_backend(self.config.backend)
        # the store's own fold / broadcast methods run this body too
        self.fields.body = self.backend
        #: the push's wrap and update-v's drive, from the zoo attributes
        self._wrap = wrap_for(self.grid.shape, self.boundary)
        self._drive = self._make_drive()
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
        #: the ``c`` backend's thread team (:meth:`_prepare` starts it)
        self._team: ThreadTeam | None = None
        self._closed = False

    def _prepare(self, init=None) -> None:
        """Backend hook, the thread team, then ``init()``:
        multi-process backends relocate the particle and field storage
        into shared memory here, before the first kernel call (a t=0
        deposit/solve in ``init`` already runs through it).  If
        anything after the hook raises, release what the hook acquired
        — a failed construction must not leak a worker pool, /dev/shm
        segments or threads until interpreter exit."""
        try:
            self.backend.prepare_stepper(self)
            self._start_team()
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
        paths and after a failed construction.  Stops the thread team.
        """
        if getattr(self, "_closed", False):
            return
        self._closed = True
        team, self._team = getattr(self, "_team", None), None
        if team is not None:
            team.close()
        self.backend.release_stepper(self)

    # ------------------------------------------------------------------
    # The thread team (§V's threads inside the process)
    # ------------------------------------------------------------------
    def _start_team(self) -> None:
        """A stepper on the ``c`` backend gets ``config.workers``
        threads (``None``: the usable CPUs), one per shard of
        :func:`~repro.core.team.shard_slices`; one shard starts none.
        Other backends get no team: ``numpy-mp`` has its processes, and
        NumPy's ufuncs hold the GIL for most of a shard
        (EXPERIMENTS.md)."""
        if not isinstance(self.backend, CBackend):
            return
        size = len(shard_slices(self.particles.n,
                                self.config.workers or usable_cpus()))
        if size > 1:
            self._team = ThreadTeam(size)

    def _shards(self) -> list:
        """The team's row ranges of the particles: none without a team,
        nor while the backend is not the ``c`` backend itself (the fault
        injector's trap stands in for it: a trapped kernel then raises
        once, as it does serially)."""
        team = self._team
        if team is None or not isinstance(self.backend, CBackend):
            return []
        return shard_slices(self.particles.n, team.size)

    def _on_team(self, body, check_cells: bool = False) -> list:
        """``body(columns)`` over the particles: once over the store
        without a team, else over every shard's mapping of column views
        at once, one shard per thread.  Every loop this runs is
        per-particle with no fold across particles, so a shard's bits
        are the serial loop's.  With ``check_cells`` every shard's
        cells are checked against the rows first, so that a cell
        outside them raises the serial :class:`IndexError` (global
        particle index) before any shard writes."""
        p, shards = self.particles, self._shards()
        if len(shards) < 2:
            return [body(p)]
        views = [{name: col[s] for name, col in p.items()} for s in shards]
        if check_cells:
            ncell, first_outside = len(self.fields.e_1d), self.backend.first_outside
            bad = self._team.map(lambda v: first_outside(v["icell"], ncell), views)
            for s, k in zip(shards, bad):
                _check_cells(s.start + k if k >= 0 else -1, p.icell, ncell)
        return self._team.map(body, views)

    # ------------------------------------------------------------------
    def _phase_sort(self) -> None:
        # the permutation build routes through the backend: same stable
        # counting sort, compiled cursor loop on backends that have one
        perm = self.backend.counting_sort_permutation(
            self.particles.icell, self.ordering.ncells_allocated)
        # the gathers are row copies: the team splits them by row range
        shards = self._shards()
        self.particles.reorder(
            perm, map_rows=(lambda gather: self._team.map(gather, shards))
            if len(shards) > 1 else None,
        )

    def _deposit_and_solve(self) -> None:
        """Accumulate rho from current positions, then solve for E."""
        self._phase_accumulate()
        self._solve_fields()

    # ------------------------------------------------------------------
    # Phase bodies: redundant rows, any dimension, hoisted units (no
    # per-axis factor in update-v or update-x)
    # ------------------------------------------------------------------
    def _columns(self, prefix: str, p=None) -> tuple:
        """The per-axis columns ``<prefix>x``, ... of ``p`` (a mapping
        of columns; the particle store by default)."""
        p = self.particles if p is None else p
        return tuple(p[prefix + a] for a in "xyz"[: len(self.grid.shape)])

    def _phase_update_v(self) -> None:
        e_1d, drive = self.fields.e_1d, self._drive
        self._on_team(lambda p: self.backend.update_v(
            self._columns("v", p), e_1d, p["icell"], self._columns("d", p),
            drive,
        ), check_cells=True)

    def _phase_update_x(self) -> None:
        args = (self.grid.shape, self.ordering, (1.0,) * len(self.grid.shape),
                self._wrap)
        self._on_team(lambda p: self.backend.push(p, *args))

    def _phase_advance(self) -> tuple[float, float]:
        """Update-v then update-x in one backend pass; the seconds of
        each loop (on the team: of the caller's shard)."""
        args = (self.fields.e_1d, self.grid.shape, self.ordering, self._wrap,
                self._drive)
        return self._on_team(lambda p: self.backend.advance(p, *args),
                             check_cells=True)[0]

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
        e_grid = self.solver.field(self.rho_grid)
        for name, comp in zip(_E_GRID, e_grid):
            setattr(self, name, comp)
        self._load_fields()

    def _load_fields(self) -> None:
        """Broadcast the solved field into the rows, each component
        times its ``_field_scales`` entry: pre-scaled to
        grid displacement per step (§IV-D)."""
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

            if hook is None:
                # update-v's own seconds, and the rest of the call (the
                # arguments, an encode in Python) with update-x's
                t0 = time.perf_counter()
                update_v = self._phase_advance()[0]
                instr.record_phase("update_v", update_v)
                instr.record_phase("update_x", time.perf_counter() - t0 - update_v)
            else:
                # the bisector reads the state between the two loops
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


    # ------------------------------------------------------------------
    # The scenario zoo's update-v stages (2D)
    # ------------------------------------------------------------------
    def _make_drive(self) -> Drive | None:
        """Update-v's :class:`~repro.core.kernels.Drive` of ``ext_e``
        (stored units) and ``bz`` (Boris's ``t = q bz dt / 2m`` and
        ``s = 2t / (1 + t²)``), or ``None`` when both are zero."""
        field = rotation = None
        if self.ext_e != (0.0, 0.0):
            field = tuple(e * s for e, s in zip(self.ext_e, self._field_scales))
        if self.bz != 0.0:
            t = self.q * self.bz * self.dt / (2.0 * self.m)
            rotation = (t, 2.0 * t / (1.0 + t * t))
        if field is None and rotation is None:
            return None
        return Drive(field, rotation, self._vel_scales)
