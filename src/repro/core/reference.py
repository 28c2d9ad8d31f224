"""Scalar reference kernels and the full-step reference stepper.

Plain-Python, one-particle-at-a-time implementations of the same math
as :mod:`repro.core.kernels`.  Deliberately naive: the vectorized
kernels are validated against these on small populations, so any
cleverness in the fast path (bincount scatters, gathers, bitwise
wraps) is checked against arithmetic a reader can verify by eye
against the paper's Fig. 2 pseudo-code.

:class:`ReferenceStepper` chains the scalar kernels into the *complete*
Fig. 1 time step — counting sort included — so the reference covers
everything the optimized steppers do to the particles, not just
isolated kernels.  It is the baseline of the differential-verification
subsystem (:mod:`repro.verify`): the numpy backend must reproduce it
**bitwise** over whole runs, which pins every association and rounding
choice in the fast path.  Two pieces are intentionally shared rather
than re-derived scalar-by-scalar: the spectral Poisson solve and the
redundant-layout grid fold/broadcast, which are grid-level (not
particle-loop) code and identical objects in both steppers.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.kernels import wrap_for

__all__ = [
    "accumulate_redundant_ref",
    "interpolate_redundant_ref",
    "push_axis_ref",
    "push_axis_variant_ref",
    "corner_weights_ref",
    "ReferenceStepper",
]

# Fig. 2 coefficient tables
_CX = (1.0, 1.0, 0.0, 0.0)
_SX = (-1.0, -1.0, 1.0, 1.0)
_CY = (1.0, 0.0, 1.0, 0.0)
_SY = (-1.0, 1.0, -1.0, 1.0)


def corner_weights_ref(dx: float, dy: float) -> list[float]:
    """CiC weights of one particle, corner by corner (Fig. 2 inner loop)."""
    return [
        (_CX[c] + _SX[c] * dx) * (_CY[c] + _SY[c] * dy) for c in range(4)
    ]


def accumulate_redundant_ref(rho_1d, icell, dx, dy, charge=1.0):
    """Scalar CiC scatter onto redundant rho (lower Fig. 2 variant)."""
    for p in range(len(icell)):
        ws = corner_weights_ref(float(dx[p]), float(dy[p]))
        for c in range(4):
            rho_1d[int(icell[p]), c] += charge * ws[c]


def interpolate_redundant_ref(e_1d, icell, dx, dy):
    """Scalar CiC gather from the redundant field rows.

    The 4-term reduction is a left fold in corner order, matching the
    sequential-add form of the vectorized kernel bit for bit.
    """
    n = len(icell)
    ex_p = np.zeros(n)
    ey_p = np.zeros(n)
    for p in range(n):
        ws = corner_weights_ref(float(dx[p]), float(dy[p]))
        row = e_1d[int(icell[p])]
        ex = ws[0] * float(row[0])
        ey = ws[0] * float(row[4])
        for c in range(1, 4):
            ex += ws[c] * float(row[c])
            ey += ws[c] * float(row[4 + c])
        ex_p[p] = ex
        ey_p[p] = ey
    return ex_p, ey_p


def push_axis_ref(x: float, nc: int) -> tuple[int, float]:
    """Scalar periodic wrap of one coordinate: the `if` + real modulo form.

    The plainest possible rendering of §IV-C's starting point; every
    optimized axis variant must land the particle at the same physical
    position modulo the box.
    """
    if x < 0.0 or x >= nc:
        x = x - math.floor(x / nc) * nc
    i = math.floor(x)
    if i >= nc:  # float fold can graze the upper boundary
        i, x = 0, 0.0
    return int(i), x - i


def push_axis_variant_ref(x: float, nc: int, variant: str) -> tuple[int, float]:
    """Scalar rendering of one executed §IV-C axis wrap, ``"bitwise"``
    or ``"modulo"`` (:func:`repro.core.kernels.wrap_for` names the one
    a grid runs).

    Bit-for-bit mirror of the vectorized wraps of
    :mod:`repro.core.kernels`: same operations in the same order
    (``np.mod`` where the vectorized kernel uses it, since its rounding
    is what the fast path produces).  Returns ``(icoord, offset)``.
    """
    if variant == "bitwise":
        if nc & (nc - 1):
            raise ValueError(f"bitwise wrap requires power-of-two extent, got {nc}")
        # cast-based floor: trunc toward zero, minus one for negatives
        fx = int(x) - (1 if x < 0.0 else 0)
        return fx & (nc - 1), x - fx
    if variant == "modulo":
        fx = math.floor(x)
        i = int(np.mod(fx, nc))
        return i, x - fx
    raise KeyError(f"unknown wrap {variant!r}")


class ReferenceStepper:
    """The complete Fig. 1 step, one particle at a time — the baseline.

    Drives the scalar kernels above through the full leap-frog cycle
    the optimized :class:`~repro.core.stepper.PICStepper` runs::

        sort (counting sort: at t=0, then when due) -> interpolate
        + kick -> push -> zero rho, deposit -> Poisson solve

    and must agree with the numpy backend **bitwise**, step
    after step (``tests/test_verify_differential.py`` holds it to 50
    steps).  Only the redundant layout's *grid-level* machinery (corner
    fold, field broadcast, spectral solve) is shared with the fast
    path; every per-particle operation — including the counting sort
    permutation — is the plain scalar rendering.

    Parameters mirror the stepper's: ``config`` picks ordering and sort
    cadence (the backend is an execution strategy, which a reference
    has none of) and the grid the wrap
    (:func:`repro.core.kernels.wrap_for`); units are hoisted, as in the
    stepper.
    """

    #: the particle columns, each a plain array attribute
    _COLUMNS = ("icell", "ix", "iy", "dx", "dy", "vx", "vy")

    def __init__(
        self,
        grid,
        config,
        *,
        case=None,
        n_particles=None,
        dt: float = 0.05,
        q: float = -1.0,
        m: float = 1.0,
        eps0: float = 1.0,
        seed: int | None = 0,
        quiet: bool = False,
    ):
        from repro.curves.base import get_ordering
        from repro.grid.fields import RedundantFields
        from repro.grid.poisson import SpectralPoissonSolver
        from repro.particles.initializers import load_particles

        self.grid = grid
        self.config = config
        self.dt = float(dt)
        self.q = float(q)
        self.m = float(m)
        self.ordering = get_ordering(
            config.ordering, grid.ncx, grid.ncy, **config.ordering_kwargs
        )
        self.fields = RedundantFields(grid, self.ordering)
        self.solver = SpectralPoissonSolver(grid, eps0)
        loaded = load_particles(
            grid, self.ordering, case, n_particles,
            seed=seed, quiet=quiet,
        )
        self.weight = loaded.weight
        self.n = loaded.n
        for name in self._COLUMNS:
            setattr(self, name, loaded[name])
        # the t=0 sort gathers plain copies: the reference owns its state
        self._phase_sort()
        self.iteration = 0
        self._init_fields_and_stagger()

    # -- unit scalings (identical expressions to the stepper's) --------
    @property
    def _field_scale_x(self) -> float:
        return self.q * self.dt**2 / (self.m * self.grid.dx)

    @property
    def _field_scale_y(self) -> float:
        return self.q * self.dt**2 / (self.m * self.grid.dy)

    @property
    def _charge_factor(self) -> float:
        return self.q * self.weight / self.grid.cell_area

    # -- phases --------------------------------------------------------
    def _init_fields_and_stagger(self) -> None:
        sx = self.dt / self.grid.dx
        sy = self.dt / self.grid.dy
        for p in range(self.n):
            self.vx[p] = self.vx[p] * sx
            self.vy[p] = self.vy[p] * sy
        self._phase_accumulate()
        self._phase_solve()
        ex_p, ey_p = self._interpolate()
        for p in range(self.n):
            self.vx[p] += -0.5 * ex_p[p]
            self.vy[p] += -0.5 * ey_p[p]

    def _interpolate(self):
        return interpolate_redundant_ref(
            self.fields.e_1d, self.icell, self.dx, self.dy
        )

    def _phase_sort(self) -> None:
        from repro.particles.sorting import counting_sort_permutation_reference

        perm = counting_sort_permutation_reference(
            self.icell, self.ordering.ncells_allocated
        )
        for name in self._COLUMNS:
            setattr(self, name, getattr(self, name)[perm])

    def _phase_update_v(self) -> None:
        ex_p, ey_p = self._interpolate()
        for p in range(self.n):
            self.vx[p] += ex_p[p]
            self.vy[p] += ey_p[p]

    def _phase_update_x(self) -> None:
        g = self.grid
        variant = wrap_for(g.shape)
        for p in range(self.n):
            x = (int(self.ix[p]) + float(self.dx[p])) + float(self.vx[p])
            y = (int(self.iy[p]) + float(self.dy[p])) + float(self.vy[p])
            self.ix[p], self.dx[p] = push_axis_variant_ref(x, g.ncx, variant)
            self.iy[p], self.dy[p] = push_axis_variant_ref(y, g.ncy, variant)
        self.icell[:] = self.ordering.encode(self.ix, self.iy)

    def _phase_accumulate(self) -> None:
        # the scalar kernel adds into rho, so it is zeroed here (the
        # fast deposits write it outright, to the same bits)
        self.fields.rho_1d[:] = 0.0
        accumulate_redundant_ref(
            self.fields.rho_1d, self.icell, self.dx, self.dy,
            self._charge_factor,
        )

    def _phase_solve(self) -> None:
        self.rho_grid = self.fields.reduce_rho_to_grid()
        ex, ey = self.solver.field(self.rho_grid)
        self.ex_grid, self.ey_grid = ex, ey
        self.fields.load_field_from_grid(
            ex * self._field_scale_x, ey * self._field_scale_y
        )

    # -- the public step ----------------------------------------------
    def step(self) -> None:
        cfg = self.config
        if cfg.sort_period and self.iteration and (
            self.iteration % cfg.sort_period == 0
        ):
            self._phase_sort()
        self._phase_update_v()
        self._phase_update_x()
        self._phase_accumulate()
        self._phase_solve()
        self.iteration += 1

    def run(self, n_steps: int) -> None:
        for _ in range(n_steps):
            self.step()

    def state(self) -> dict[str, np.ndarray]:
        """Copies of the particle arrays plus the solved grid state."""
        return {
            "icell": self.icell.copy(), "ix": self.ix.copy(), "iy": self.iy.copy(),
            "dx": self.dx.copy(), "dy": self.dy.copy(),
            "vx": self.vx.copy(), "vy": self.vy.copy(),
            "rho_grid": np.array(self.rho_grid),
            "ex_grid": np.array(self.ex_grid), "ey_grid": np.array(self.ey_grid),
        }
