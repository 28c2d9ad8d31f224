"""Initial conditions for the Vlasov–Poisson test cases.

The paper validates on three classical cases (§IV):

* **Linear Landau damping** — Maxwellian with a small density
  perturbation ``1 + alpha*cos(k x)``, ``alpha << 1``; the field energy
  decays at the Landau rate (gamma ~ -0.1533 for k = 0.5, vth = 1).
* **Nonlinear Landau damping** — same shape with large ``alpha``
  (conventionally 0.5); initial decay then oscillation.
* **Two-stream instability** — two counter-streaming beams; the k-mode
  field energy *grows* exponentially until saturation.

Positions can be sampled randomly or by a *quiet start*: a Halton
low-discrepancy sequence pushed through the inverse CDF, which
suppresses shot noise enough that the small test populations used in
CI reproduce the analytic rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.curves.base import CellOrdering
from repro.grid.spec import GridSpec, split_axis
from repro.particles.storage import ParticleStorage, make_storage

__all__ = [
    "InitialCondition",
    "LandauDamping",
    "TwoStream",
    "BumpOnTail",
    "GaussianBump",
    "UniformMaxwellian",
    "BoundedPlasma",
    "BeamPlasma",
    "MagnetizedExB",
    "CASE_NAMES",
    "make_case",
    "halton_sequence",
    "sample_perturbed_positions",
    "load_particles",
]


def halton_sequence(n: int, base: int, start: int = 1) -> np.ndarray:
    """First ``n`` terms of the base-``base`` Halton sequence in [0, 1).

    Vectorized radical-inverse: digit-reverses the integers
    ``start .. start+n-1`` in the given base.
    """
    if base < 2:
        raise ValueError("Halton base must be >= 2")
    idx = np.arange(start, start + n, dtype=np.int64)
    out = np.zeros(n)
    denom = np.float64(base)
    while np.any(idx > 0):
        idx, digit = np.divmod(idx, base)
        out += digit / denom
        denom *= base
    return out


def _inverse_cdf_perturbed(u: np.ndarray, alpha: float, k: float, length: float) -> np.ndarray:
    """Invert the CDF of ``f(x) = (1 + alpha*cos(k x)) / length`` on [0, L).

    ``F(x) = (x + (alpha/k) sin(k x)) / L``; inverted by Newton with a
    bisection-safe fallback (the density is strictly positive for
    ``|alpha| < 1`` so F is strictly increasing).
    """
    if abs(alpha) >= 1.0:
        raise ValueError("|alpha| must be < 1 for an invertible density")
    if k <= 0:
        raise ValueError("k must be positive")
    target = np.asarray(u) * length
    x = target.copy()  # alpha=0 solution is the exact starting guess
    for _ in range(50):
        f = x + (alpha / k) * np.sin(k * x) - target
        fp = 1.0 + alpha * np.cos(k * x)
        step = f / fp
        x -= step
        if np.max(np.abs(step)) < 1e-13 * max(length, 1.0):
            break
    return np.mod(x, length)


def sample_perturbed_positions(
    n: int,
    length: float,
    alpha: float,
    k: float,
    rng: np.random.Generator | None = None,
    quiet: bool = False,
) -> np.ndarray:
    """Sample positions from ``1 + alpha*cos(k x)`` on ``[0, length)``
    (a quiet start draws the base-2 Halton sequence)."""
    if quiet:
        u = halton_sequence(n, 2)
    else:
        if rng is None:
            raise ValueError("random sampling requires an rng")
        u = rng.random(n)
    if alpha == 0.0:
        return u * length
    return _inverse_cdf_perturbed(u, alpha, k, length)


def _maxwellian(n, vth, rng=None, quiet=False, bases=(7, 11)):
    """2D Maxwellian velocities; quiet start uses Box–Muller on Halton pairs."""
    if quiet:
        u1 = halton_sequence(n, bases[0])
        u2 = halton_sequence(n, bases[1])
        u1 = np.clip(u1, 1e-12, 1.0)
        r = np.sqrt(-2.0 * np.log(u1))
        return vth * r * np.cos(2 * np.pi * u2), vth * r * np.sin(2 * np.pi * u2)
    return rng.normal(0.0, vth, n), rng.normal(0.0, vth, n)


@dataclass(frozen=True)
class InitialCondition:
    """Base class: a named phase-space density to sample particles from."""

    def sample(self, n, grid, rng=None, quiet=False):
        """Return physical ``(x, y, vx, vy)`` arrays of length ``n``."""
        raise NotImplementedError

    def default_grid(self) -> GridSpec:
        """A canonical grid for this case (used by the examples)."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformMaxwellian(InitialCondition):
    """Spatially uniform Maxwellian — null case, E stays ~0."""

    vth: float = 1.0

    def sample(self, n, grid, rng=None, quiet=False):
        if quiet:
            x = grid.xmin + grid.lx * halton_sequence(n, 2)
            y = grid.ymin + grid.ly * halton_sequence(n, 3)
        else:
            x = grid.xmin + grid.lx * rng.random(n)
            y = grid.ymin + grid.ly * rng.random(n)
        vx, vy = _maxwellian(n, self.vth, rng, quiet)
        return x, y, vx, vy

    def default_grid(self):
        return GridSpec(64, 64, 0.0, 4 * np.pi, 0.0, 4 * np.pi)


@dataclass(frozen=True)
class LandauDamping(InitialCondition):
    """Landau damping: ``f = M(v) (1 + alpha cos(kx x))``.

    ``alpha = 0.01`` gives the paper's linear case (Table I);
    ``alpha = 0.5`` the nonlinear one.  ``mode`` is the integer number
    of perturbation wavelengths across the box, so ``kx = 2*pi*mode/Lx``.
    """

    alpha: float = 0.01
    vth: float = 1.0
    mode: int = 1

    def kx(self, grid: GridSpec) -> float:
        return 2 * np.pi * self.mode / grid.lx

    def sample(self, n, grid, rng=None, quiet=False):
        x = grid.xmin + sample_perturbed_positions(
            n, grid.lx, self.alpha, self.kx(grid), rng, quiet
        )
        if quiet:
            y = grid.ymin + grid.ly * halton_sequence(n, 3)
        else:
            y = grid.ymin + grid.ly * rng.random(n)
        vx, vy = _maxwellian(n, self.vth, rng, quiet)
        return x, y, vx, vy

    def default_grid(self):
        # k = 0.5 with mode 1: Lx = 4*pi; damping rate gamma ~ -0.1533
        return GridSpec(128, 128, 0.0, 4 * np.pi, 0.0, 4 * np.pi)


@dataclass(frozen=True)
class TwoStream(InitialCondition):
    """Two-stream instability: counter-streaming beams along x.

    ``f = 0.5 [M(v - v0) + M(v + v0)] (1 + alpha cos(kx x))``.
    For ``k*v0`` in the unstable band the perturbation grows
    exponentially; with the defaults (v0 = 2.4, k = 0.2) the linear
    growth rate is about 0.2 plasma frequencies.
    """

    v0: float = 2.4
    vth: float = 0.5
    alpha: float = 1e-3
    mode: int = 1

    def kx(self, grid: GridSpec) -> float:
        return 2 * np.pi * self.mode / grid.lx

    def sample(self, n, grid, rng=None, quiet=False):
        x = grid.xmin + sample_perturbed_positions(
            n, grid.lx, self.alpha, self.kx(grid), rng, quiet
        )
        if quiet:
            y = grid.ymin + grid.ly * halton_sequence(n, 3)
            beam = (halton_sequence(n, 5) < 0.5).astype(np.float64)
        else:
            y = grid.ymin + grid.ly * rng.random(n)
            beam = (rng.random(n) < 0.5).astype(np.float64)
        vx, vy = _maxwellian(n, self.vth, rng, quiet)
        vx = vx + np.where(beam > 0.5, self.v0, -self.v0)
        return x, y, vx, vy

    def default_grid(self):
        return GridSpec(64, 64, 0.0, 10 * np.pi, 0.0, 10 * np.pi)


@dataclass(frozen=True)
class BumpOnTail(InitialCondition):
    """Bump-on-tail instability: a Maxwellian bulk plus a fast beam.

    ``f = (1-n_b) M(v; vth) + n_b M(v - v_b; vth_b)``, perturbed along
    x.  The gentle-beam free energy drives Langmuir waves resonant with
    the bump's negative-slope flank — the third classical validation
    case of kinetic plasma codes.
    """

    n_beam: float = 0.1
    v_beam: float = 4.0
    vth: float = 1.0
    vth_beam: float = 0.5
    alpha: float = 1e-3
    mode: int = 1

    def __post_init__(self):
        if not 0.0 < self.n_beam < 1.0:
            raise ValueError("n_beam must be in (0, 1)")

    def kx(self, grid: GridSpec) -> float:
        return 2 * np.pi * self.mode / grid.lx

    def sample(self, n, grid, rng=None, quiet=False):
        x = grid.xmin + sample_perturbed_positions(
            n, grid.lx, self.alpha, self.kx(grid), rng, quiet
        )
        if quiet:
            y = grid.ymin + grid.ly * halton_sequence(n, 3)
            in_beam = halton_sequence(n, 5) < self.n_beam
        else:
            y = grid.ymin + grid.ly * rng.random(n)
            in_beam = rng.random(n) < self.n_beam
        vx, vy = _maxwellian(n, self.vth, rng, quiet)
        vxb, _ = _maxwellian(n, self.vth_beam, rng, quiet, bases=(13, 17))
        vx = np.where(in_beam, self.v_beam + vxb, vx)
        return x, y, vx, vy

    def default_grid(self):
        # resonant mode near v_beam: k ~ omega_p / v_beam
        return GridSpec(64, 64, 0.0, 8 * np.pi, 0.0, 8 * np.pi)


@dataclass(frozen=True)
class GaussianBump(InitialCondition):
    """Skewed density: a uniform background plus an off-center Gaussian blob.

    ``weight_bump`` of the particles sit in an isotropic 2D Gaussian of
    width ``sigma_frac * min(Lx, Ly)`` centered at the box fraction
    ``(center_x, center_y)``; the rest are uniform.  Velocities are
    Maxwellian everywhere, so the case is physically benign — its
    purpose is the *density profile*: most particles in a few cells of
    one corner of the domain, which makes any equal-cell deposit
    partition maximally imbalanced.  This is the load-balancing
    stress case for the ``numpy-mp`` engine's histogram-balanced cell
    cuts (:mod:`repro.parallel.partition`; the verifier's sampled
    scenarios and ``tests/test_parallel_partition.py`` run it).

    The off-center default (0.3, 0.3) is deliberate: a *centered* blob
    straddles all four Morton quadrants and can be accidentally
    balanced by the flat split; off-center, the blob's cells fall into
    few curve segments and the imbalance is genuine under every
    ordering.
    """

    weight_bump: float = 0.7
    sigma_frac: float = 0.08
    vth: float = 1.0
    center_x: float = 0.3
    center_y: float = 0.3

    def __post_init__(self):
        if not 0.0 <= self.weight_bump <= 1.0:
            raise ValueError("weight_bump must be in [0, 1]")
        if self.sigma_frac <= 0.0:
            raise ValueError("sigma_frac must be positive")

    def sample(self, n, grid, rng=None, quiet=False):
        sigma = self.sigma_frac * min(grid.lx, grid.ly)
        cx = grid.xmin + self.center_x * grid.lx
        cy = grid.ymin + self.center_y * grid.ly
        if quiet:
            # Halton bases here must stay distinct from the velocity
            # bases (7, 11 in _maxwellian's default) or the position
            # and velocity draws correlate
            in_bump = halton_sequence(n, 5) < self.weight_bump
            u1 = np.clip(halton_sequence(n, 2), 1e-12, 1.0)
            u2 = halton_sequence(n, 3)
            r = sigma * np.sqrt(-2.0 * np.log(u1))
            gx = cx + r * np.cos(2 * np.pi * u2)
            gy = cy + r * np.sin(2 * np.pi * u2)
            ux = grid.xmin + grid.lx * halton_sequence(n, 13)
            uy = grid.ymin + grid.ly * halton_sequence(n, 17)
        else:
            in_bump = rng.random(n) < self.weight_bump
            gx = rng.normal(cx, sigma, n)
            gy = rng.normal(cy, sigma, n)
            ux = grid.xmin + grid.lx * rng.random(n)
            uy = grid.ymin + grid.ly * rng.random(n)
        x = np.where(in_bump, gx, ux)
        y = np.where(in_bump, gy, uy)
        # periodic wrap keeps blob tails inside the box
        x = grid.xmin + np.mod(x - grid.xmin, grid.lx)
        y = grid.ymin + np.mod(y - grid.ymin, grid.ly)
        vx, vy = _maxwellian(n, self.vth, rng, quiet)
        return x, y, vx, vy

    def default_grid(self):
        return GridSpec(64, 64, 0.0, 4 * np.pi, 0.0, 4 * np.pi)


@dataclass(frozen=True)
class BoundedPlasma(InitialCondition):
    """A plasma slab between reflecting walls (§VI boundary outlook).

    The case carries ``boundary="reflecting"`` — the stepper reads the
    attribute and runs the push's ``"reflect"`` wrap, the triangle-wave
    fold of :func:`repro.core.kernels.wrap_for`.  Particles
    start in a central slab covering ``slab_frac`` of the box along x
    (uniform along y), so the population expands, hits the walls and
    bounces; the acceptance oracle holds the bounce dynamics to two
    invariants — the center of charge stays at the box center and the
    total energy stays bounded.  The field solve remains the periodic
    spectral solver (a documented approximation: the oracle's
    quantities are wall-bounce invariants, not sheath physics).

    Halton bases 29/31 for the positions keep the quiet start
    uncorrelated with the velocity bases (7, 11).
    """

    vth: float = 1.0
    slab_frac: float = 0.5
    boundary: str = "reflecting"

    def __post_init__(self):
        if not 0.0 < self.slab_frac <= 1.0:
            raise ValueError("slab_frac must be in (0, 1]")

    def sample(self, n, grid, rng=None, quiet=False):
        margin = 0.5 * (1.0 - self.slab_frac)
        if quiet:
            ux = halton_sequence(n, 29)
            uy = halton_sequence(n, 31)
        else:
            ux = rng.random(n)
            uy = rng.random(n)
        x = grid.xmin + grid.lx * (margin + self.slab_frac * ux)
        y = grid.ymin + grid.ly * uy
        vx, vy = _maxwellian(n, self.vth, rng, quiet)
        return x, y, vx, vy

    def default_grid(self):
        return GridSpec(64, 16, 0.0, 4 * np.pi, 0.0, 2 * np.pi)


@dataclass(frozen=True)
class BeamPlasma(InitialCondition):
    """Beam–plasma instability: warm bulk plus a weak cold fast beam.

    ``f = (1-n_b) M(v; vth) + n_b M(v - v_b; vth_b)`` with a cold,
    fast beam (``vth_b << vth``, ``v_b`` several thermal speeds).
    Distinct from :class:`BumpOnTail` — the beam here is cold enough
    that the system sits in the *reactive* (cold-beam) regime, whose
    growth rate has the closed form
    ``gamma = (sqrt(3)/2) (n_b/2)^(1/3) omega_p`` at the resonant
    wavenumber ``k ~ omega_p / v_b``; the default box (Lx = 10*pi,
    mode 1) puts k = 0.2 at resonance for ``v_b = 5``.

    Halton bases: selector 29, beam velocities 31/37 — disjoint from
    the position bases (2, 3) and the bulk velocity bases (7, 11).
    """

    n_beam: float = 0.1
    v_beam: float = 5.0
    vth: float = 1.0
    vth_beam: float = 0.1
    alpha: float = 1e-3
    mode: int = 1

    def __post_init__(self):
        if not 0.0 < self.n_beam < 1.0:
            raise ValueError("n_beam must be in (0, 1)")

    def kx(self, grid: GridSpec) -> float:
        return 2 * np.pi * self.mode / grid.lx

    def sample(self, n, grid, rng=None, quiet=False):
        x = grid.xmin + sample_perturbed_positions(
            n, grid.lx, self.alpha, self.kx(grid), rng, quiet
        )
        if quiet:
            y = grid.ymin + grid.ly * halton_sequence(n, 3)
            in_beam = halton_sequence(n, 29) < self.n_beam
        else:
            y = grid.ymin + grid.ly * rng.random(n)
            in_beam = rng.random(n) < self.n_beam
        vx, vy = _maxwellian(n, self.vth, rng, quiet)
        vxb, _ = _maxwellian(n, self.vth_beam, rng, quiet, bases=(31, 37))
        vx = np.where(in_beam, self.v_beam + vxb, vx)
        return x, y, vx, vy

    def default_grid(self):
        # resonance: k = omega_p / v_beam = 0.2 -> Lx = 2*pi/k = 10*pi
        return GridSpec(64, 16, 0.0, 10 * np.pi, 0.0, 2 * np.pi)


@dataclass(frozen=True)
class MagnetizedExB(InitialCondition):
    """Uniform magnetized plasma in crossed fields: the E×B drift.

    The case carries ``bz`` (uniform external magnetic field) and
    ``ext_e`` (uniform external electric field) — the stepper reads
    both attributes and runs update-v's drive stage
    (:class:`repro.core.kernels.Drive`), the Boris velocity rotation.  A spatially
    uniform population keeps the self-consistent field at noise level,
    so every particle gyrates about a guiding center drifting at the
    charge-independent ``v_d = E x B / B^2 = (0, -ex0/bz)``; the
    acceptance oracle time-averages the population's mean ``vy`` over
    whole gyroperiods and holds it to that closed form.
    """

    vth: float = 0.5
    bz: float = 1.0
    ex0: float = 0.2

    def __post_init__(self):
        if self.bz == 0.0:
            raise ValueError("bz must be nonzero for a magnetized case")

    @property
    def ext_e(self) -> tuple[float, float]:
        return (self.ex0, 0.0)

    @property
    def drift_velocity(self) -> tuple[float, float]:
        """The E×B drift ``(0, -ex0/bz)`` the oracle checks against."""
        return (0.0, -self.ex0 / self.bz)

    def sample(self, n, grid, rng=None, quiet=False):
        if quiet:
            x = grid.xmin + grid.lx * halton_sequence(n, 2)
            y = grid.ymin + grid.ly * halton_sequence(n, 3)
        else:
            x = grid.xmin + grid.lx * rng.random(n)
            y = grid.ymin + grid.ly * rng.random(n)
        vx, vy = _maxwellian(n, self.vth, rng, quiet)
        return x, y, vx, vy

    def default_grid(self):
        return GridSpec(32, 32, 0.0, 4 * np.pi, 0.0, 4 * np.pi)


#: the named test cases: ``name -> (class, default perturbation)``,
#: ``None`` for a case that takes none.  The one table behind ``repro
#: run --case``, ``repro submit --case`` and
#: :class:`repro.service.PICJob` — a new case is registered here only.
_CASES = {
    "landau": (LandauDamping, 0.05),
    "nonlinear-landau": (LandauDamping, 0.5),
    "two-stream": (TwoStream, 1e-3),
    "bump-on-tail": (BumpOnTail, 1e-3),
    "gaussian-bump": (GaussianBump, None),
    "uniform": (UniformMaxwellian, None),
    "bounded-wall": (BoundedPlasma, None),
    "beam-plasma": (BeamPlasma, 1e-3),
    "exb-drift": (MagnetizedExB, None),
}
CASE_NAMES = tuple(_CASES)


def make_case(name: str, alpha: float | None = None) -> InitialCondition:
    """The initial condition registered under ``name``.

    ``alpha`` overrides the case's default perturbation amplitude; it
    is ignored by the cases that have none.
    """
    try:
        cls, default = _CASES[name]
    except KeyError:
        raise ValueError(
            f"case must be one of {CASE_NAMES}, got {name!r}") from None
    if default is None:
        return cls()
    return cls(alpha=default if alpha is None else alpha)


def load_particles(
    grid,
    ordering: CellOrdering,
    case,
    n: int,
    layout: str = "soa",
    seed: int | None = 0,
    quiet: bool = False,
    density: float = 1.0,
    store_coords: bool = True,
) -> ParticleStorage:
    """Sample ``n`` particles of ``case`` into a particle container.

    Any dimension: ``grid`` is a :class:`~repro.grid.spec.GridSpec` or a
    :class:`~repro.pic3d.grid3d.GridSpec3D`, and ``case.sample(n, grid,
    rng, quiet)`` returns the physical positions, then the physical
    velocities, one array per axis.  Each axis is written straight into
    the store and its sample dropped, so no second copy of the
    population sits beside the store.

    The macro-particle weight is set so the sampled population
    represents a plasma of mean number density ``density``:
    ``w = density * (domain measure) / n`` (in 2D ``sum w = density *
    Lx * Ly``).  Positions are split into a periodically wrapped cell
    coordinate plus an offset in ``[0, 1)`` (§II); velocities stay
    physical, the stepper converts them.

    The particles come in sample order, unsorted: the initial sort by
    cell index of Fig. 1's line 1 is the stepper's, which runs at
    construction the sort it runs every ``sort_period``.
    """
    rng = np.random.default_rng(seed) if seed is not None else None
    if not quiet and rng is None:
        raise ValueError("random start requires a seed")
    ndim = len(grid.shape)
    weight = density * math.prod(grid.lengths) / n
    storage = make_storage(layout, n, weight=weight,
                           store_coords=store_coords, ndim=ndim)
    sample = list(case.sample(n, grid, rng, quiet))
    coords = []
    for k, (a, h, nc) in enumerate(zip("xyz", grid.spacings, grid.shape)):
        x = np.asarray(sample[k], dtype=np.float64) - getattr(grid, a + "min")
        sample[k] = None
        x /= h
        i, storage["d" + a][:] = split_axis(x, nc)
        del x
        if store_coords:
            storage["i" + a][:] = i
            i = storage["i" + a]
        coords.append(i)
        storage["v" + a][:] = sample[ndim + k]
        sample[ndim + k] = None
    storage.icell[:] = ordering.encode(*coords)
    return storage
