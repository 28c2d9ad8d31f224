"""Seeded sampling of the optimization-config space.

A :class:`Scenario` is one fully-specified small simulation setup:
grid, particle population, physics case, and every §IV/§V
optimization knob *except* the execution strategy (backend, worker
count, sort variant) — those are exactly the axes the differential
runner sweeps per scenario, so they live in
:class:`repro.verify.differ.Combo` instead.

:class:`ScenarioSampler` draws scenarios with a seeded PRNG, so
``repro verify --seed 0 --samples 8`` names a reproducible test
matrix: a divergence report can be replayed bit-for-bit from its seed
and index.  The sampler respects the codebase's structural
constraints (power-of-two grids so that every ordering is legal,
populations on both sides of the kernels' cache-block size); the push
wraps by modulo only in the fixed :func:`modulo_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import OptimizationConfig
from repro.grid.spec import GridSpec
from repro.particles.initializers import (
    BeamPlasma,
    BoundedPlasma,
    GaussianBump,
    LandauDamping,
    MagnetizedExB,
    TwoStream,
)
from repro.pic3d import GridSpec3D, LandauDamping3D, TwoStream3D

__all__ = ["Scenario", "ScenarioSampler", "modulo_scenario"]

#: Sampling pools per dimension — every entry must be legal on every
#: grid of its dimension: all power-of-two, so that every ordering a
#: dimension has is available everywhere (2D: all five; 3D: the two
#: curves, row-major and Morton).  3D has the two classic cases; the
#: 2D pool adds ``gaussian-bump``, the skewed-density load-balancing
#: stress case (most particles clumped in one corner, so the
#: ``numpy-mp`` combos' histogram-balanced deposit cuts sit far from
#: the equal-cell ones), and the scenario-zoo cases
#: (``bounded-wall``/``beam-plasma``/``exb-drift``), which run the
#: push's reflecting wall, a drifting beam and update-v's Boris /
#: external-drive stage.
_GRID_POOLS = {
    2: ((16, 8), (32, 8), (16, 16), (32, 4)),
    3: ((8, 4, 4), (16, 4, 4), (8, 8, 4)),
}
#: particle counts straddle :data:`repro.core.kernels.BLOCK`, so the
#: sampled matrix runs single-block and multi-block kernels
_N_PARTICLES_POOL = (500, 2000, 9000)
_N_STEPS_POOL = (6, 10)
_ORDERING_POOLS = {
    2: ("row-major", "column-major", "l4d", "morton", "hilbert"),
    3: ("row-major", "morton"),
}
_CASE_POOLS = {
    2: ("landau", "two-stream", "gaussian-bump",
        "bounded-wall", "beam-plasma", "exb-drift"),
    3: ("landau", "two-stream"),
}
#: the retired field-layout axis (paper-weighted); only its draw is left
_LAYOUT_POOL = ("redundant", "redundant", "standard")
_SORT_PERIODS = (0, 2, 3, 5)
#: the retired sort-variant axis; only its draw is left
_SORT_VARIANTS = ("in-place", "out-of-place")

#: dimensionality axis — 2D-weighted (the paper's study is 2D; the 3D
#: port rides along at one scenario in four so the sampled matrix
#: always covers 3D runs without dominating the budget)
_DIMS_POOL = (2, 2, 2, 3)


@dataclass(frozen=True)
class Scenario:
    """One sampled point of the config space (execution axes excluded)."""

    index: int
    ncx: int
    ncy: int
    n_particles: int
    n_steps: int
    case_name: str
    ordering: str
    sort_period: int
    dt: float = 0.05
    seed: int = 0
    dims: int = 2  #: 2 or 3: the grid and case the scenario builds
    ncz: int = 1  #: z cell count (only meaningful when ``dims == 3``)

    def grid(self):
        """The scenario's grid: a :class:`GridSpec`, or a
        :class:`~repro.pic3d.grid3d.GridSpec3D` when ``dims == 3``."""
        if self.dims == 3:
            return GridSpec3D(self.ncx, self.ncy, self.ncz, xmax=4 * np.pi,
                              ymax=2 * np.pi, zmax=2 * np.pi)
        return GridSpec(self.ncx, self.ncy, xmax=4 * np.pi, ymax=2 * np.pi)

    def case(self):
        """The scenario's initial condition, of its dimension."""
        if self.dims == 3:
            if self.case_name == "landau":
                return LandauDamping3D(alpha=0.1, vth=1.0)
            return TwoStream3D()
        if self.case_name == "landau":
            return LandauDamping(alpha=0.1, vth=1.0)
        if self.case_name == "gaussian-bump":
            return GaussianBump()
        if self.case_name == "bounded-wall":
            return BoundedPlasma()
        if self.case_name == "beam-plasma":
            return BeamPlasma()
        if self.case_name == "exb-drift":
            return MagnetizedExB()
        return TwoStream(v0=2.4, vth=0.5, alpha=0.01)

    def config(self, backend: str = "numpy",
               workers: int | None = None) -> OptimizationConfig:
        """The :class:`OptimizationConfig` for one execution combo."""
        kwargs = dict(
            ordering=self.ordering,
            sort_period=self.sort_period,
            backend=backend,
        )
        if workers is not None:
            kwargs["workers"] = workers
        return OptimizationConfig(**kwargs)

    def label(self) -> str:
        sort = f"sort{self.sort_period}" if self.sort_period else "nosort"
        shape = f"{self.ncx}x{self.ncy}"
        if self.dims == 3:
            shape += f"x{self.ncz} 3d"
        return (
            f"#{self.index} {self.case_name} {shape} "
            f"n={self.n_particles} {self.ordering} "
            f"{sort}"
        )


def modulo_scenario(index: int) -> Scenario:
    """24 x 16 cells, row-major: what ``repro verify`` runs after the
    sampled scenarios, as scenario ``index``, drawing nothing."""
    return Scenario(index=index, ncx=24, ncy=16, n_particles=2000,
                    n_steps=10, case_name="landau", ordering="row-major",
                    sort_period=3)


@dataclass
class ScenarioSampler:
    """Deterministic scenario stream: same seed -> same scenarios.

    Draws every axis independently from the pools above with a
    :func:`numpy.random.default_rng` PRNG seeded once, so
    ``sample(8)`` twice from two samplers with the same seed yields
    identical lists, and scenario ``k`` of seed ``s`` is a stable name
    for one configuration forever (the property the regression
    workflow relies on when replaying a reported divergence).
    """

    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    _count: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed)

    def _pick(self, pool):
        return pool[int(self._rng.integers(len(pool)))]

    def sample_one(self) -> Scenario:
        dims = int(self._pick(_DIMS_POOL))
        shape = self._pick(_GRID_POOLS[dims])
        n_particles = int(self._pick(_N_PARTICLES_POOL))
        n_steps = int(self._pick(_N_STEPS_POOL))
        case_name = self._pick(_CASE_POOLS[dims])
        ordering = self._pick(_ORDERING_POOLS[dims])
        # the retired axes drew here — in 2D the field layout, split /
        # fused, the push wrap (one of three) and one more flag before
        # the sort period, the sort variant after it; in 3D split /
        # fused and the push wrap: their draws stay, so scenario k of
        # seed s still names the same configuration
        if dims == 2:
            self._pick(_LAYOUT_POOL)
        self._rng.integers(2)
        self._rng.integers(3)
        if dims == 2:
            self._rng.integers(2)
        sort_period = int(self._pick(_SORT_PERIODS))
        if dims == 2:
            self._pick(_SORT_VARIANTS)
        scenario = Scenario(
            index=self._count,
            ncx=shape[0],
            ncy=shape[1],
            n_particles=n_particles,
            n_steps=n_steps,
            case_name=case_name,
            ordering=ordering,
            sort_period=sort_period,
            seed=int(self._rng.integers(2**31)),
            dims=dims,
            ncz=shape[2] if dims == 3 else 1,
        )
        self._count += 1
        return scenario

    def sample(self, n: int) -> list[Scenario]:
        return [self.sample_one() for _ in range(n)]
