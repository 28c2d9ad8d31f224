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
populations on both sides of the kernels' cache-block size).
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

__all__ = ["Scenario", "ScenarioSampler"]

#: Sampling pools — every entry must be legal on every grid in
#: ``_GRID_POOL`` (all power-of-two, so all five orderings are
#: available everywhere).
_GRID_POOL = ((16, 8), (32, 8), (16, 16), (32, 4))
_ORDERING_POOL = ("row-major", "column-major", "l4d", "morton", "hilbert")
#: the retired field-layout axis (paper-weighted); only its draw is left
_LAYOUT_POOL = ("redundant", "redundant", "standard")
_SORT_PERIODS = (0, 2, 3, 5)
#: the retired sort-variant axis; only its draw is left
_SORT_VARIANTS = ("in-place", "out-of-place")
#: ``gaussian-bump`` is the skewed-density load-balancing stress case:
#: most particles clumped in one corner, so the ``numpy-mp`` combos'
#: histogram-balanced deposit cuts sit far from the equal-cell ones.  The
#: scenario-zoo cases (``bounded-wall``/``beam-plasma``/``exb-drift``)
#: route the stepper through its reflecting-boundary, drifting-beam
#: and Boris-rotation paths.
_CASE_POOL = (
    "landau", "two-stream", "gaussian-bump",
    "bounded-wall", "beam-plasma", "exb-drift",
)

#: dimensionality axis — 2D-weighted (the paper's study is 2D; the 3D
#: port rides along at one scenario in four so the sampled matrix
#: always covers the 3D stepper without dominating the budget)
_DIMS_POOL = (2, 2, 2, 3)
#: 3D pools are narrower on purpose: power-of-two dims keep the
#: Morton curve legal, the 3D stepper lays cells out on two curves
#: (row-major and Morton), and it has the two classic cases
_GRID3D_POOL = ((8, 4, 4), (16, 4, 4), (8, 8, 4))
_ORDERING3D_POOL = ("row-major", "morton")
_CASE3D_POOL = ("landau", "two-stream")


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
    dims: int = 2  #: 2 -> PICStepper, 3 -> PICStepper3D
    ncz: int = 1  #: z cell count (only meaningful when ``dims == 3``)

    def grid(self) -> GridSpec:
        return GridSpec(self.ncx, self.ncy, xmax=4 * np.pi, ymax=2 * np.pi)

    def grid3d(self):
        from repro.pic3d.grid3d import GridSpec3D

        return GridSpec3D(
            self.ncx, self.ncy, self.ncz,
            xmax=4 * np.pi, ymax=2 * np.pi, zmax=2 * np.pi,
        )

    def case(self):
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

    def case3d(self):
        from repro.pic3d.stepper3d import LandauDamping3D, TwoStream3D

        if self.case_name == "landau":
            return LandauDamping3D(alpha=0.1, vth=1.0)
        return TwoStream3D()

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
    #: particle counts straddle :data:`repro.core.kernels.BLOCK`, so
    #: the sampled matrix runs single-block and multi-block kernels
    n_particles_pool: tuple[int, ...] = (500, 2000, 9000)
    n_steps_pool: tuple[int, ...] = (6, 10)
    _rng: np.random.Generator = field(init=False, repr=False)
    _count: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed)

    def _pick(self, pool):
        return pool[int(self._rng.integers(len(pool)))]

    def sample_one(self) -> Scenario:
        dims = int(self._pick(_DIMS_POOL))
        if dims == 3:
            return self._sample_one_3d()
        ncx, ncy = self._pick(_GRID_POOL)
        scenario = Scenario(
            index=self._count,
            ncx=ncx,
            ncy=ncy,
            n_particles=int(self._pick(self.n_particles_pool)),
            n_steps=int(self._pick(self.n_steps_pool)),
            case_name=self._pick(_CASE_POOL),
            # the retired field-layout, split/fused, push-wrap (one of
            # three), hoisting and sort-variant axes drew here: their
            # draws stay, so scenario k of seed s still names the same
            # configuration
            ordering=(self._pick(_ORDERING_POOL), self._pick(_LAYOUT_POOL),
                      self._rng.integers(2), self._rng.integers(3))[0],
            sort_period=(self._rng.integers(2), int(self._pick(_SORT_PERIODS)),
                         self._pick(_SORT_VARIANTS))[1],
            seed=int(self._rng.integers(2**31)),
        )
        self._count += 1
        return scenario

    def _sample_one_3d(self) -> Scenario:
        """One 3D scenario — the axes the 3D stepper actually offers.

        The sort period sweeps the same pool as 2D so the promise
        matrix covers the 3D stepper end to end.
        """
        ncx, ncy, ncz = self._pick(_GRID3D_POOL)
        scenario = Scenario(
            index=self._count,
            ncx=ncx,
            ncy=ncy,
            n_particles=int(self._pick(self.n_particles_pool)),
            n_steps=int(self._pick(self.n_steps_pool)),
            case_name=self._pick(_CASE3D_POOL),
            ordering=self._pick(_ORDERING3D_POOL),
            # the retired split/fused and push-wrap (one of three) axes
            # drew here: their draws stay, so scenario k of seed s still
            # names the same configuration
            sort_period=(self._rng.integers(2), self._rng.integers(3),
                         int(self._pick(_SORT_PERIODS)))[2],
            seed=int(self._rng.integers(2**31)),
            dims=3,
            ncz=ncz,
        )
        self._count += 1
        return scenario

    def sample(self, n: int) -> list[Scenario]:
        return [self.sample_one() for _ in range(n)]
