"""Domain-decomposition cost model — the §V-A counterfactual.

The paper *rejects* domain decomposition: "the main drawback of this
technique is the difficulty of maintaining the load balance".  This
module makes that argument executable by modeling the state-of-the-art
alternative the paper compares itself against prose-wise:

* the domain is split into P rectangular patches, each owned by a rank;
* per iteration a rank advances only its local particles (compute time
  proportional to its *load*), exchanges halo fields with 4 neighbors,
  and migrates boundary-crossing particles;
* the iteration ends at an implicit barrier, so the iteration time is
  the *maximum* over ranks — load imbalance translates directly into
  lost time.

Particle counts per patch are supplied by a density profile; for
dynamic problems (e.g. the two-stream instability bunching particles)
the imbalance grows with time, which is exactly why the paper's
fixed-particle scheme "is automatically work-balanced" and
problem-independent.

:func:`compare_schemes` produces the head-to-head table an evaluation
section would show: no-DD (allreduce of the whole grid) vs DD (halo +
migration + imbalance) across rank counts and imbalance levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.model.mpi import CollectiveCostModel

__all__ = ["DomainDecompositionModel", "SchemeComparison", "compare_schemes"]


@dataclass(frozen=True)
class DomainDecompositionModel:
    """Per-iteration cost of a 2D patch decomposition.

    Parameters
    ----------
    latency_s, bandwidth_gbs:
        Point-to-point link parameters for halo/migration messages.
    halo_width_cells:
        Guard-cell depth exchanged per edge (CiC needs 1).
    migration_fraction:
        Fraction of a patch's particles crossing a patch edge per
        iteration (v*dt/patch_side; grows as patches shrink).
    particle_bytes:
        Bytes per migrated particle record.
    """

    latency_s: float = 3e-6
    bandwidth_gbs: float = 3.0
    halo_width_cells: int = 1
    particle_bytes: int = 40

    def patch_grid(self, nranks: int) -> tuple[int, int]:
        """Near-square factorization of the rank count."""
        px = int(math.sqrt(nranks))
        while nranks % px:
            px -= 1
        return px, nranks // px

    def halo_seconds(self, nranks: int, ncx: int, ncy: int) -> float:
        """Field guard-cell exchange with the 4 patch neighbors."""
        px, py = self.patch_grid(nranks)
        edge_x = ncx / px
        edge_y = ncy / py
        # rho + (Ex, Ey) per edge cell, both directions, 4 edges
        nbytes = 2 * self.halo_width_cells * (edge_x + edge_y) * 3 * 8 * 2
        return 4 * self.latency_s + nbytes / (self.bandwidth_gbs * 1e9)

    def migration_seconds(
        self, particles_per_rank: float, nranks: int, ncx: int,
        mean_cells_per_step: float = 0.5,
    ) -> float:
        """Boundary-crossing particle exchange.

        The crossing fraction is (perimeter band) / (patch width):
        ``mean_cells_per_step / patch_side_cells`` per axis — it grows
        as strong scaling shrinks the patches, another DD penalty the
        no-DD scheme avoids entirely.
        """
        px, py = self.patch_grid(nranks)
        frac = min(1.0, mean_cells_per_step * (px + py) / ncx)
        nbytes = particles_per_rank * frac * self.particle_bytes
        return 8 * self.latency_s + nbytes / (self.bandwidth_gbs * 1e9)

    def iteration_seconds(
        self,
        compute_balanced_s: float,
        nranks: int,
        ncx: int,
        ncy: int,
        particles_per_rank: float,
        imbalance: float = 0.0,
    ) -> float:
        """Barrier-synchronized iteration time of the DD scheme.

        ``imbalance`` is the relative excess load of the heaviest patch
        (0 = perfectly uniform plasma; bunched/filamented plasmas reach
        0.5-2+).  The heaviest rank sets the pace.
        """
        if imbalance < 0:
            raise ValueError("imbalance must be non-negative")
        compute = compute_balanced_s * (1.0 + imbalance)
        return (
            compute
            + self.halo_seconds(nranks, ncx, ncy)
            + self.migration_seconds(particles_per_rank, nranks, ncx)
        )


@dataclass(frozen=True)
class SchemeComparison:
    """One rank count's head-to-head row."""

    nranks: int
    imbalance: float
    no_dd_seconds: float
    dd_seconds: float

    @property
    def winner(self) -> str:
        return "no-DD" if self.no_dd_seconds <= self.dd_seconds else "DD"

    @property
    def ratio(self) -> float:
        """DD time / no-DD time (>1 means the paper's scheme wins)."""
        return self.dd_seconds / self.no_dd_seconds


def compare_schemes(
    rank_counts,
    compute_iter_s: float,
    ncx: int,
    ncy: int,
    particles_per_rank: float,
    imbalance: float = 0.0,
    collective: CollectiveCostModel | None = None,
    dd: DomainDecompositionModel | None = None,
) -> list[SchemeComparison]:
    """No-DD (paper's scheme) vs DD per-iteration time across ranks.

    ``compute_iter_s`` is the balanced per-rank compute time of one
    iteration (equal for both schemes at equal rank counts — they push
    the same number of particles; what differs is communication and
    balance).  The no-DD side pays one allreduce of the whole
    point-based grid; the DD side pays halos + migration and runs at
    the heaviest patch's pace.
    """
    collective = collective or CollectiveCostModel()
    dd = dd or DomainDecompositionModel()
    grid_bytes = ncx * ncy * 8
    rows = []
    for p in rank_counts:
        # no-DD: every rank owns the same particle count regardless of
        # where the plasma bunches — its arrival skew stays at the
        # balanced level by construction (§V-A's "automatically
        # work-balanced")
        no_dd = compute_iter_s + collective.allreduce_seconds(
            p, grid_bytes, compute_iter_s
        )
        with_dd = dd.iteration_seconds(
            compute_iter_s, p, ncx, ncy, particles_per_rank, imbalance
        )
        rows.append(SchemeComparison(p, imbalance, no_dd, with_dd))
    return rows
