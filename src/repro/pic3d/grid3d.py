"""3D grid specification and the redundant cell-based field layout.

The 2D redundant layout generalizes directly: each cell stores the
values at its 8 corners.  ``rho_1d`` is ``(ncell, 8)`` (one 64-byte
line per cell); ``e_1d`` is ``(ncell, 24)`` — Ex in columns 0..7, Ey in
8..15, Ez in 16..23, i.e. three lines per cell, still contiguous per
particle.  Memory cost vs the point-based layout is 8x for rho and
8x for E (the 2D factor of 4 becomes 8: each grid point is a corner of
8 cells).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pic3d.ordering3d import Ordering3D

__all__ = ["GridSpec3D", "RedundantFields3D", "corner_offsets_3d"]

#: corner c = 4*ox + 2*oy + oz, offsets in {0,1}^3
_CORNERS = np.array(
    [[(c >> 2) & 1, (c >> 1) & 1, c & 1] for c in range(8)], dtype=np.int64
)


def corner_offsets_3d() -> np.ndarray:
    """The ``(8, 3)`` corner offset table (copy)."""
    return _CORNERS.copy()


@dataclass(frozen=True)
class GridSpec3D:
    """Periodic 3D Cartesian grid over a box."""

    ncx: int
    ncy: int
    ncz: int
    xmin: float = 0.0
    xmax: float = 1.0
    ymin: float = 0.0
    ymax: float = 1.0
    zmin: float = 0.0
    zmax: float = 1.0

    def __post_init__(self):
        if min(self.ncx, self.ncy, self.ncz) <= 0:
            raise ValueError("grid dims must be positive")
        if not (self.xmax > self.xmin and self.ymax > self.ymin and self.zmax > self.zmin):
            raise ValueError("domain extents must be positive")

    @property
    def lengths(self) -> tuple[float, float, float]:
        return (self.xmax - self.xmin, self.ymax - self.ymin, self.zmax - self.zmin)

    @property
    def spacings(self) -> tuple[float, float, float]:
        lx, ly, lz = self.lengths
        return (lx / self.ncx, ly / self.ncy, lz / self.ncz)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.ncx, self.ncy, self.ncz)

    @property
    def ncells(self) -> int:
        return self.ncx * self.ncy * self.ncz

    @property
    def cell_volume(self) -> float:
        dx, dy, dz = self.spacings
        return dx * dy * dz

    @property
    def volume(self) -> float:
        lx, ly, lz = self.lengths
        return lx * ly * lz

    @property
    def pow2(self) -> bool:
        return all(not (n & (n - 1)) for n in self.shape)


class RedundantFields3D:
    """Cell-based redundant storage for the 3D fields and charge."""

    layout = "redundant3d"

    def __init__(self, grid: GridSpec3D, ordering: Ordering3D):
        if (ordering.ncx, ordering.ncy, ordering.ncz) != grid.shape:
            raise ValueError("ordering shape does not match the grid")
        self.grid = grid
        self.ordering = ordering
        nalloc = ordering.ncells_allocated
        #: per-cell corner charges, ``(nalloc, 8)``
        self.rho_1d = np.zeros((nalloc, 8))
        #: per-cell corner fields, ``(nalloc, 24)``: Ex 0..7, Ey 8..15, Ez 16..23
        self.e_1d = np.zeros((nalloc, 24))
        self._build_maps()

    def _build_maps(self) -> None:
        g = self.grid
        ix, iy, iz = np.meshgrid(
            np.arange(g.ncx, dtype=np.int64),
            np.arange(g.ncy, dtype=np.int64),
            np.arange(g.ncz, dtype=np.int64),
            indexing="ij",
        )
        self._cell_index_map = self.ordering.encode(ix, iy, iz)
        self._corner_cell = np.empty((8,) + g.shape, dtype=np.int64)
        for c, (ox, oy, oz) in enumerate(_CORNERS):
            self._corner_cell[c] = self.ordering.encode(
                (ix - ox) % g.ncx, (iy - oy) % g.ncy, (iz - oz) % g.ncz
            )
        # gather map of load_field_from_grid: flat grid-point index of
        # corner c of the cell stored in row r; padding rows point one
        # past the grid, at a zero the loader appends
        self._corner_point = np.full(
            (self.ordering.ncells_allocated, 8), g.ncells, dtype=np.int64
        )
        for c, (ox, oy, oz) in enumerate(_CORNERS):
            self._corner_point[self._cell_index_map, c] = (
                ((ix + ox) % g.ncx) * g.ncy + (iy + oy) % g.ncy
            ) * g.ncz + (iz + oz) % g.ncz

    def adopt_arrays(self, rho_1d: np.ndarray, e_1d: np.ndarray) -> None:
        """Rebind storage to caller-provided arrays carrying the current
        contents (the shared-memory engine's relocation hook, as in
        :meth:`repro.grid.fields.RedundantFields.adopt_arrays`)."""
        if rho_1d.shape != self.rho_1d.shape or e_1d.shape != self.e_1d.shape:
            raise ValueError("adopted arrays must match the existing shapes")
        self.rho_1d = rho_1d
        self.e_1d = e_1d

    def reset_rho(self) -> None:
        self.rho_1d[:] = 0.0

    def reduce_rho_to_grid(self) -> np.ndarray:
        """Fold the 8 corner contributions onto grid points (periodic)."""
        out = np.zeros(self.grid.shape)
        for c in range(8):
            out += self.rho_1d[self._corner_cell[c], c]
        return out

    def load_field_from_grid(self, ex, ey, ez) -> None:
        """Broadcast point-based field arrays into the redundant rows
        (one precomputed gather per component)."""
        for comp, arr in enumerate((ex, ey, ez)):
            self.e_1d[:, 8 * comp:8 * comp + 8] = np.append(arr, 0.0)[
                self._corner_point
            ]

    def field_at_grid(self):
        """Recover point-based (Ex, Ey, Ez) from corner 0 of each cell."""
        idx = self._cell_index_map
        return (
            self.e_1d[idx, 0].copy(),
            self.e_1d[idx, 8].copy(),
            self.e_1d[idx, 16].copy(),
        )

    @property
    def memory_bytes(self) -> int:
        return self.rho_1d.nbytes + self.e_1d.nbytes
