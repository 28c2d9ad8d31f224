"""3D grid specification.

The field store over it is the dimension-generic
:class:`repro.grid.fields.RedundantFields` (8 corners per cell:
``rho_1d`` is ``(ncell, 8)``, ``e_1d`` ``(ncell, 24)``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GridSpec3D"]


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
