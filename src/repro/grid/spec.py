"""Grid/domain specification shared by every subsystem."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GridSpec"]


@dataclass(frozen=True)
class GridSpec:
    """A periodic 2D Cartesian grid over ``[xmin, xmax) x [ymin, ymax)``.

    The paper maps a physical position to grid coordinates
    ``x = (x_phys - xmin) / dx  in  [0, ncx)`` and represents particles
    by the integer part (cell coordinate) plus the fractional offset;
    every kernel in :mod:`repro.core` works in these *grid units*.

    ``ncx`` and ``ncy`` are kept as powers of two throughout the paper
    (the bitwise periodic wrap of §IV-C3 requires it); this class allows
    arbitrary sizes, on which the push wraps by modulo
    (:func:`repro.core.kernels.wrap_for`), and exposes :attr:`pow2`.
    """

    ncx: int
    ncy: int
    xmin: float = 0.0
    xmax: float = 1.0
    ymin: float = 0.0
    ymax: float = 1.0

    def __post_init__(self):
        if self.ncx <= 0 or self.ncy <= 0:
            raise ValueError(f"grid dims must be positive: {self.ncx} x {self.ncy}")
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("domain extents must be positive")

    # ------------------------------------------------------------------
    @property
    def lx(self) -> float:
        """Domain length along x."""
        return self.xmax - self.xmin

    @property
    def ly(self) -> float:
        """Domain length along y."""
        return self.ymax - self.ymin

    @property
    def dx(self) -> float:
        """Grid spacing along x."""
        return self.lx / self.ncx

    @property
    def dy(self) -> float:
        """Grid spacing along y."""
        return self.ly / self.ncy

    @property
    def shape(self) -> tuple[int, int]:
        """Cells per axis — what dimension-generic code reads."""
        return (self.ncx, self.ncy)

    @property
    def spacings(self) -> tuple[float, float]:
        """Grid spacing per axis, ``(dx, dy)``."""
        return (self.dx, self.dy)

    @property
    def ncells(self) -> int:
        return self.ncx * self.ncy

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def area(self) -> float:
        return self.lx * self.ly

    @property
    def pow2(self) -> bool:
        """True when both extents are powers of two (bitwise wrap legal)."""
        return not (self.ncx & (self.ncx - 1)) and not (self.ncy & (self.ncy - 1))

    # ------------------------------------------------------------------
    def to_grid_coords(self, x_phys, y_phys) -> tuple[np.ndarray, np.ndarray]:
        """Physical positions -> grid coordinates in ``[0, ncx) x [0, ncy)``."""
        x = (np.asarray(x_phys, dtype=np.float64) - self.xmin) / self.dx
        y = (np.asarray(y_phys, dtype=np.float64) - self.ymin) / self.dy
        return x, y

    def split_coords(self, x_grid, y_grid):
        """Grid coords -> ``(ix, iy, dx_off, dy_off)`` with periodic wrap.

        This is the canonical decomposition of §II: integer cell
        coordinate plus fractional offset in ``[0, 1)``.
        """
        x = np.mod(np.asarray(x_grid, dtype=np.float64), self.ncx)
        y = np.mod(np.asarray(y_grid, dtype=np.float64), self.ncy)
        ix = np.floor(x).astype(np.int64)
        iy = np.floor(y).astype(np.int64)
        # floating wrap can land exactly on the upper boundary: fold it
        ix = np.where(ix == self.ncx, 0, ix)
        iy = np.where(iy == self.ncy, 0, iy)
        return ix, iy, x - np.floor(x), y - np.floor(y)
