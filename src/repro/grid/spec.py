"""Grid/domain specification shared by every subsystem."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GridSpec", "split_axis"]


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
    (:func:`repro.core.kernels.wrap_for`).
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
    def lengths(self) -> tuple[float, float]:
        """Domain length per axis, ``(lx, ly)``."""
        return (self.lx, self.ly)

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


def split_axis(x_grid, n: int):
    """Grid coordinates along an axis of ``n`` cells -> ``(cell,
    offset)``, periodically wrapped.

    This is the canonical decomposition of §II: integer cell
    coordinate in ``[0, n)`` plus fractional offset in ``[0, 1)``.
    """
    x = np.mod(np.asarray(x_grid, dtype=np.float64), n)
    cell = np.floor(x)
    x -= cell
    i = cell.astype(np.int64)
    # floating wrap can land exactly on the upper boundary: fold it
    return np.where(i == n, 0, i), x
