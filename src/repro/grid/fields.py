"""Field and charge-density storage layouts.

Implements the two layouts the paper compares (§II, Fig. 2):

* **Standard** point-based 2D arrays ``rho[ncx][ncy]``, ``Ex``, ``Ey``.
* **Redundant** cell-based 1D arrays ``rho_1d[ncell][4]`` and
  ``E_1d[ncell][8]``: for every cell, the values of ``rho`` (resp.
  ``Ex`` and ``Ey``) at the cell's four corner grid points are stored
  contiguously, in the memory order chosen by a
  :class:`~repro.curves.base.CellOrdering`.

Corner convention (matches Fig. 2's ``cx/sx/cy/sy`` coefficient
tables)::

    corner 0: (ix    , iy    )   weight (1-dx)*(1-dy)
    corner 1: (ix    , iy + 1)   weight (1-dx)*(  dy)
    corner 2: (ix + 1, iy    )   weight (  dx)*(1-dy)
    corner 3: (ix + 1, iy + 1)   weight (  dx)*(  dy)

``E_1d`` columns 0..3 hold the Ex corner values and columns 4..7 the Ey
corner values, so a particle's whole field read is one contiguous
64-byte row (exactly one cache line in the paper's machines).

The redundant rho is a *scatter* target: after accumulation the corner
contributions must be folded back onto grid points (each grid point is
a corner of four cells, with periodic wrap) before the Poisson solve —
:meth:`RedundantFields.reduce_rho_to_grid` implements that fold, and
:meth:`RedundantFields.load_field_from_grid` the inverse broadcast of a
solved field into the redundant layout.
"""

from __future__ import annotations

import numpy as np

from repro.curves.base import CellOrdering
from repro.grid.spec import GridSpec

__all__ = [
    "corner_offsets",
    "corner_weights",
    "StandardFields",
    "RedundantFields",
]

#: Grid-point offsets of the four cell corners, ``(4, 2)`` int array.
_CORNER_OFFSETS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int64)

#: Fig. 2's coefficient tables: weight(corner) = (cx + sx*dx) * (cy + sy*dy).
_CX = np.array([1.0, 1.0, 0.0, 0.0])
_SX = np.array([-1.0, -1.0, 1.0, 1.0])
_CY = np.array([1.0, 0.0, 1.0, 0.0])
_SY = np.array([-1.0, 1.0, -1.0, 1.0])


def corner_offsets() -> np.ndarray:
    """The ``(4, 2)`` corner offset table (copy; callers may not mutate)."""
    return _CORNER_OFFSETS.copy()


def corner_weights(dx_off: np.ndarray, dy_off: np.ndarray, corners=None) -> np.ndarray:
    """Cloud-in-Cell weights of the 4 corners for offsets in ``[0,1)``.

    Returns an ``(N, 4)`` array; rows sum to 1 exactly in exact
    arithmetic (and to within rounding here), which is what makes the
    scheme charge-conserving.  Written in the ``c + s*d`` form of
    Fig. 2.  The memory behind the result is corner-major (each
    ``w[:, c]`` contiguous): NumPy's inner loop then runs over the
    particles instead of over 4 corners, which is ~7x faster, and the
    kernels consume the weights one corner column at a time anyway.
    Elementwise, so the layout cannot change a bit of any weight — and
    neither can ``corners``, an index (list or slice) selecting which
    corner columns to compute: the ``numpy-mp`` deposit hands each
    worker a subset.
    """
    dx_off = np.asarray(dx_off, dtype=np.float64)
    dy_off = np.asarray(dy_off, dtype=np.float64)
    sel = slice(None) if corners is None else corners
    cx, sx, cy, sy = (
        t[sel].reshape((-1,) + (1,) * dx_off.ndim) for t in (_CX, _SX, _CY, _SY)
    )
    w = (cx + sx * dx_off) * (cy + sy * dy_off)
    return np.moveaxis(w, 0, -1)


class StandardFields:
    """Textbook point-based storage: ``rho``, ``Ex``, ``Ey`` of shape (ncx, ncy)."""

    layout = "standard"

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.rho = np.zeros((grid.ncx, grid.ncy))
        self.ex = np.zeros((grid.ncx, grid.ncy))
        self.ey = np.zeros((grid.ncx, grid.ncy))

    def reset_rho(self) -> None:
        """Line 7 of the pseudo-code: zero the charge density."""
        self.rho[:] = 0.0

    def rho_grid(self) -> np.ndarray:
        """Point-based charge density (already in that form here)."""
        return self.rho

    def set_field_from_grid(self, ex: np.ndarray, ey: np.ndarray) -> None:
        """Store a solved field given point-based arrays."""
        self.ex[:] = ex
        self.ey[:] = ey

    @property
    def memory_bytes(self) -> int:
        """Footprint of the field+rho storage (for the bandwidth model)."""
        return self.rho.nbytes + self.ex.nbytes + self.ey.nbytes


class RedundantFields:
    """Cell-based redundant storage ordered by a space-filling curve.

    Parameters
    ----------
    grid:
        The grid specification.
    ordering:
        Bijection deciding which cell goes where in memory.  Padding
        cells (L4D) are allocated and stay zero forever.
    """

    layout = "redundant"

    def __init__(self, grid: GridSpec, ordering: CellOrdering):
        if (ordering.ncx, ordering.ncy) != (grid.ncx, grid.ncy):
            raise ValueError(
                "ordering grid shape "
                f"{(ordering.ncx, ordering.ncy)} != grid {(grid.ncx, grid.ncy)}"
            )
        self.grid = grid
        self.ordering = ordering
        nalloc = ordering.ncells_allocated
        #: per-cell corner charges, ``(nalloc, 4)``
        self.rho_1d = np.zeros((nalloc, 4))
        #: per-cell corner fields, ``(nalloc, 8)``: cols 0..3 Ex, 4..7 Ey
        self.e_1d = np.zeros((nalloc, 8))
        self._build_maps()

    def _build_maps(self) -> None:
        """Precompute gather/scatter index maps between grid points and cells.

        ``_cell_index_map[ix, iy]`` is the linear index of cell (ix, iy).
        ``_corner_cell[c]`` (shape ``(ncx, ncy)``) is, for grid point
        (gx, gy), the linear index of the cell whose corner ``c`` is that
        point — i.e. cell ``(gx - ox) mod ncx, (gy - oy) mod ncy``.
        ``_corner_point[r, c]`` is the inverse gather map of
        :meth:`load_field_from_grid`: the flat grid-point index of
        corner ``c`` of the cell stored in row ``r``.  Padding rows
        (orderings that allocate more rows than cells) point one past
        the grid, at a zero the loader appends, so they stay zero.
        """
        g = self.grid
        ix, iy = np.meshgrid(
            np.arange(g.ncx, dtype=np.int64),
            np.arange(g.ncy, dtype=np.int64),
            indexing="ij",
        )
        self._cell_index_map = self.ordering.encode(ix, iy)
        self._corner_cell = np.empty((4, g.ncx, g.ncy), dtype=np.int64)
        for c, (ox, oy) in enumerate(_CORNER_OFFSETS):
            self._corner_cell[c] = self.ordering.encode(
                (ix - ox) % g.ncx, (iy - oy) % g.ncy
            )
        self._corner_point = np.full(
            (self.ordering.ncells_allocated, 4), g.ncx * g.ncy, dtype=np.int64
        )
        for c, (ox, oy) in enumerate(_CORNER_OFFSETS):
            self._corner_point[self._cell_index_map, c] = (
                (ix + ox) % g.ncx
            ) * g.ncy + (iy + oy) % g.ncy

    # ------------------------------------------------------------------
    def adopt_arrays(self, rho_1d: np.ndarray, e_1d: np.ndarray) -> None:
        """Rebind storage to caller-provided arrays (same shapes/dtypes).

        Used by the shared-memory engine to relocate the redundant
        arrays into :mod:`multiprocessing.shared_memory` segments: the
        replacements must carry the current contents (the caller copies
        before adopting), after which every in-place method here keeps
        writing through the adopted buffers.
        """
        if rho_1d.shape != self.rho_1d.shape or e_1d.shape != self.e_1d.shape:
            raise ValueError("adopted arrays must match the existing shapes")
        self.rho_1d = rho_1d
        self.e_1d = e_1d

    def reset_rho(self) -> None:
        self.rho_1d[:] = 0.0

    def cell_index_map(self) -> np.ndarray:
        """``(ncx, ncy)`` map of linear cell indices (read-only view)."""
        v = self._cell_index_map.view()
        v.flags.writeable = False
        return v

    def reduce_rho_to_grid(self) -> np.ndarray:
        """Fold redundant corner charges onto grid points (periodic).

        Grid point (gx, gy) receives the contributions written to it as
        corner 0 of cell (gx, gy), corner 1 of cell (gx, gy-1),
        corner 2 of cell (gx-1, gy) and corner 3 of cell (gx-1, gy-1).
        """
        g = self.grid
        out = np.zeros((g.ncx, g.ncy))
        for c in range(4):
            out += self.rho_1d[self._corner_cell[c], c]
        return out

    def load_field_from_grid(self, ex: np.ndarray, ey: np.ndarray) -> None:
        """Broadcast point-based field arrays into the redundant layout.

        Each cell's row gets the field values at its four corners (with
        periodic wrap), Ex in columns 0..3 and Ey in 4..7.  This is the
        step that costs 4x memory and buys contiguous per-particle
        reads.  One precomputed gather per component, written row by
        row in memory order.
        """
        g = self.grid
        ex = np.asarray(ex, dtype=np.float64)
        ey = np.asarray(ey, dtype=np.float64)
        if ex.shape != (g.ncx, g.ncy) or ey.shape != (g.ncx, g.ncy):
            raise ValueError("field arrays must have grid shape")
        for lo, comp in ((0, ex), (4, ey)):
            self.e_1d[:, lo:lo + 4] = np.append(comp, 0.0)[self._corner_point]

    def set_field_from_grid(self, ex: np.ndarray, ey: np.ndarray) -> None:
        """Alias matching :class:`StandardFields`' API."""
        self.load_field_from_grid(ex, ey)

    def rho_grid(self) -> np.ndarray:
        """Alias matching :class:`StandardFields`' API."""
        return self.reduce_rho_to_grid()

    def field_at_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Recover point-based (Ex, Ey) from the redundant layout.

        Reads corner 0 of each cell; used by tests to verify the
        broadcast round-trips.
        """
        idx = self._cell_index_map
        return self.e_1d[idx, 0].copy(), self.e_1d[idx, 4].copy()

    @property
    def memory_bytes(self) -> int:
        return self.rho_1d.nbytes + self.e_1d.nbytes
