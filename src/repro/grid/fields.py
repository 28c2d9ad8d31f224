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

The layout is written once over ``grid.shape``: in 3D a cell has 8
corners (corner ``c = 4*ox + 2*oy + oz``), ``rho_1d`` is ``(ncell, 8)``
and ``e_1d`` is ``(ncell, 24)`` — Ex in columns 0..7, Ey in 8..15, Ez
in 16..23, three lines per cell, still contiguous per particle; the
memory factor over the point-based layout grows from 4 to 8.

The redundant rho is a *scatter* target: after accumulation the corner
contributions must be folded back onto grid points (each grid point is
a corner of four cells, with periodic wrap) before the Poisson solve —
:meth:`RedundantFields.reduce_rho_to_grid` implements that fold, and
:meth:`RedundantFields.load_field_from_grid` the inverse broadcast of a
solved field into the redundant layout.
"""

from __future__ import annotations

import numpy as np

from repro.grid.spec import GridSpec

__all__ = [
    "corner_offsets",
    "StandardFields",
    "RedundantFields",
]


def corner_offsets(ndim: int) -> np.ndarray:
    """Grid-point offsets of a cell's ``2^ndim`` corners, ``(2^ndim,
    ndim)`` ints in ``{0, 1}``: axis 0 owns the most significant bit of
    the corner number (the order of Fig. 2's tables, of
    :func:`repro.core.kernels.corner_weights` and of
    ``ckernels.c::weights``)."""
    c = np.arange(1 << ndim, dtype=np.int64)
    return np.stack([(c >> (ndim - 1 - a)) & 1 for a in range(ndim)], axis=1)


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
    """Cell-based redundant storage ordered by a space-filling curve,
    in as many dimensions as ``grid.shape`` has entries.

    Parameters
    ----------
    grid:
        The grid specification (``GridSpec`` or ``GridSpec3D``).
    ordering:
        Bijection deciding which cell goes where in memory.  Padding
        cells (L4D) are allocated and stay zero forever.
    """

    layout = "redundant"

    def __init__(self, grid, ordering):
        shape = grid.shape
        ordering_shape = tuple(getattr(ordering, "nc" + a) for a in "xyz"[: len(shape)])
        if ordering_shape != shape:
            raise ValueError(f"ordering grid shape {ordering_shape} != grid {shape}")
        self.grid = grid
        self.ordering = ordering
        nalloc = ordering.ncells_allocated
        ncorner = 1 << len(shape)
        #: per-cell corner charges, ``(nalloc, ncorner)``
        self.rho_1d = np.zeros((nalloc, ncorner))
        #: per-cell corner fields, ``(nalloc, ndim * ncorner)``: one
        #: ``ncorner``-wide group per component (2D: cols 0..3 Ex, 4..7 Ey)
        self.e_1d = np.zeros((nalloc, len(shape) * ncorner))
        self._build_maps()

    def _build_maps(self) -> None:
        """Precompute gather/scatter index maps between grid points and cells.

        ``_cell_index_map[ix, iy, ...]`` is the linear index of that cell.
        ``_corner_cell[c]`` (grid-shaped) is, for each grid point, the
        linear index of the cell whose corner ``c`` is that point —
        the cell at ``(point - offset_c) mod shape``.
        ``_corner_point[r, c]`` is the inverse gather map of
        :meth:`load_field_from_grid`: the flat grid-point index of
        corner ``c`` of the cell stored in row ``r``.  Padding rows
        (orderings that allocate more rows than cells) point one past
        the grid, at a zero the loader appends, so they stay zero.
        """
        shape = self.grid.shape
        coords = np.meshgrid(
            *(np.arange(nc, dtype=np.int64) for nc in shape), indexing="ij"
        )
        offsets = corner_offsets(len(shape))
        self._cell_index_map = self.ordering.encode(*coords)
        self._corner_cell = np.empty((len(offsets),) + shape, dtype=np.int64)
        self._corner_point = np.full(
            (self.ordering.ncells_allocated, len(offsets)),
            self.grid.ncells, dtype=np.int64,
        )
        for c, offset in enumerate(offsets):
            self._corner_cell[c] = self.ordering.encode(
                *((i - o) % nc for i, o, nc in zip(coords, offset, shape))
            )
            self._corner_point[self._cell_index_map, c] = np.ravel_multi_index(
                tuple((i + o) % nc for i, o, nc in zip(coords, offset, shape)),
                shape,
            )

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
        """Grid-shaped map of linear cell indices (read-only view)."""
        v = self._cell_index_map.view()
        v.flags.writeable = False
        return v

    def reduce_rho_to_grid(self) -> np.ndarray:
        """Fold redundant corner charges onto grid points (periodic).

        A grid point receives what was written to it as corner ``c`` of
        the cell one corner offset behind it, for every ``c`` (2D:
        corner 0 of cell (gx, gy), corner 1 of (gx, gy-1), corner 2 of
        (gx-1, gy), corner 3 of (gx-1, gy-1)), added in corner order.
        """
        out = np.zeros(self.grid.shape)
        for c, cells in enumerate(self._corner_cell):
            out += self.rho_1d[cells, c]
        return out

    def load_field_from_grid(self, *components: np.ndarray) -> None:
        """Broadcast point-based field arrays (one per axis) into the
        redundant layout.

        Each cell's row gets the field values at its corners (with
        periodic wrap), one group of columns per component.  This is the
        step that costs ``2^ndim`` x memory and buys contiguous
        per-particle reads.  One precomputed gather per component,
        written row by row in memory order.
        """
        shape = self.grid.shape
        if len(components) != len(shape) or any(
            np.shape(comp) != shape for comp in components
        ):
            raise ValueError("field arrays must have grid shape")
        ncorner = self.rho_1d.shape[1]
        for k, comp in enumerate(components):
            self.e_1d[:, k * ncorner:(k + 1) * ncorner] = np.append(
                np.asarray(comp, dtype=np.float64), 0.0
            )[self._corner_point]

    #: the names :class:`StandardFields` gives the same two operations
    set_field_from_grid = load_field_from_grid
    rho_grid = reduce_rho_to_grid

    def field_at_grid(self) -> tuple[np.ndarray, ...]:
        """Recover the point-based components from the redundant layout.

        Reads corner 0 of each cell; used by tests to verify the
        broadcast round-trips.
        """
        idx, ncorner = self._cell_index_map, self.rho_1d.shape[1]
        return tuple(
            self.e_1d[idx, k * ncorner].copy() for k in range(len(self.grid.shape))
        )

    @property
    def memory_bytes(self) -> int:
        return self.rho_1d.nbytes + self.e_1d.nbytes
