"""Field and charge-density storage: the redundant layout.

The paper compares two layouts (§II, Fig. 2).  The one stored here is
the **redundant** cell-based one, 1D arrays ``rho_1d[ncell][4]`` and
``E_1d[ncell][8]``: for every cell, the values of ``rho`` (resp.
``Ex`` and ``Ey``) at the cell's four corner grid points are stored
contiguously, in the memory order chosen by a
:class:`~repro.curves.base.CellOrdering`.  The **standard** point-based
arrays ``rho[ncx][ncy]``, ``Ex``, ``Ey`` it starts from are priced by
:mod:`repro.model`, not stored: ``OptimizationConfig.field_layout`` is a
model axis, and every stepper keeps its fields here whatever it names.

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
a corner of four cells, with periodic wrap) before the Poisson solve,
and the solved field broadcast back into the rows after it.  Those two
per-cell loops are kernels like the particle loops —
``reduce_rows`` / ``broadcast_rows`` of a
:class:`~repro.core.backends.KernelBackend`, NumPy's in
:mod:`repro.core.kernels`, C's in ``ckernels.c``.  This module holds
the storage and the geometry they read: the grid-shaped
:meth:`RedundantFields.cell_index_map`, which is all the C loops need,
and the two corner index maps the NumPy bodies gather through, built
on first use.  :meth:`RedundantFields.reduce_rho_to_grid` and
:meth:`RedundantFields.load_field_from_grid` call the body the stepper
hands the store.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "corner_offsets",
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

    def __init__(self, grid, ordering):
        # imported here: the backends import this module
        from repro.core.backends import get_backend

        shape = grid.shape
        if ordering.shape != shape:
            raise ValueError(f"ordering grid shape {ordering.shape} != grid {shape}")
        self.grid = grid
        self.ordering = ordering
        #: the :class:`~repro.core.backends.KernelBackend` whose
        #: ``reduce_rows`` / ``broadcast_rows`` the fold and broadcast
        #: methods call; a stepper sets its own backend here
        self.body = get_backend("numpy")
        nalloc = ordering.ncells_allocated
        ncorner = 1 << len(shape)
        #: per-cell corner charges, ``(nalloc, ncorner)``
        self.rho_1d = np.zeros((nalloc, ncorner))
        #: per-cell corner fields, ``(nalloc, ndim * ncorner)``: one
        #: ``ncorner``-wide group per component (2D: cols 0..3 Ex, 4..7 Ey)
        self.e_1d = np.zeros((nalloc, len(shape) * ncorner))
        #: ``[ix, iy, ...]`` -> the row that cell is stored in
        self._cell_index_map = ordering.index_map()
        self._corner_cell = self._corner_point = None

    # ------------------------------------------------------------------
    # The NumPy bodies' index maps: 2^ndim int64 per cell each (16 MiB
    # at 512^2 for the two), so built on first use — a run whose body
    # reads only the cell index map (``c``) never allocates them
    # ------------------------------------------------------------------
    @property
    def corner_cell(self) -> np.ndarray:
        """``(2^ndim, *grid.shape)``: ``[c][point]`` is the row of the
        cell whose corner ``c`` the grid point is — the cell at
        ``(point - offset_c) mod shape``."""
        if self._corner_cell is None:
            idx = self._cell_index_map
            self._corner_cell = np.stack([
                np.roll(idx, tuple(offset), axis=tuple(range(idx.ndim)))
                for offset in corner_offsets(idx.ndim)
            ])
        return self._corner_cell

    @property
    def corner_point(self) -> np.ndarray:
        """``(nalloc, 2^ndim)``: ``[r, c]`` is the flat grid point of
        corner ``c`` of the cell stored in row ``r``.  Padding rows
        (orderings that allocate more rows than cells) point one past
        the grid, at the zero the NumPy broadcast appends, so they stay
        zero."""
        if self._corner_point is None:
            idx = self._cell_index_map
            flat = np.arange(idx.size, dtype=np.int64).reshape(idx.shape)
            offsets = corner_offsets(idx.ndim)
            self._corner_point = np.full(
                (len(self.rho_1d), len(offsets)), idx.size, dtype=np.int64
            )
            for c, offset in enumerate(offsets):
                self._corner_point[idx, c] = np.roll(
                    flat, tuple(-offset), axis=tuple(range(idx.ndim))
                )
        return self._corner_point

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
        """Zero the corner charges.  The step never needs it (the
        deposit writes ``rho_1d``); kept for the frozen benchmark's
        deposit probe, which calls it between repeats."""
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
        (gx-1, gy), corner 3 of (gx-1, gy-1)), added in corner order
        from +0.0: the body's ``reduce_rows``.
        """
        return self.body.reduce_rows(self)

    def load_field_from_grid(self, *components: np.ndarray) -> None:
        """Broadcast point-based field arrays (one per axis) into the
        redundant layout.

        Each cell's row gets the field values at its corners (with
        periodic wrap), one group of columns per component.  This is the
        step that costs ``2^ndim`` x memory and buys contiguous
        per-particle reads: the body's ``broadcast_rows`` at unit
        scales (the stepper calls it with its field scales), which
        raises :class:`ValueError` unless there is one grid-shaped
        array per axis.
        """
        self.body.broadcast_rows(self, components, (1.0,) * len(components))

    #: the names the frozen benchmark ledger calls
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
