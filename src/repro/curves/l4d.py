"""L4D ordering — "column-major of row-major" tiled layout.

Named after the 4-D layout family of Chatterjee et al. ("Nonlinear Array
Layouts for Hierarchical Memory Systems", ICS 1999).  The grid is cut
into horizontal bands of height ``SIZE``; inside a band, cells are laid
out column-segment by column-segment.  The paper's closed form
(§IV-B) is::

    icell = SIZE * ix + mod(iy, SIZE) + ncx * SIZE * (iy // SIZE)

With this layout a horizontal unit move changes the index by ``SIZE``
and a vertical unit move changes it by 1 except when crossing a band
boundary — which happens only 1/SIZE of the time.  This is the
"78 of the time close index" argument of the paper with SIZE=8.

Unlike Morton/Hilbert, L4D works for any grid extents; if ``SIZE`` does
not divide ``ncy`` the final band extends past the grid and the extra
cells are allocated but never accessed (paper §IV-B), so
:attr:`ncells_allocated` can exceed ``ncx * ncy``.
"""

from __future__ import annotations

import numpy as np

from repro.curves.base import CellOrdering, register_ordering

__all__ = ["L4DOrdering"]


class L4DOrdering(CellOrdering):
    """Tiled "column-major of row-major" order with band height ``size``.

    ``size = ncy`` degenerates to row-major order (the paper notes
    ``SIZE=ncy`` *is* row-major); ``size = 1`` degenerates to
    column-major.  The paper's experiments use ``SIZE=8``.
    """

    name = "l4d"
    ndims = (2,)

    def __init__(self, *extents: int, size: int = 8):
        super().__init__(*extents)
        if size <= 0:
            raise ValueError(f"L4D tile height must be positive, got {size}")
        self.size = int(size)
        #: Number of horizontal bands (last one may be partial).
        self.nbands = -(-self.ncy // self.size)

    @property
    def ncells_allocated(self) -> int:
        return self.ncx * self.size * self.nbands

    @property
    def spec(self) -> tuple:
        return self.name, self.shape, (("size", self.size),)

    def encode(self, ix, iy):
        ix = np.asarray(ix, dtype=np.int64)
        iy = np.asarray(iy, dtype=np.int64)
        s = self.size
        return s * ix + iy % s + self.ncx * s * (iy // s)

    def decode(self, icell):
        icell = np.asarray(icell, dtype=np.int64)
        s = self.size
        band_stride = self.ncx * s
        iband, rem = np.divmod(icell, band_stride)
        ix, iy_in_band = np.divmod(rem, s)
        return ix, iband * s + iy_in_band


register_ordering("l4d", L4DOrdering)
