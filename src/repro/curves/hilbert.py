"""Hilbert-curve ordering (Skilling's algorithm, vectorized).

The Hilbert curve (Hilbert 1891) visits every cell of a ``2^k x 2^k``
grid such that consecutive indices are always grid neighbors — the
best theoretical locality of the four orderings studied.  The paper
finds it *loses overall* despite competitive cache behaviour, because
encoding ``(ix, iy) -> icell`` is far more expensive than for the other
curves and is not vectorizable by compilers (Table III: the
update-positions loop takes 133 s vs ~15 s).  We implement the
conversion with numpy ``where``-based rotations (J. Skilling,
"Programming the Hilbert curve", AIP Conf. Proc. 707, 2004), which is
vectorized in the numpy sense but still costs O(log n) dependent passes
per conversion — the cost model (``repro.model.costmodel``) prices this
serial dependency explicitly.

Rectangular power-of-two grids are handled by tiling the longer
dimension into ``s x s`` squares (``s`` = shorter side), each square
Hilbert-ordered, squares concatenated along the longer dimension.
"""

from __future__ import annotations

import numpy as np

from repro.curves.base import CellOrdering, register_ordering, require_power_of_two

__all__ = ["hilbert_encode_2d", "hilbert_decode_2d", "HilbertOrdering"]


def _rot_encode(n, x, y, rx, ry):
    """Quadrant rotation used while walking bit planes top-down (encode)."""
    flip = (ry == 0) & (rx == 1)
    x = np.where(flip, n - 1 - x, x)
    y = np.where(flip, n - 1 - y, y)
    swap = ry == 0
    x, y = np.where(swap, y, x), np.where(swap, x, y)
    return x, y


def hilbert_encode_2d(order: int, ix, iy) -> np.ndarray:
    """Hilbert index of ``(ix, iy)`` on a ``2**order`` square grid.

    Vectorized port of the classical iterative xy->d conversion
    (equivalent to Skilling's transpose algorithm specialized to 2D).
    """
    x = np.asarray(ix, dtype=np.int64).copy()
    y = np.asarray(iy, dtype=np.int64).copy()
    d = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
    n = 1 << order
    s = n >> 1
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        x, y = _rot_encode(n, x, y, rx, ry)
        s >>= 1
    return d


def hilbert_decode_2d(order: int, d) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`hilbert_encode_2d`."""
    t = np.asarray(d, dtype=np.int64).copy()
    x = np.zeros(t.shape, dtype=np.int64)
    y = np.zeros(t.shape, dtype=np.int64)
    n = 1 << order
    s = 1
    while s < n:
        rx = 1 & (t >> 1)
        ry = 1 & (t ^ rx)
        # rotate within the s x s sub-square accumulated so far
        flip = (ry == 0) & (rx == 1)
        x = np.where(flip, s - 1 - x, x)
        y = np.where(flip, s - 1 - y, y)
        swap = ry == 0
        x, y = np.where(swap, y, x), np.where(swap, x, y)
        x += s * rx
        y += s * ry
        t >>= 2
        s <<= 1
    return x, y


class HilbertOrdering(CellOrdering):
    """Hilbert layout of an ``ncx`` x ``ncy`` power-of-two grid."""

    name = "hilbert"
    ndims = (2,)

    def __init__(self, *extents: int):
        super().__init__(*extents)
        self.log_ncx = require_power_of_two(self.ncx, "ncx")
        self.log_ncy = require_power_of_two(self.ncy, "ncy")
        #: Side of the Hilbert square tiles (shorter grid side).
        self.order = min(self.log_ncx, self.log_ncy)
        self.square = 1 << self.order

    def encode(self, ix, iy):
        ix = np.asarray(ix, dtype=np.int64)
        iy = np.asarray(iy, dtype=np.int64)
        s = self.square
        within = hilbert_encode_2d(self.order, ix % s, iy % s)
        # Tile index along the longer dimension (0 for square grids).
        tile = (ix // s) if self.ncx >= self.ncy else (iy // s)
        return tile * (s * s) + within

    def decode(self, icell):
        icell = np.asarray(icell, dtype=np.int64)
        s = self.square
        tile, within = np.divmod(icell, s * s)
        ix, iy = hilbert_decode_2d(self.order, within)
        if self.ncx >= self.ncy:
            ix = ix + tile * s
        else:
            iy = iy + tile * s
        return ix, iy


register_ordering("hilbert", HilbertOrdering)
