"""3D space-filling curves — the paper's §VI outlook, implemented.

The conclusion notes that "formulas also exist for space-filling
curves in three dimensions", opening the way to 3d3v simulations.
This module provides the 3D counterpart of the 2D Morton ordering:

* :func:`dilate3_16` / :func:`undilate3_16` — 3-way dilated integers
  (each bit followed by two zeros), the Raman & Wise machinery in 3D;
* :func:`morton_encode_3d` / :func:`morton_decode_3d` — 3D Z-order.

All functions are vectorized bijections validated by the same
round-trip properties as the 2D curves.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dilate3_16",
    "undilate3_16",
    "morton_encode_3d",
    "morton_decode_3d",
]

_U64 = np.uint64


def dilate3_16(x) -> np.ndarray:
    """Insert two zero bits above every bit of a 16-bit integer.

    ``abc`` (bits) becomes ``00a00b00c``.  Shift-and-mask constants for
    the 3-way dilation of up to 16 bits (48-bit results).
    """
    x = np.asarray(x).astype(_U64) & _U64(0xFFFF)
    x = (x | (x << _U64(32))) & _U64(0xFFFF00000000FFFF)
    x = (x | (x << _U64(16))) & _U64(0x00FF0000FF0000FF)
    x = (x | (x << _U64(8))) & _U64(0xF00F00F00F00F00F)
    x = (x | (x << _U64(4))) & _U64(0x30C30C30C30C30C3)
    x = (x | (x << _U64(2))) & _U64(0x9249249249249249)
    return x


def undilate3_16(x) -> np.ndarray:
    """Inverse of :func:`dilate3_16`."""
    x = np.asarray(x).astype(_U64) & _U64(0x9249249249249249)
    x = (x | (x >> _U64(2))) & _U64(0x30C30C30C30C30C3)
    x = (x | (x >> _U64(4))) & _U64(0xF00F00F00F00F00F)
    x = (x | (x >> _U64(8))) & _U64(0x00FF0000FF0000FF)
    x = (x | (x >> _U64(16))) & _U64(0xFFFF00000000FFFF)
    x = (x | (x >> _U64(32))) & _U64(0x0000000000FFFF)
    return x


def morton_encode_3d(ix, iy, iz) -> np.ndarray:
    """3D Morton code; ``iz`` occupies the least-significant positions."""
    return (
        dilate3_16(iz) | (dilate3_16(iy) << _U64(1)) | (dilate3_16(ix) << _U64(2))
    ).astype(np.int64)


def morton_decode_3d(code) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`morton_encode_3d`."""
    c = np.asarray(code).astype(_U64)
    iz = undilate3_16(c)
    iy = undilate3_16(c >> _U64(1))
    ix = undilate3_16(c >> _U64(2))
    return ix.astype(np.int64), iy.astype(np.int64), iz.astype(np.int64)

