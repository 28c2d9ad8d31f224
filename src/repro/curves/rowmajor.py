"""Canonical scan orderings: row-major and column-major.

Row-major is the paper's baseline layout: ``icell = ix * ncy + iy`` in
2D, ``(ix * ncy + iy) * ncz + iz`` in 3D — the last axis varies
fastest.  Moves along y change the 2D index by 1 (good locality), moves
along x by ``ncy`` (one cache miss per moved particle once ``ncy``
exceeds a cache line).  Column-major is the transpose (the first axis
varies fastest); it is included because it makes the
direction-asymmetry of scan orders directly testable.
"""

from __future__ import annotations

import numpy as np

from repro.curves.base import CellOrdering, register_ordering

__all__ = ["RowMajorOrdering", "ColumnMajorOrdering"]


def _scan_encode(coords, extents) -> np.ndarray:
    """``(c0 * n1 + c1) * n2 + c2 ...``: the first axis most significant."""
    code = np.asarray(coords[0], dtype=np.int64)
    for c, n in zip(coords[1:], extents[1:]):
        code = code * n + np.asarray(c, dtype=np.int64)
    return code


def _scan_decode(icell, extents) -> tuple[np.ndarray, ...]:
    """Inverse of :func:`_scan_encode`: one division per axis."""
    rest = np.asarray(icell, dtype=np.int64)
    tail = []
    for n in extents[:0:-1]:
        tail.append(rest % n)
        rest = rest // n
    return (rest, *tail[::-1])


class RowMajorOrdering(CellOrdering):
    """The canonical C layout: ``(ix, iy) -> ix * ncy + iy``."""

    name = "row-major"

    def encode(self, *coords):
        return _scan_encode(coords, self.shape)

    def decode(self, icell):
        return _scan_decode(icell, self.shape)


class ColumnMajorOrdering(CellOrdering):
    """The Fortran layout: ``(ix, iy) -> iy * ncx + ix``."""

    name = "column-major"

    def encode(self, *coords):
        return _scan_encode(coords[::-1], self.shape[::-1])

    def decode(self, icell):
        return _scan_decode(icell, self.shape[::-1])[::-1]


register_ordering("row-major", RowMajorOrdering)
register_ordering("column-major", ColumnMajorOrdering)
