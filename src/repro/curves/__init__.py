"""Space-filling curves for cell-index orderings of 2D and 3D Cartesian grids.

The paper compares four orderings of grid cells used to lay out the
redundant electric-field / charge-density arrays in memory:

* **Row-major** ("scan order") — the canonical C layout.
* **L4D** — "column-major of row-major" tiled order (Chatterjee et al.),
  parameterized by a tile height ``SIZE``.
* **Morton** — Z-order / Lebesgue order, implemented with dilated
  integers (Raman & Wise, IEEE ToC 2008).
* **Hilbert** — the classical Hilbert curve (Skilling's algorithm).

Every ordering implements the :class:`~repro.curves.base.CellOrdering`
interface: a vectorized bijection between integer grid coordinates
``(ix, iy)`` and a linear *cell index* ``icell``.  Orderings may allocate
padding cells (e.g. L4D with a tile height that does not divide ``ncy``),
so ``ncells_allocated >= ncx * ncy``; indices of real cells are always
``< ncells_allocated`` and the map is injective on the real cells.

The scan orders and Morton take two or three extents — §VI's outlook,
"formulas also exist for space-filling curves in three dimensions", is
the same classes over a 3D shape (:func:`~repro.curves.morton.dilate`
has one shift-and-mask schedule per axis count).  L4D and Hilbert serve
2D grids only.
"""

from repro.curves.base import (
    CellOrdering,
    available_orderings,
    get_ordering,
    register_ordering,
)
from repro.curves.rowmajor import ColumnMajorOrdering, RowMajorOrdering
from repro.curves.l4d import L4DOrdering
from repro.curves.morton import MortonOrdering, dilate, undilate
from repro.curves.hilbert import (
    HilbertOrdering,
    hilbert_decode_2d,
    hilbert_encode_2d,
)
from repro.curves.locality import (
    LocalityReport,
    index_distance_histogram,
    mean_neighbor_distance,
    neighbor_locality_report,
)

__all__ = [
    "CellOrdering",
    "available_orderings",
    "get_ordering",
    "register_ordering",
    "RowMajorOrdering",
    "ColumnMajorOrdering",
    "L4DOrdering",
    "MortonOrdering",
    "HilbertOrdering",
    "dilate",
    "undilate",
    "hilbert_encode_2d",
    "hilbert_decode_2d",
    "LocalityReport",
    "index_distance_histogram",
    "mean_neighbor_distance",
    "neighbor_locality_report",
]
