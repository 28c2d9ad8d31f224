"""Locality metrics for cell orderings.

Quantifies the paper's §IV-B argument directly: when a particle moves to
a neighboring grid cell, how far does its *linear* cell index move?  A
layout is cache-friendly for the PIC access pattern exactly when unit
spatial moves usually produce small index deltas (the new field/charge
cell then shares a cache line, or a recently-touched line, with the old
one).

For row-major order every vertical move costs ``ncy`` index positions;
for L4D with tile height ``SIZE`` only ``1/SIZE`` of horizontal moves
are long jumps; Morton and Hilbert bound the *expected* jump without
any tuned parameter.  :func:`neighbor_locality_report` turns this into
numbers the tests assert on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.curves.base import CellOrdering

__all__ = [
    "LocalityReport",
    "index_distance_histogram",
    "mean_neighbor_distance",
    "neighbor_locality_report",
]


def _unit_move_deltas(ordering: CellOrdering, dx: int, dy: int) -> np.ndarray:
    """|index delta| for a (dx, dy) periodic move applied to every cell.

    Boundary-wrapping moves are excluded: the paper's locality argument
    concerns interior moves (the wrap is a constant O(1/nc) fraction and
    its jump is the same order for every layout).
    """
    ix, iy = np.meshgrid(
        np.arange(ordering.ncx, dtype=np.int64),
        np.arange(ordering.ncy, dtype=np.int64),
        indexing="ij",
    )
    ix = ix.ravel()
    iy = iy.ravel()
    jx, jy = ix + dx, iy + dy
    interior = (jx >= 0) & (jx < ordering.ncx) & (jy >= 0) & (jy < ordering.ncy)
    before = ordering.encode(ix[interior], iy[interior])
    after = ordering.encode(jx[interior], jy[interior])
    return np.abs(after - before)


def index_distance_histogram(
    ordering: CellOrdering, dx: int, dy: int, bins=(1, 2, 8, 64, np.inf)
) -> dict[str, float]:
    """Fraction of interior ``(dx, dy)`` moves whose |index delta| <= bin.

    Returns a mapping ``{"<=1": f1, "<=2": f2, ...}`` of cumulative
    fractions, one per bin edge.
    """
    deltas = _unit_move_deltas(ordering, dx, dy)
    total = max(len(deltas), 1)
    out: dict[str, float] = {}
    for edge in bins:
        key = "<=inf" if np.isinf(edge) else f"<={int(edge)}"
        out[key] = float(np.count_nonzero(deltas <= edge)) / total
    return out


def mean_neighbor_distance(ordering: CellOrdering, dx: int, dy: int) -> float:
    """Mean |index delta| over all interior ``(dx, dy)`` moves."""
    deltas = _unit_move_deltas(ordering, dx, dy)
    return float(deltas.mean()) if len(deltas) else 0.0


@dataclass(frozen=True)
class LocalityReport:
    """Summary of an ordering's response to the four unit moves.

    Attributes
    ----------
    ordering_name:
        Display name of the ordering measured.
    mean_dx, mean_dy:
        Mean |index delta| for horizontal / vertical unit moves.
    frac_close_dx, frac_close_dy:
        Fraction of unit moves with |index delta| <= ``close_threshold``
        (close moves keep the new cell within a line or two of the old).
    close_threshold:
        The threshold used (in index positions).
    """

    ordering_name: str
    mean_dx: float
    mean_dy: float
    frac_close_dx: float
    frac_close_dy: float
    close_threshold: int

    @property
    def frac_close_isotropic(self) -> float:
        """Fraction of close jumps assuming unbiased move directions."""
        return 0.5 * (self.frac_close_dx + self.frac_close_dy)


def neighbor_locality_report(
    ordering: CellOrdering, close_threshold: int = 8
) -> LocalityReport:
    """Measure an ordering's unit-move locality (both axes, both signs)."""
    dxs = np.concatenate(
        [_unit_move_deltas(ordering, +1, 0), _unit_move_deltas(ordering, -1, 0)]
    )
    dys = np.concatenate(
        [_unit_move_deltas(ordering, 0, +1), _unit_move_deltas(ordering, 0, -1)]
    )
    return LocalityReport(
        ordering_name=ordering.name,
        mean_dx=float(dxs.mean()),
        mean_dy=float(dys.mean()),
        frac_close_dx=float(np.count_nonzero(dxs <= close_threshold)) / len(dxs),
        frac_close_dy=float(np.count_nonzero(dys <= close_threshold)) / len(dys),
        close_threshold=close_threshold,
    )
