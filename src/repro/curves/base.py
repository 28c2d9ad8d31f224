"""Common interface for cell orderings (space-filling curves).

A *cell ordering* is a bijection between integer grid coordinates
``(ix, iy)`` — ``(ix, iy, iz)`` on a 3D grid — with ``0 <= ix < ncx``
and so on, and a linear cell index ``icell``.  The PIC code stores the
redundant field and charge arrays indexed by ``icell``; the ordering
therefore decides which grid cells are adjacent in memory, and hence
how many cache misses a stream of spatially-local particles generates.

All coordinate transforms are vectorized: they accept and return numpy
integer arrays (or python scalars) and never loop over elements in
Python.
"""

from __future__ import annotations

import abc
import math
from typing import Callable

import numpy as np

__all__ = [
    "CellOrdering",
    "register_ordering",
    "get_ordering",
    "available_orderings",
]

#: Registry of ordering constructors, keyed by lowercase name.
_ORDERING_REGISTRY: dict[str, Callable[..., "CellOrdering"]] = {}


def register_ordering(name: str, factory: Callable[..., "CellOrdering"]) -> None:
    """Register an ordering constructor under ``name`` (case-insensitive).

    ``factory(*extents, **kwargs)`` must return a :class:`CellOrdering`.
    Re-registering an existing name replaces the previous factory.
    """
    _ORDERING_REGISTRY[name.lower()] = factory


def get_ordering(name: str, *extents: int, **kwargs) -> "CellOrdering":
    """Instantiate a registered ordering by name for a grid of
    ``extents`` cells per axis (two or three of them).

    Raises :class:`KeyError` listing the available names if ``name`` is
    unknown.
    """
    try:
        factory = _ORDERING_REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown ordering {name!r}; available: {sorted(_ORDERING_REGISTRY)}"
        ) from None
    return factory(*extents, **kwargs)


def available_orderings() -> list[str]:
    """Sorted names of all registered orderings."""
    return sorted(_ORDERING_REGISTRY)


class CellOrdering(abc.ABC):
    """Bijection between grid coordinates ``(ix, iy[, iz])`` and cell index.

    Subclasses implement :meth:`encode` / :meth:`decode`.  The base class
    provides bounds bookkeeping and a dense index map, used by the field
    layouts and the trace generators.

    Parameters
    ----------
    *extents:
        Cells per axis, one entry per axis of the grid.  Some orderings
        additionally require powers of two (Morton, Hilbert) or serve
        2D grids only (L4D, Hilbert).
    """

    #: Registry / display name, overridden per subclass.
    name: str = "abstract"
    #: The numbers of axes the ordering serves.
    ndims: tuple[int, ...] = (2, 3)

    def __init__(self, *extents: int):
        if len(extents) not in self.ndims:
            raise ValueError(
                f"{type(self).__name__} orders grids of "
                f"{' or '.join(map(str, self.ndims))} axes, got extents {extents}"
            )
        if min(extents) <= 0:
            raise ValueError(
                f"grid dims must be positive, got {' x '.join(map(str, extents))}"
            )
        #: cells per axis
        self.shape = tuple(int(n) for n in extents)
        self.ncx, self.ncy = self.shape[:2]

    # ------------------------------------------------------------------
    # Abstract bijection
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def encode(self, *coords: np.ndarray) -> np.ndarray:
        """Map grid coordinates, one array per axis, to linear cell
        indices (vectorized)."""

    @abc.abstractmethod
    def decode(self, icell: np.ndarray) -> tuple[np.ndarray, ...]:
        """Map linear cell indices back to one coordinate array per axis.

        Behaviour on padding indices (indices not produced by
        :meth:`encode` for any in-bounds coordinate) is undefined.
        """

    # ------------------------------------------------------------------
    # Size bookkeeping
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def ncells(self) -> int:
        """Number of real grid cells, the product of the extents."""
        return math.prod(self.shape)

    @property
    def ncells_allocated(self) -> int:
        """Array length required to hold every encoded index.

        Equal to :attr:`ncells` for paddingless orderings; larger when the
        ordering allocates never-accessed padding cells (L4D with a tile
        height not dividing ``ncy`` — see paper §IV-B).
        """
        return self.ncells

    @property
    def spec(self) -> tuple:
        """``(name, extents, kwargs)`` — what :func:`get_ordering`
        rebuilds this ordering from (a worker process does, from a shard
        message); an ordering with construction parameters lists them
        in ``kwargs``."""
        return self.name, self.shape, ()

    # ------------------------------------------------------------------
    def index_map(self) -> np.ndarray:
        """Dense grid-shaped array of cell indices, ``map[ix, iy, ...] =
        icell``.

        The field layouts read it as their cell index map; it also
        visualises the layout (paper Figs. 3 and 4).
        """
        return self.encode(*np.meshgrid(
            *(np.arange(n, dtype=np.int64) for n in self.shape), indexing="ij"
        ))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}{self.shape}"


def require_power_of_two(value: int, what: str) -> int:
    """Validate that ``value`` is a positive power of two and return its log2."""
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{what} must be a positive power of two, got {value}")
    return int(value).bit_length() - 1
