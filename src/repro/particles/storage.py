"""Particle storage: Structure-of-Arrays vs Array-of-Structures.

Both containers hold the paper's particle representation:

* ``icell`` — linear cell index under the active cell ordering
* ``dx, dy`` — normalized in-cell offsets in ``[0, 1)``
* ``vx, vy`` — velocities (in grid units per time step when the
  loop-hoisting optimization is on, physical units otherwise; the
  stepper records which)
* optionally ``ix, iy`` — integer cell coordinates, stored only for
  orderings whose decode is not a single operation (paper §IV-B keeps
  them for L4D and Morton, recomputes for row-major)

:class:`ParticleSoA` keeps one contiguous numpy array per attribute —
the layout that vectorizes (unit stride).  :class:`ParticleAoS` keeps a
single structured (record) array — attribute access returns *strided*
views, faithfully reproducing the stride-of-the-record access pattern
that defeats auto-vectorization in the paper (and measurably slows
numpy kernels here, since every kernel touching a strided view pays a
gather/copy).
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["ParticleStorage", "ParticleSoA", "ParticleAoS", "make_storage"]

_FIELDS = ("icell", "dx", "dy", "vx", "vy")
_COORD_FIELDS = ("ix", "iy")


class ParticleStorage(abc.ABC):
    """Common interface over the two particle layouts."""

    #: "soa" or "aos"
    layout: str

    def __init__(self, n: int, weight: float, store_coords: bool):
        self.n = int(n)
        #: statistical weight of every macro-particle (uniform, §II)
        self.weight = float(weight)
        #: whether integer cell coordinates are stored alongside icell
        self.store_coords = bool(store_coords)

    # -- attribute views ------------------------------------------------
    @property
    @abc.abstractmethod
    def icell(self) -> np.ndarray: ...

    @property
    @abc.abstractmethod
    def dx(self) -> np.ndarray: ...

    @property
    @abc.abstractmethod
    def dy(self) -> np.ndarray: ...

    @property
    @abc.abstractmethod
    def vx(self) -> np.ndarray: ...

    @property
    @abc.abstractmethod
    def vy(self) -> np.ndarray: ...

    @property
    @abc.abstractmethod
    def ix(self) -> np.ndarray: ...

    @property
    @abc.abstractmethod
    def iy(self) -> np.ndarray: ...

    # -- bulk operations -------------------------------------------------
    @abc.abstractmethod
    def set_state(self, icell, dx, dy, vx, vy, ix=None, iy=None) -> None:
        """Overwrite all attributes from plain arrays."""

    @abc.abstractmethod
    def reorder(self, perm: np.ndarray, out: "ParticleStorage | None" = None):
        """Apply a permutation: element j of the result is element perm[j].

        With ``out`` this is the paper's *out-of-place* sort application
        (one store per particle, twice the memory); without it a
        temporary is still created per attribute — numpy fancy indexing
        cannot permute truly in place (see :func:`repro.particles.sorting.sort_in_place`
        for the cycle-following in-place variant).
        Returns the storage holding the reordered particles.
        """

    @abc.abstractmethod
    def clone_empty(self) -> "ParticleStorage":
        """A new storage of the same layout/size with uninitialized data."""

    # -- shared helpers ---------------------------------------------------
    def total_charge(self, q: float) -> float:
        """Total macro-charge carried, ``q * w * n``."""
        return q * self.weight * self.n

    @property
    def memory_bytes(self) -> int:
        """Bytes held by the particle attributes (for the bandwidth model)."""
        per = 5 * 8 + (2 * 8 if self.store_coords else 0)
        return self.n * per

    def views(self) -> dict[str, np.ndarray]:
        """Live views of all attributes, keyed by name — the mapping
        the blocked kernels of :mod:`repro.core.kernels` slice."""
        names = _FIELDS + (_COORD_FIELDS if self.store_coords else ())
        return {f: getattr(self, f) for f in names}

    def as_dict(self) -> dict[str, np.ndarray]:
        """Copies of all attributes (testing convenience)."""
        return {f: np.array(v) for f, v in self.views().items()}


class ParticleSoA(ParticleStorage):
    """Structure of Arrays: one contiguous array per attribute."""

    layout = "soa"

    def __init__(self, n: int, weight: float = 1.0, store_coords: bool = True):
        super().__init__(n, weight, store_coords)
        self._allocate(self.n, self.store_coords)

    def _allocate(self, n: int, store_coords: bool) -> None:
        """Allocation hook: subclasses may place the arrays elsewhere
        (e.g. :class:`repro.parallel.shm.SharedParticleStorage` backs
        them with shared memory)."""
        self._icell = np.zeros(n, dtype=np.int64)
        self._dx = np.zeros(n)
        self._dy = np.zeros(n)
        self._vx = np.zeros(n)
        self._vy = np.zeros(n)
        if store_coords:
            self._ix = np.zeros(n, dtype=np.int64)
            self._iy = np.zeros(n, dtype=np.int64)

    @property
    def icell(self):
        return self._icell

    @property
    def dx(self):
        return self._dx

    @property
    def dy(self):
        return self._dy

    @property
    def vx(self):
        return self._vx

    @property
    def vy(self):
        return self._vy

    @property
    def ix(self):
        if not self.store_coords:
            raise AttributeError("coords not stored (store_coords=False)")
        return self._ix

    @property
    def iy(self):
        if not self.store_coords:
            raise AttributeError("coords not stored (store_coords=False)")
        return self._iy

    def set_state(self, icell, dx, dy, vx, vy, ix=None, iy=None):
        self._icell[:] = icell
        self._dx[:] = dx
        self._dy[:] = dy
        self._vx[:] = vx
        self._vy[:] = vy
        if self.store_coords:
            if ix is None or iy is None:
                raise ValueError("store_coords=True requires ix and iy")
            self._ix[:] = ix
            self._iy[:] = iy

    def reorder(self, perm, out=None):
        dst = out if out is not None else self.clone_empty()
        if not isinstance(dst, ParticleSoA):
            raise TypeError("out must be a ParticleSoA")
        np.take(self._icell, perm, out=dst._icell)
        np.take(self._dx, perm, out=dst._dx)
        np.take(self._dy, perm, out=dst._dy)
        np.take(self._vx, perm, out=dst._vx)
        np.take(self._vy, perm, out=dst._vy)
        if self.store_coords:
            np.take(self._ix, perm, out=dst._ix)
            np.take(self._iy, perm, out=dst._iy)
        return dst

    def clone_empty(self):
        return ParticleSoA(self.n, self.weight, self.store_coords)


def _aos_dtype(store_coords: bool) -> np.dtype:
    fields = [
        ("icell", np.int64),
        ("dx", np.float64),
        ("dy", np.float64),
        ("vx", np.float64),
        ("vy", np.float64),
    ]
    if store_coords:
        fields += [("ix", np.int64), ("iy", np.int64)]
    return np.dtype(fields)


class ParticleAoS(ParticleStorage):
    """Array of Structures: one record array, strided attribute views.

    Attribute properties return views with ``strides = record size``;
    any numpy kernel consuming them pays the non-unit-stride cost,
    which is the Python-level analogue of the paper's observation that
    AoS blocks (GNU) or degrades (Intel) auto-vectorization.
    """

    layout = "aos"

    def __init__(self, n: int, weight: float = 1.0, store_coords: bool = True):
        super().__init__(n, weight, store_coords)
        self._data = np.zeros(n, dtype=_aos_dtype(store_coords))

    @property
    def icell(self):
        return self._data["icell"]

    @property
    def dx(self):
        return self._data["dx"]

    @property
    def dy(self):
        return self._data["dy"]

    @property
    def vx(self):
        return self._data["vx"]

    @property
    def vy(self):
        return self._data["vy"]

    @property
    def ix(self):
        if not self.store_coords:
            raise AttributeError("coords not stored (store_coords=False)")
        return self._data["ix"]

    @property
    def iy(self):
        if not self.store_coords:
            raise AttributeError("coords not stored (store_coords=False)")
        return self._data["iy"]

    def set_state(self, icell, dx, dy, vx, vy, ix=None, iy=None):
        self._data["icell"] = icell
        self._data["dx"] = dx
        self._data["dy"] = dy
        self._data["vx"] = vx
        self._data["vy"] = vy
        if self.store_coords:
            if ix is None or iy is None:
                raise ValueError("store_coords=True requires ix and iy")
            self._data["ix"] = ix
            self._data["iy"] = iy

    def reorder(self, perm, out=None):
        dst = out if out is not None else self.clone_empty()
        if not isinstance(dst, ParticleAoS):
            raise TypeError("out must be a ParticleAoS")
        np.take(self._data, perm, out=dst._data)
        return dst

    def clone_empty(self):
        return ParticleAoS(self.n, self.weight, self.store_coords)

    @property
    def memory_bytes(self) -> int:
        return self._data.nbytes


def make_storage(
    layout: str, n: int, weight: float = 1.0, store_coords: bool = True
) -> ParticleStorage:
    """Factory: ``layout`` is ``"soa"`` or ``"aos"``."""
    if layout == "soa":
        return ParticleSoA(n, weight, store_coords)
    if layout == "aos":
        return ParticleAoS(n, weight, store_coords)
    raise ValueError(f"unknown particle layout {layout!r} (want 'soa' or 'aos')")
