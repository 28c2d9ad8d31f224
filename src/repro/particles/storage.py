"""Particle storage: the Structure-of-Arrays layout.

A storage holds the paper's particle representation, in ``ndim``
dimensions (axes ``a`` in ``"xyz"[:ndim]``):

* ``icell`` — linear cell index under the active cell ordering
* ``d<a>`` — normalized in-cell offsets in ``[0, 1)``
* ``v<a>`` — velocities, in the stepper's grid units per time step
  (loop hoisting, §IV-D)
* ``i<a>`` — integer cell coordinates, stored for every ordering.  The
  paper (§IV-B) recomputes them for row-major, whose decode is one
  division per axis; here that division keeps the compiled push
  scalar, and storing them makes it 2-3x faster (docs/paper-map.md)

:func:`particle_fields` is the one place that spells this list; a
storage keeps its columns in one mapping keyed by those names and
reads both as attributes (``p.dx``) and as a read-only mapping
(``p["dx"]``, ``"dz" in p``, ``dict(p)``) — the form the blocked
kernels of :mod:`repro.core.kernels` slice.

:class:`ParticleSoA` keeps one contiguous numpy array per attribute —
the layout that vectorizes (unit stride, §IV-C1) — and, from its first
sort on, one spare column per dtype: the periodic sort
(:meth:`ParticleSoA.reorder` without ``out``) gathers each column
into the spare of its dtype and swaps the two bindings, out of place
at one column's extra memory.
"""

from __future__ import annotations

import numpy as np

__all__ = ["particle_fields", "ParticleSoA"]


def particle_fields(ndim: int) -> tuple[str, ...]:
    """Column names of an ``ndim``-dimensional particle population, in
    the order every consumer (``set_state``, the checkpoint format, the
    differential verifier) iterates them."""
    axes = "xyz"[:ndim]
    return ("icell", *(p + a for p in "dvi" for a in axes))


def _dtype(name: str):
    """``icell`` and the cell coordinates are integers, the rest floats."""
    return np.int64 if name[0] == "i" else np.float64


def _column(name: str) -> property:
    def get(self):
        try:
            return self._columns[name]
        except KeyError:
            raise AttributeError(
                f"{name!r} is not stored (ndim={self.ndim})") from None

    return property(get)


def _gather(perm, pairs, map_rows) -> None:
    """``dst[:] = src[perm]`` for every ``(src, dst)`` of ``pairs``, over
    the row slices of ``map_rows`` (:meth:`ParticleSoA.reorder`)."""
    def gather(rows):
        for src, dst in pairs:
            np.take(src, perm[rows], out=dst[rows], mode="wrap")

    if map_rows is None:
        gather(slice(None))
    else:
        map_rows(gather)


class ParticleSoA:
    """Structure of Arrays: one contiguous array per column, named by
    :func:`particle_fields`; bulk state and reorder."""

    #: ``alloc(n, dtype=...)`` of one zero-filled column — the hook by
    #: which :class:`repro.parallel.shm.SharedParticleStorage` places
    #: the arrays in shared memory instead
    _alloc = staticmethod(np.zeros)

    def __init__(self, n: int, weight: float = 1.0, ndim: int = 2):
        self.n = int(n)
        #: statistical weight of every macro-particle (uniform, §II)
        self.weight = float(weight)
        self.ndim = int(ndim)
        #: column name -> live array, in :func:`particle_fields` order
        self._columns: dict[str, np.ndarray] = {
            name: self._alloc(self.n, dtype=_dtype(name))
            for name in particle_fields(self.ndim)
        }
        #: dtype -> the spare column :meth:`_permute` gathers into
        self._spares = {}

    # -- columns as attributes and as a read-only mapping ----------------
    icell, dx, dy, dz, vx, vy, vz, ix, iy, iz = map(_column, particle_fields(3))

    def __getitem__(self, name: str) -> np.ndarray:
        return self._columns[name]

    def __contains__(self, name) -> bool:
        return name in self._columns

    def keys(self):
        return self._columns.keys()

    def items(self):
        return self._columns.items()

    # -- bulk operations -------------------------------------------------
    def set_state(self, *columns, **named) -> None:
        """Overwrite all attributes from plain arrays, given in
        :func:`particle_fields` order and/or by name."""
        named.update(zip(self._columns, columns))
        for name, arr in self._columns.items():
            if named.get(name) is None:
                raise ValueError(
                    f"no {name!r} given (ndim={self.ndim} requires "
                    f"{tuple(self._columns)})"
                )
            arr[:] = named[name]

    def reorder(self, perm: np.ndarray, out: "ParticleSoA | None" = None,
                map_rows=None):
        """Apply a permutation: element j of the result is element perm[j].

        Without ``out`` — the sort every stepper runs — the store
        permutes its own columns and returns itself (:meth:`_permute`):
        every column is gathered out of place, the paper's fast variant
        (§V-B1), into a column that then takes its binding, so nothing
        is copied back.  With ``out`` every column is gathered into
        that store of the same shape, which is returned (a double
        buffer, twice the memory).  ``map_rows``, if given, runs
        ``gather(rows)`` over row slices that cover the result and
        returns when all are done (the stepper's thread team); every
        row is a copy, so any cut gives the same bits.
        """
        perm = np.asarray(perm)
        # the range is checked once, before any column is written; then
        # mode="wrap" takes straight into the target, where NumPy's
        # default mode="raise" first takes into a buffer and copies that
        if perm.size and (perm.min() < -self.n or perm.max() >= self.n):
            bad = perm[(perm < -self.n) | (perm >= self.n)].flat[0]
            raise IndexError(f"index {bad} is out of bounds for axis 0 "
                             f"with size {self.n}")
        if out is None:
            self._permute(perm, map_rows)
            return self
        if not isinstance(out, ParticleSoA):
            raise TypeError(f"out must be a {type(self).__name__}")
        _gather(perm, [(col, out[name]) for name, col in self.items()], map_rows)
        return out

    def _permute(self, perm, map_rows):
        """One column at a time: gather it into the spare of its dtype,
        which becomes the column, and keep the old column as the spare.
        So the store holds one column per dtype more than it stores,
        whatever the number of columns.  The spares are allocated at the
        first sort, not with the columns: a loader builds the store on
        top of its N-sized temporaries, and two more columns there raise
        the construction's peak footprint (+15 MiB at 1M particles)."""
        columns, spares = self._columns, self._spares
        for name, col in columns.items():
            dt = col.dtype.type
            spare = spares.get(dt)
            if spare is None:
                spare = self._alloc(self.n, dtype=dt)
            _gather(perm, [(col, spare)], map_rows)
            columns[name], spares[dt] = spare, col

    def clone_empty(self) -> "ParticleSoA":
        """A new store of the same size and columns (zero-filled)."""
        return ParticleSoA(self.n, self.weight, self.ndim)

    # -- shared helpers ---------------------------------------------------
    def total_charge(self, q: float) -> float:
        """Total macro-charge carried, ``q * w * n``."""
        return q * self.weight * self.n

    def as_dict(self) -> dict[str, np.ndarray]:
        """Copies of all attributes (testing convenience)."""
        return {f: np.array(v) for f, v in self._columns.items()}
