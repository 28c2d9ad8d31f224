"""Shared-memory storage for the real multiprocessing engine (§V-B).

The paper-model layers (:mod:`repro.model.mpi`,
:mod:`repro.model.openmp`) only price §V's parallel execution; the
``numpy-mp`` engine runs it.  This module is that engine's storage
half: particle attributes and the redundant ``E_1d``/``rho_1d`` grids
placed in :mod:`multiprocessing.shared_memory` blocks so genuine OS
processes can run the three particle loops of Fig. 1 concurrently.

Three pieces:

* :class:`SharedArena` — owns named shared-memory segments, hands out
  numpy arrays backed by them, and guarantees the segments are
  unlinked on :meth:`~SharedArena.close` or interpreter exit (no stale
  ``/dev/shm`` entries).  Every allocated array is tracked by object
  identity so the engine can recognise "its" arrays when the stepper
  passes them back into kernel calls.
* :class:`SharedParticleStorage` — a :class:`ParticleSoA` whose
  attribute arrays live in an arena.  The engine keeps two of them, a
  front (the stepper's ``particles``) and a back buffer: workers write
  kick/push results into the back arrays and the parent commits by
  :meth:`~SharedParticleStorage.flip` — exchanging the two storages'
  array bindings, O(1), no copy.  The front's sort gathers into the
  same back buffer and flips every column.
* :class:`SharedGrid` — moves the redundant ``rho_1d`` / ``e_1d`` rows
  of a 2D or 3D field storage into the arena and adds the deposit's private target: one
  corner-major ``(ncorner, nalloc)`` slab.  A deposit task owns one
  corner (one slab row) over one cell range and folds the particles
  there in particle order — exactly the terms the serial
  ``np.bincount`` deposit puts in that part of that ``rho_1d`` column
  (:mod:`repro.parallel.partition`).  The slab spans the whole grid,
  so :meth:`SharedGrid.set_cell_ranges` can move the cuts between
  steps without touching the arena.

Workers attach to segments lazily by name via :func:`attach_array`;
the attach path neutralises the ``resource_tracker`` so only the
owning process unlinks a segment (a child-side tracker would otherwise
unlink it a second time at child exit and spam warnings).
"""

from __future__ import annotations

import atexit
import sys
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.particles.storage import ParticleSoA, _gather

__all__ = [
    "ArraySpec",
    "SharedArena",
    "SharedParticleStorage",
    "SharedGrid",
    "attach_array",
]

#: ``(segment_name, dtype_str, shape)`` — everything a worker needs to
#: attach to one shared array, picklable and cheap to ship per task.
ArraySpec = tuple


class SharedArena:
    """Owner of named shared-memory segments backing numpy arrays.

    One arena per engine.  Arrays are allocated one-per-segment; the
    arena remembers ``id(array) -> spec`` so the engine can ask "is
    this exact array one of mine, and how do workers find it?" via
    :meth:`spec_for`.  Close (idempotent, also registered with
    :mod:`atexit`) unlinks every segment; the backing memory itself
    lives until the last mapping drops, so arrays held by the stepper
    stay valid while the ``/dev/shm`` entries are already gone.
    """

    def __init__(self):
        self._segments: list[shared_memory.SharedMemory] = []
        self._arrays: dict[int, tuple[np.ndarray, ArraySpec]] = {}
        self._closed = False
        atexit.register(self.close)

    # ------------------------------------------------------------------
    def alloc(self, shape, dtype=np.float64) -> np.ndarray:
        """A zero-filled shared array of the given shape and dtype."""
        if self._closed:
            raise RuntimeError("arena is closed")
        dt = np.dtype(dtype)
        shape = tuple(int(s) for s in np.atleast_1d(shape)) if np.ndim(shape) else (int(shape),)
        nbytes = max(1, int(np.prod(shape)) * dt.itemsize)
        seg = shared_memory.SharedMemory(create=True, size=nbytes)
        self._segments.append(seg)
        arr = np.ndarray(shape, dtype=dt, buffer=seg.buf)
        arr.fill(0)
        spec: ArraySpec = (seg.name, dt.str, shape)
        self._arrays[id(arr)] = (arr, spec)
        return arr

    def share_copy(self, src: np.ndarray) -> np.ndarray:
        """A shared array initialised with a copy of ``src``."""
        arr = self.alloc(src.shape, src.dtype)
        arr[...] = src
        return arr

    def spec_for(self, arr) -> ArraySpec | None:
        """The attach spec for ``arr`` if this arena owns it, else None."""
        ent = self._arrays.get(id(arr))
        if ent is not None and ent[0] is arr:
            return ent[1]
        return None

    def owns(self, *arrays) -> bool:
        """Whether every given array is arena-allocated."""
        return all(self.spec_for(a) is not None for a in arrays)

    @property
    def segment_names(self) -> tuple[str, ...]:
        return tuple(seg.name for seg in self._segments)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink every segment (idempotent; also runs at exit)."""
        if self._closed:
            return
        self._closed = True
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass
        for seg in self._segments:
            # numpy arrays handed to the stepper may still reference the
            # mapping; close() would then raise BufferError.  Unlinking
            # alone removes the /dev/shm entry — the memory is reclaimed
            # when the last mapping (process) goes away.
            try:
                seg.close()
            except BufferError:
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without double-unlink at exit.

    Python's ``resource_tracker`` registers every ``SharedMemory``
    attach for unlink-at-exit; for a segment owned by the parent that
    is wrong in a worker.  3.13+ exposes ``track=False``; on earlier
    versions the registration is suppressed during the attach.  (An
    ``unregister`` *after* attaching would be wrong with the ``fork``
    start method: workers share the parent's tracker process, so the
    unregister would erase the creating process's own registration and
    the parent's later ``unlink`` would trip tracker KeyErrors.)
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    orig_register = resource_tracker.register
    resource_tracker.register = lambda *a, **kw: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register


def attach_array(spec: ArraySpec, cache: dict) -> np.ndarray:
    """Worker-side: the numpy array for ``spec``, attaching on first use.

    ``cache`` maps segment name to ``(segment, array)`` and must live
    as long as the returned arrays are in use (the worker keeps one for
    its whole lifetime).
    """
    name, dtype, shape = spec
    ent = cache.get(name)
    if ent is None:
        seg = _attach_segment(name)
        ent = (seg, np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=seg.buf))
        cache[name] = ent
    return ent[1]


class SharedParticleStorage(ParticleSoA):
    """A :class:`ParticleSoA` whose attribute arrays live in an arena.

    Behaviourally identical to the plain SoA storage (same columns,
    same ``reorder``); only the allocation differs, so the stepper and
    all kernels are none the wiser.  ``clone_empty`` allocates from the
    same arena.  It keeps no spare columns: its sort gathers every
    column into :attr:`back` and flips the two, so the store object
    never changes.
    """

    def __init__(self, n, weight=1.0, ndim=2, *, arena: SharedArena):
        self._arena = arena
        self._alloc = arena.alloc
        super().__init__(n, weight, ndim)
        #: the engine's back buffer, the sort's gather target (set by
        #: the engine; a store outside one cannot sort itself)
        self.back: SharedParticleStorage | None = None

    def _permute(self, perm, map_rows):
        back = self.back
        _gather(perm, [(col, back[name]) for name, col in self.items()], map_rows)
        self.flip(back, self.keys())

    def clone_empty(self):
        return SharedParticleStorage(self.n, self.weight, self.ndim,
                                     arena=self._arena)

    def flip(self, other: "SharedParticleStorage", names) -> None:
        """Exchange the named attribute arrays with ``other``.

        The engine's commit: ``other`` holds the staged results, and
        after the flip they are this storage's live arrays while the
        superseded ones become the next phase's staging.  Anything
        that kept a reference to an old live array now looks at
        staging memory — read attributes through the storage.
        """
        mine, theirs = self._columns, other._columns
        for name in names:
            mine[name], theirs[name] = theirs[name], mine[name]

    @classmethod
    def from_storage(cls, src, arena: SharedArena) -> "SharedParticleStorage":
        """Copy an existing storage's state into a shared one."""
        out = cls(src.n, src.weight, src.ndim, arena=arena)
        out.set_state(**src)
        return out


class SharedGrid:
    """Shared redundant field storage plus the deposit's private slab.

    Moves ``fields.rho_1d`` / ``fields.e_1d`` into the arena (the
    field storage — :class:`~repro.grid.fields.RedundantFields` or its
    3D counterpart — adopts the shared arrays in place, so every
    stepper-side read and the Poisson fold see them),
    and holds the deposit's target and cuts:

    * ``slab`` — corner-major ``(ncorner, nalloc)``; task ``(c, range)``
      writes ``slab[c, range]`` (the deposit overwrites), and the parent
      copies the whole slab into ``rho_1d`` once every task is in;
    * ``cell_ranges`` — the contiguous cell ranges each column is cut
      into (any disjoint contiguous cover of ``nalloc``; one range
      spanning the grid until there are more workers than corners).

    Every ``slab`` element has one owning task, which folds exactly
    the bincount terms the serial deposit would put in the matching
    ``rho_1d`` element (same particles, same order), so the copy is
    bitwise-identical to the serial deposit at any worker count and
    for any cuts.
    """

    def __init__(self, fields, arena: SharedArena, cell_ranges):
        self.fields = fields
        self.arena = arena
        self.nalloc, ncorner = (int(s) for s in fields.rho_1d.shape)
        self.rho_1d = arena.share_copy(fields.rho_1d)
        self.e_1d = arena.share_copy(fields.e_1d)
        fields.adopt_arrays(self.rho_1d, self.e_1d)
        self.slab = arena.alloc((ncorner, self.nalloc))
        self.set_cell_ranges(cell_ranges)

    def set_cell_ranges(self, ranges) -> None:
        """Adopt new cuts (validated, effective at the next deposit —
        the full-grid slab needs no reallocation)."""
        ranges = list(ranges)
        pos = 0
        for sl in ranges:
            if sl.start != pos or sl.stop < sl.start:
                raise ValueError(f"ranges must tile [0, {self.nalloc}) contiguously")
            pos = sl.stop
        if pos != self.nalloc:
            raise ValueError(f"ranges must cover all {self.nalloc} cell rows")
        self.cell_ranges = ranges
