"""Pluggable kernel-execution backends.

The paper's argument is about *how* the three inner loops execute —
scalar vs vectorized, branchy vs branchless — so the engine exposes the
execution strategy as a named **backend** rather than hard-wiring one:

* ``"numpy"`` — the cache-blocked NumPy array kernels of
  :mod:`repro.core.kernels` (the Python rendering of the paper's
  auto-vectorized C loops).  Always available.
* ``"c"`` — the C99 loops of ``ckernels.c``, the rendering the
  paper itself times: compiled with the host ``cc`` at first use,
  cached per user, loaded through :mod:`ctypes`.  Bitwise equal to
  ``"numpy"`` in both dimensions.  Usable wherever a C compiler is on
  ``PATH``; everything else keeps working without one.
* ``"auto"`` — the selection policy: the highest-priority backend
  that is available (``c`` first, then ``numpy``).

Every backend implements the same ten kernels (:class:`KernelBackend`)
— seven particle loops over the redundant rows of any dimension (one of
them :meth:`~KernelBackend.advance`, update-v then the push as one
pass), the two per-cell loops of that layout (ρ fold and field
broadcast) and the energy diagnostics' sum of squares — and
all backends must produce identical physics; the
cross-backend equivalence suite (``tests/test_backends.py``) checks
each registered backend against the scalar oracles.

Usage::

    from repro.core.backends import get_backend, available_backends

    backend = get_backend("auto")
    backend.accumulate_rows(rho_1d, icell, (dx, dy), charge)

The stepper resolves :attr:`OptimizationConfig.backend` through
:func:`get_backend` once at construction and dispatches every kernel
call through the resulting object.
"""

from __future__ import annotations

import abc
import ctypes
import logging
import time

import numpy as np

from repro.core import kernels as _k

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "CBackend",
    "BackendUnavailableError",
    "register_backend",
    "get_backend",
    "resolve_backend_name",
    "known_backend_names",
    "available_backends",
    "degradation_chain",
    "AUTO",
]

#: The name of the auto-selection policy (not itself a backend).
AUTO = "auto"

_log = logging.getLogger("repro.backends")

#: Set after the first attempt to import plugin backend modules (the
#: ``numpy-mp`` engine lives in :mod:`repro.parallel.executor`, which
#: imports *this* module — loading it lazily from the registry
#: functions, with the flag set first, keeps the cycle harmless).
_PLUGINS_LOADED = False

#: Auto resolutions already announced (one log line per resolved name).
_AUTO_ANNOUNCED: set[str] = set()


def _load_plugin_backends() -> None:
    global _PLUGINS_LOADED
    if _PLUGINS_LOADED:
        return
    _PLUGINS_LOADED = True
    try:
        import repro.parallel.executor  # noqa: F401  (registers numpy-mp)
    except Exception:  # pragma: no cover - plugin must never break core
        _log.debug("plugin backend load failed", exc_info=True)


class BackendUnavailableError(ImportError):
    """Requested backend exists but cannot run on this host."""


class KernelBackend(abc.ABC):
    """One execution strategy for the PIC inner loops.

    The abstract methods are the whole overridable surface, and what
    the steppers call: seven particle loops over the redundant
    ``[ncell][2^ndim]`` rows, written over tuples of per-axis arrays so
    one method serves 2D and 3D, the two per-cell loops between those
    rows and the grid points the solver works on, and the sum of
    squares of the kinetic and field energies.  :class:`NumpyBackend`
    implements all ten; a faster backend subclasses it and overrides
    what it accelerates.
    """

    #: Registry key; subclasses must override.
    name: str = "?"
    #: ``"auto"`` picks the available backend with the highest priority.
    priority: int = 0
    #: Next backend to fall back to when this one keeps failing at
    #: runtime (the supervisor's degradation chain); ``None`` ends the
    #: chain.  Distinct from ``priority``: priority ranks *preference*
    #: at selection time, ``degrades_to`` encodes which simpler engine
    #: can take over mid-run with identical physics.
    degrades_to: str | None = None
    #: What :meth:`is_available` found missing, for the error message.
    needs: str = "extra dependencies that are not installed"

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend's dependencies are importable."""
        return True

    # ------------------------------------------------------------------
    # Redundant rows, any dimension: per-axis arguments are tuples
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def interpolate_rows(self, e_1d, icell, offsets):
        """Gather the field at the particles from the redundant
        ``e_1d[ncell][ndim * 2^ndim]`` rows: one fresh array per
        axis."""

    @abc.abstractmethod
    def accumulate_rows(self, rho_1d, icell, offsets, charge=1.0,
                        corners=None) -> None:
        """CiC scatter onto the redundant ``rho_1d[ncell][2^ndim]``,
        written over what was there (``rho = Σ``); with ``corners`` (a
        list of column indices) only those columns, with the bits the
        whole deposit puts there."""

    @abc.abstractmethod
    def reduce_rows(self, fields) -> np.ndarray:
        """The ρ fold of a :class:`~repro.grid.fields.RedundantFields`:
        a fresh grid-shaped array in which every grid point starts from
        +0.0 and adds its ``2^ndim`` corner entries of ``fields.rho_1d``
        in corner order (periodic)."""

    @abc.abstractmethod
    def broadcast_rows(self, fields, components, scales) -> None:
        """The field broadcast: every cell row of ``fields.e_1d`` gets
        ``components[k][corner point] * scales[k]`` in column group
        ``k``; :class:`ValueError` unless there is one grid-shaped
        component per axis.  Padding rows stay zero."""

    @abc.abstractmethod
    def kick(self, vs, e_ps, coefs) -> None:
        """``v += coef * e_p`` in place, per axis of the tuples."""

    @abc.abstractmethod
    def update_v(self, vs, e_1d, icell, offsets, drive=None) -> None:
        """Update-v (Fig. 1 line 9) in hoisted units: ``v += E`` in
        place, per axis, with ``E`` gathered from the rows as
        :meth:`interpolate_rows` does — the bits of :meth:`kick` with
        every coefficient 1 over :meth:`interpolate_rows`' result, or
        of :func:`repro.core.kernels.drive_kick` with a 2D ``drive``
        (:class:`~repro.core.kernels.Drive`: the zoo's external field
        and Boris rotation)."""

    @abc.abstractmethod
    def push(self, particles, extents, ordering, scales, wrap=None) -> None:
        """Advance positions, wrap, re-derive ``icell`` and the cell
        coordinates, over ``len(extents)`` axes, in place.

        ``wrap`` names the fold (:func:`repro.core.kernels.wrap_for`;
        by default the extents pick: bitwise on power-of-two extents,
        modulo on any other).  ``particles`` is a storage or a plain
        mapping of arrays; the results are written *through* its
        ``icell``, offsets and any stored coordinates, and under the
        ``"reflect"`` wrap its velocities.
        """

    @abc.abstractmethod
    def advance(self, particles, e_1d, extents, ordering, wrap=None,
                drive=None) -> tuple[float, float]:
        """Update-v, then the in-place push, of ``particles`` in hoisted
        units — the bits of :meth:`update_v` (with ``drive``) over the
        store's columns followed by :meth:`push` (with ``wrap``) with
        every scale 1 — as one pass where the backend has one.  Returns
        the seconds spent in each of the two loops."""

    @abc.abstractmethod
    def counting_sort_permutation(self, keys, ncells):
        """Stable counting-sort permutation of ``keys`` by cell
        (stability fixes it uniquely, whoever computes it)."""

    @abc.abstractmethod
    def sum_squares(self, columns, scales) -> float:
        """``Σ_k Σ_a (c_a[k] * scale_a)²`` over two or three equally
        shaped columns (read in C order): per term a left fold over the
        columns, over the terms the bits of NumPy's pairwise ``np.sum``
        (:func:`repro.core.kernels.sum_squares`) — the energies'
        one pass."""

    # ------------------------------------------------------------------
    # The axis-spelled names the frozen benchmark ledger calls
    # (benchmarks/ledger/simbench.py): adapters onto the kernels above,
    # overridden nowhere and called by nothing under src/.
    # ------------------------------------------------------------------
    def interpolate_redundant(self, e_1d, icell, dx, dy):
        return self.interpolate_rows(e_1d, icell, (dx, dy))

    def interpolate_redundant_3d(self, e_1d, icell, dx, dy, dz):
        return self.interpolate_rows(e_1d, icell, (dx, dy, dz))

    def accumulate_redundant(self, rho_1d, icell, dx, dy, charge=1.0) -> None:
        self.accumulate_rows(rho_1d, icell, (dx, dy), charge)

    def accumulate_redundant_3d(self, rho_1d, icell, dx, dy, dz, charge=1.0) -> None:
        self.accumulate_rows(rho_1d, icell, (dx, dy, dz), charge)

    def update_velocities(self, vx, vy, ex_p, ey_p, coef_x=1.0, coef_y=1.0) -> None:
        self.kick((vx, vy), (ex_p, ey_p), (coef_x, coef_y))

    # the ledger passes its config's ``position_update``; the extents
    # pick the wrap, so ``variant`` is ignored
    def push_positions(
        self, particles, ncx, ncy, ordering, variant, scale_x=1.0, scale_y=1.0
    ) -> None:
        self.push(particles, (ncx, ncy), ordering, (scale_x, scale_y))

    def push_positions_3d(
        self, particles, shape, ordering, scale=(1.0, 1.0, 1.0), variant="bitwise"
    ) -> None:
        self.push(particles, shape, ordering, scale)

    # ------------------------------------------------------------------
    # Stepper lifecycle hooks (no-ops for in-process backends)
    # ------------------------------------------------------------------
    def prepare_stepper(self, stepper) -> None:
        """Called once per stepper, after its storage is built and
        before the first kernel call.  Backends that need per-stepper
        state (e.g. the ``numpy-mp`` shared-memory engine) may relocate
        the stepper's arrays here; the default does nothing."""

    def release_stepper(self, stepper) -> None:
        """Called from ``stepper.close()``: release any per-stepper
        state acquired in :meth:`prepare_stepper`."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[KernelBackend]] = {}
_INSTANCES: dict[str, KernelBackend] = {}


def register_backend(cls: type[KernelBackend]) -> type[KernelBackend]:
    """Class decorator: add a :class:`KernelBackend` to the registry.

    Registration is by :attr:`KernelBackend.name`; re-registering a
    name replaces the previous class (and drops its cached instance),
    so tests can stub backends in and out.
    """
    if not issubclass(cls, KernelBackend):
        raise TypeError(f"{cls!r} is not a KernelBackend subclass")
    if cls.name in (AUTO, KernelBackend.name):
        raise ValueError(f"invalid backend name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    _INSTANCES.pop(cls.name, None)
    return cls


def known_backend_names() -> tuple[str, ...]:
    """All registered backend names, whether or not importable."""
    _load_plugin_backends()
    return tuple(_REGISTRY)


def available_backends() -> tuple[str, ...]:
    """Registered backends whose dependencies are importable."""
    _load_plugin_backends()
    return tuple(n for n, c in _REGISTRY.items() if c.is_available())


def _auto_candidates() -> list[str]:
    """Available backend names, best (highest priority) first."""
    ranked = sorted(
        ((c.priority, n) for n, c in _REGISTRY.items() if c.is_available()),
        reverse=True,
    )
    if not ranked:  # pragma: no cover - numpy backend is always available
        raise BackendUnavailableError("no kernel backend is available")
    return [n for _p, n in ranked]


def degradation_chain(name: str = AUTO) -> tuple[str, ...]:
    """The runtime fallback chain starting at ``name``.

    Follows :attr:`KernelBackend.degrades_to` links (``c`` → ``numpy``,
    ``numpy-mp`` → ``numpy``), keeping only
    backends that are available, so the result is the
    ordered list of engines a supervised run may degrade through —
    index 0 is the backend ``name`` resolves to.  Unknown names yield
    a single-element chain of themselves resolved (the caller will hit
    the usual :func:`get_backend` error when instantiating).
    """
    _load_plugin_backends()
    current: str | None = resolve_backend_name(name)
    chain: list[str] = []
    seen: set[str] = set()
    while current is not None and current not in seen:
        seen.add(current)
        cls = _REGISTRY.get(current)
        if cls is None:
            if not chain:
                chain.append(current)
            break
        if cls.is_available():
            chain.append(current)
        current = cls.degrades_to
    return tuple(chain)


def resolve_backend_name(name: str = AUTO) -> str:
    """Apply the auto-selection policy without instantiating.

    ``"auto"`` resolves to the available backend with the highest
    :attr:`~KernelBackend.priority` — ``c`` wherever it can be built
    beats ``numpy``, and ``numpy-mp`` (priority below both) is
    never auto-picked; an explicit name resolves to itself (validity
    is checked by :func:`get_backend`).
    """
    _load_plugin_backends()
    if name != AUTO:
        return name
    return _auto_candidates()[0]


def _instantiate(name: str) -> KernelBackend:
    if name not in _INSTANCES:
        cls = _REGISTRY[name]
        if not cls.is_available():
            raise BackendUnavailableError(
                f"backend {name!r} is not available here: it needs {cls.needs}"
            )
        _INSTANCES[name] = cls()
    return _INSTANCES[name]


def get_backend(name: str = AUTO) -> KernelBackend:
    """Return the (cached) backend instance for ``name``.

    Raises :class:`KeyError` for unknown names and
    :class:`BackendUnavailableError` for known backends whose
    dependencies are missing.  ``"auto"`` is resilient: if the
    preferred backend passes the availability probe but its
    construction still fails (the compiler exits non-zero, the object
    does not load), the next candidate is used instead, with one
    warning; either way one log line states the resolved backend.
    """
    _load_plugin_backends()
    if name != AUTO:
        if name not in _REGISTRY:
            raise KeyError(
                f"unknown kernel backend {name!r}; known: {known_backend_names()}"
            )
        return _instantiate(name)
    last_exc: Exception | None = None
    for candidate in _auto_candidates():
        try:
            backend = _instantiate(candidate)
        except Exception as exc:
            _log.warning(
                "backend %r is nominally available but failed to "
                "initialize (%s); trying the next candidate", candidate, exc,
            )
            last_exc = exc
            continue
        if candidate not in _AUTO_ANNOUNCED:
            _AUTO_ANNOUNCED.add(candidate)
            _log.info(
                "backend auto-selection resolved to %r (available: %s)",
                candidate, ", ".join(available_backends()),
            )
        return backend
    raise BackendUnavailableError(  # pragma: no cover - numpy always works
        "no kernel backend could be initialized"
    ) from last_exc


# ----------------------------------------------------------------------
# NumPy backend: delegate to the blocked array kernels
# ----------------------------------------------------------------------
@register_backend
class NumpyBackend(KernelBackend):
    """Cache-blocked NumPy array kernels — the auto-vectorized
    rendering."""

    name = "numpy"
    priority = 10
    degrades_to = None  # end of every chain: pure NumPy always works

    interpolate_rows = staticmethod(_k.interpolate_rows)
    accumulate_rows = staticmethod(_k.accumulate_rows)

    def reduce_rows(self, fields):
        return _k.reduce_rows(fields.rho_1d, fields.corner_cell)

    def broadcast_rows(self, fields, components, scales) -> None:
        shape = fields.grid.shape
        if len(components) != len(shape) or len(scales) != len(shape) or any(
            np.shape(comp) != shape for comp in components
        ):
            raise ValueError("one grid-shaped field array (and scale) per axis")
        _k.broadcast_rows(fields.e_1d, fields.corner_point, components, scales)

    def kick(self, vs, e_ps, coefs) -> None:
        for v, e_p, coef in zip(vs, e_ps, coefs):
            _k.kick(v, e_p, coef)

    def update_v(self, vs, e_1d, icell, offsets, drive=None) -> None:
        e_p = self.interpolate_rows(e_1d, icell, offsets)
        if drive is None:
            self.kick(vs, e_p, (1.0,) * len(vs))
        else:
            _k.drive_kick(vs, e_p, drive)

    sum_squares = staticmethod(_k.sum_squares)

    def push(self, particles, extents, ordering, scales, wrap=None) -> None:
        _k.push_blocked(particles, extents, ordering, scales, wrap)

    def advance(self, particles, e_1d, extents, ordering, wrap=None,
                drive=None) -> tuple[float, float]:
        axes = "xyz"[: len(extents)]
        t0 = time.perf_counter()
        self.update_v(
            tuple(particles["v" + a] for a in axes), e_1d, particles["icell"],
            tuple(particles["d" + a] for a in axes), drive,
        )
        t1 = time.perf_counter()
        self.push(particles, extents, ordering, (1.0,) * len(axes), wrap)
        return t1 - t0, time.perf_counter() - t1

    def counting_sort_permutation(self, keys, ncells):
        """The 16-bit radix passes of :mod:`repro.particles.sorting`."""
        from repro.particles.sorting import counting_sort_permutation

        return counting_sort_permutation(keys, ncells)


# ----------------------------------------------------------------------
# C backend: the paper's loops, compiled by the host compiler
# ----------------------------------------------------------------------
#: ``ckernels.c``'s WRAP_* and ORDER_* codes.  Orderings not named here
#: (L4D, Hilbert, anything registered later) are ORDER_OTHER: the C
#: loop writes the coordinates and ``ordering.encode`` runs in Python.
_WRAP_CODES = {"modulo": 0, "bitwise": 1, "reflect": 2}
_ORDER_OTHER, _ORDER_ROW_MAJOR, _ORDER_COLUMN_MAJOR, _ORDER_MORTON = range(4)
_ORDER_CODES = {
    "row-major": _ORDER_ROW_MAJOR, "column-major": _ORDER_COLUMN_MAJOR,
    "morton": _ORDER_MORTON,
}

_INT, _I64, _F64, _PTR = (
    ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
)
_COLS, _I64S, _F64S = (ctypes.POINTER(t) for t in (_PTR, _I64, _F64))
#: the per-axis (2, 3) and per-corner (4, 8) argument arrays, by
#: length.  Made here, not at the first call: ctypes keeps an array type
#: for the life of the process, and one made mid-run sits on the heap
#: above the particle arrays, which glibc then cannot return when they
#: are freed (docs/kernels.md).
_PTR_N, _I64_N, _F64_N = (
    {k: t * k for k in (2, 3, 4, 8)} for t in (_PTR, _I64, _F64)
)


class _Drive(ctypes.Structure):
    """``ckernels.c``'s ``drive``: a :class:`repro.core.kernels.Drive`."""

    _fields_ = [("field", _INT), ("rotate", _INT), ("e", _F64_N[2]),
                ("t", _F64), ("s", _F64), ("scale", _F64_N[2])]


def _c_drive(drive):
    """The ``const drive *`` argument of a 2D ``drive``, or ``None``."""
    if drive is None:
        return None
    return ctypes.byref(_Drive(
        drive.field is not None, drive.rotation is not None,
        _F64_N[2](*(drive.field or (0.0, 0.0))),
        *(drive.rotation or (0.0, 0.0)), _F64_N[2](*drive.scales),
    ))

#: ``ckernels.c``'s exported functions: (restype, argtypes)
_C_SIGNATURES = {
    "interp_rows": (_I64, (_INT, _I64, _I64, _PTR, _PTR, _COLS, _COLS)),
    "update_v_rows": (_I64, (_INT, _I64, _I64, _PTR, _PTR, _COLS, _COLS,
                             ctypes.POINTER(_Drive))),
    "push": (None, (_INT, _I64, _INT, _INT, _I64S, _F64S, _PTR,
                    _COLS, _COLS, _COLS)),
    "deposit_rows": (_I64, (_INT, _I64, _I64, _COLS, _I64, _PTR, _COLS, _F64)),
    "reduce_rows": (_I64, (_INT, _I64S, _I64, _PTR, _PTR, _PTR)),
    "broadcast_rows": (_I64, (_INT, _I64S, _I64, _PTR, _COLS, _F64S, _PTR)),
    "sort_permutation": (_I64, (_I64, _I64, _PTR, _PTR, _PTR)),
    "sum_squares": (ctypes.c_double, (_INT, _I64, _COLS, _F64S)),
    "advance": (_I64, (_INT, _I64, _I64, _PTR, _INT, _INT, _I64S, _PTR,
                       _COLS, _COLS, _COLS, ctypes.POINTER(_Drive), _F64S)),
    "first_outside": (_I64, (_I64, _PTR, _I64)),
    "kernel_isa": (ctypes.c_char_p, ()),
}


def _fits(a, dtype, shape, write=True) -> bool:
    """Whether ``ckernels.c`` can index ``a`` as it is: a C-contiguous
    array of exactly this dtype and shape, writeable unless ``write``
    is false (an input only the grid loops read).  Anything else (a
    strided view, a list, an int32 index) takes the inherited NumPy
    kernel, which converts or raises as it always did."""
    return (
        isinstance(a, np.ndarray) and a.dtype == dtype and a.shape == shape
        and a.flags.c_contiguous and (a.flags.writeable or not write)
    )


def _columns(arrays, dtype, shape, write=True):
    """The ``double *const *`` / ``int64_t *const *`` argument over
    per-axis ``arrays`` — or ``None`` unless there are two or three and
    every one :func:`_fits` ``shape``."""
    if len(arrays) not in (2, 3) or not all(
        _fits(a, dtype, shape, write) for a in arrays
    ):
        return None
    return _PTR_N[len(arrays)](*(a.ctypes.data for a in arrays))


def _check_cells(bad, icell, ncell, what="particle") -> None:
    if bad >= 0:
        raise IndexError(
            f"{what} {bad}: cell index {icell.flat[bad]} outside [0, {ncell})"
        )


@register_backend
class CBackend(NumpyBackend):
    """The C99 loops of ``ckernels.c`` — the rendering the paper times —
    compiled by the host ``cc`` at first use (:mod:`repro.core.cbuild`)
    and called through :mod:`ctypes`, which releases the GIL for the
    duration of each call.  On x86-64 the push, update-v, the deposit
    and the energies' sum of squares are built twice, for the baseline and
    for AVX-512 (x86-64-v4), and the loader binds the clone the host
    runs (``build_info.isa``); both give the same bits.

    Overrides the redundant-row gather, update-v (the gather and the
    kick in one pass, no N-sized ``e_p`` between them, the zoo's drive
    stages included) and the deposit, the ρ fold and the field
    broadcast, the push (every wrap), update-v and the push as one pass
    over cache-sized particle blocks (:meth:`advance`), the sort
    permutation and the energies' sum of squares (NumPy's pairwise
    fold over terms formed on the fly); the stand-alone kick (one
    ``np.add``, which measures no slower than a C loop — the t=0
    half-kick calls it), a drive outside 2D and any argument that does
    not :func:`_fits` the C ABI run the inherited NumPy kernels.  The
    arithmetic is written to NumPy's bits — the same weight products,
    the same corner fold, ``v + e`` in NumPy's order, no FMA
    contraction — so everything is bitwise equal to ``numpy`` in both
    dimensions.
    """

    name = "c"
    priority = 20
    degrades_to = "numpy"
    needs = "a C compiler on PATH (cc, gcc or clang)"

    @classmethod
    def is_available(cls) -> bool:
        """A C compiler on ``PATH``, or an object built earlier."""
        # imported where used: 15 ms a numpy-only process need not pay
        from repro.core import cbuild

        return cbuild.find_compiler() is not None or bool(cbuild.cached_objects())

    def __init__(self, extra_flags=()):
        from repro.core import cbuild

        #: the loaded library and where it came from (``repro info``)
        try:
            self._lib, self.build_info = cbuild.load(extra_flags)
        except cbuild.BuildError as exc:
            raise BackendUnavailableError(f"backend 'c': {exc}") from exc
        for fn, (restype, argtypes) in _C_SIGNATURES.items():
            getattr(self._lib, fn).restype = restype
            getattr(self._lib, fn).argtypes = argtypes

    # -- redundant rows ------------------------------------------------
    @staticmethod
    def _row_offsets(rows, width, icell, offsets):
        """The offsets' column pointers, if the row kernels' arguments
        fit ``ckernels.c`` (``rows`` being ``(ncell, width)``)."""
        n = len(icell)
        if _fits(rows, np.float64, (len(rows), width)) and _fits(icell, np.int64, (n,)):
            return _columns(offsets, np.float64, (n,))
        return None

    def interpolate_rows(self, e_1d, icell, offsets):
        ndim, n = len(offsets), len(icell)
        d = self._row_offsets(e_1d, ndim << ndim, icell, offsets)
        if d is None:
            return super().interpolate_rows(e_1d, icell, offsets)
        e_p = tuple(np.empty(n) for _ in offsets)
        cols = _columns(e_p, np.float64, (n,))
        bad = self._lib.interp_rows(
            ndim, n, len(e_1d), e_1d.ctypes.data, icell.ctypes.data, d, cols,
        )
        _check_cells(bad, icell, len(e_1d))
        return e_p

    def update_v(self, vs, e_1d, icell, offsets, drive=None) -> None:
        ndim, n = len(offsets), len(icell)
        d = self._row_offsets(e_1d, ndim << ndim, icell, offsets)
        v = _columns(vs, np.float64, (n,)) if d is not None else None
        if v is None or len(vs) != ndim or drive is not None and ndim != 2:
            return super().update_v(vs, e_1d, icell, offsets, drive)
        bad = self._lib.update_v_rows(
            ndim, n, len(e_1d), e_1d.ctypes.data, icell.ctypes.data, d, v,
            _c_drive(drive),
        )
        _check_cells(bad, icell, len(e_1d))

    def accumulate_rows(self, rho_1d, icell, offsets, charge=1.0,
                        corners=None) -> None:
        """Straight into the owned columns of ``rho_1d``, through their
        strides, which may be any writeable float64 view with positive
        element strides (the ``numpy-mp`` worker passes its
        corner-major slab, transposed, whole or cut to a cell range);
        a C-contiguous ``rho_1d`` gives each particle one contiguous
        row."""
        ndim, n = len(offsets), len(icell)
        nc = 1 << ndim
        d = None
        if (
            isinstance(rho_1d, np.ndarray) and rho_1d.dtype == np.float64
            and rho_1d.shape[1:] == (nc,) and rho_1d.flags.writeable
            and all(s > 0 and s % rho_1d.itemsize == 0 for s in rho_1d.strides)
            and _fits(icell, np.int64, (n,)) and not np.ndim(charge)
        ):
            d = _columns(offsets, np.float64, (n,))
        if d is None:
            return super().accumulate_rows(rho_1d, icell, offsets, charge, corners)
        stride, step = (s // rho_1d.itemsize for s in rho_1d.strides)
        col = [None] * nc
        for c in range(nc) if corners is None else corners:
            col[c] = rho_1d.ctypes.data + c * step * rho_1d.itemsize
        bad = self._lib.deposit_rows(
            ndim, n, len(rho_1d), _PTR_N[nc](*col), stride,
            icell.ctypes.data, d, charge,
        )
        _check_cells(bad, icell, len(rho_1d))

    # -- the per-cell loops -------------------------------------------
    @staticmethod
    def _grid_args(fields, rows, groups):
        """``(ndim, extents, cell map)`` for the grid loops over
        ``rows`` — ``groups`` column groups of ``2^ndim`` — or ``None``
        when the store's arrays do not fit ``ckernels.c``."""
        cell_map = fields.cell_index_map()
        ndim = cell_map.ndim
        if ndim not in (2, 3) or not (
            _fits(rows, np.float64, (len(rows), groups << ndim))
            and _fits(cell_map, np.int64, cell_map.shape, write=False)
        ):
            return None
        return ndim, _I64_N[ndim](*cell_map.shape), cell_map

    def reduce_rows(self, fields):
        args = self._grid_args(fields, fields.rho_1d, 1)
        if args is None:
            return super().reduce_rows(fields)
        ndim, extents, cell_map = args
        out = np.empty(cell_map.shape)
        bad = self._lib.reduce_rows(
            ndim, extents, len(fields.rho_1d), cell_map.ctypes.data,
            fields.rho_1d.ctypes.data, out.ctypes.data,
        )
        _check_cells(bad, cell_map, len(fields.rho_1d), "grid point")
        return out

    def broadcast_rows(self, fields, components, scales) -> None:
        args = self._grid_args(fields, fields.e_1d, len(components))
        comps = None
        if args is not None and len(scales) == args[0] and not any(
            np.ndim(s) for s in scales
        ):
            comps = _columns(components, np.float64, args[2].shape, write=False)
        if comps is None:
            return super().broadcast_rows(fields, components, scales)
        ndim, extents, cell_map = args
        bad = self._lib.broadcast_rows(
            ndim, extents, len(fields.e_1d), cell_map.ctypes.data, comps,
            _F64_N[ndim](*scales), fields.e_1d.ctypes.data,
        )
        _check_cells(bad, cell_map, len(fields.e_1d), "grid point")

    # -- push ----------------------------------------------------------
    @staticmethod
    def _push_args(p, extents, ordering, scales, wrap):
        """``(args, coords)``: the arguments of ``ckernels.c``'s push of
        ``p`` after ``(ndim, n)``, the code of ``wrap`` first (default:
        :func:`repro.core.kernels.wrap_for`'s), and the coordinate
        columns, which the caller holds until the call returns (they may
        be temporaries ``args`` points into) — or ``None`` when an
        argument does not fit the C ABI."""
        ndim, icell = len(extents), p["icell"]
        n, axes = len(icell), "xyz"[: len(extents)]
        wrap = _WRAP_CODES[wrap or _k.wrap_for(extents)]
        order = _ORDER_CODES.get(ordering.name, _ORDER_OTHER)
        d = _columns([p["d" + a] for a in axes], np.float64, (n,))
        v = _columns([p["v" + a] for a in axes], np.float64, (n,))
        if (
            d is None or v is None
            or not _fits(icell, np.int64, (n,))
            or not all(0 < nc < 2**31 for nc in extents)
            or any(np.ndim(s) for s in scales)
        ):
            return None
        # scan orders decode inline; other curves keep the coordinates
        # stored, or have them decoded here into temporaries the push
        # overwrites
        coords = icoord = None
        if "ix" in p:
            coords = [p["i" + a] for a in axes]
        elif order not in (_ORDER_ROW_MAJOR, _ORDER_COLUMN_MAJOR):
            coords = [np.ascontiguousarray(c, dtype=np.int64)
                      for c in ordering.decode(icell)]
        if coords is not None:
            icoord = _columns(coords, np.int64, (n,))
            if icoord is None:
                return None
        args = (
            wrap, order, _I64_N[ndim](*extents), _F64_N[ndim](*scales),
            icell.ctypes.data, d, v, icoord,
        )
        return args, coords

    def push(self, particles, extents, ordering, scales, wrap=None) -> None:
        """``ckernels.c``'s ``push``, in place; the inherited NumPy push
        when an argument does not fit the C ABI."""
        call = self._push_args(particles, extents, ordering, scales, wrap)
        if call is None:
            return super().push(particles, extents, ordering, scales, wrap)
        args, coords = call
        self._lib.push(len(extents), len(particles["icell"]), *args)
        if args[1] == _ORDER_OTHER:
            particles["icell"][:] = ordering.encode(*coords)

    def advance(self, particles, e_1d, extents, ordering, wrap=None,
                drive=None) -> tuple[float, float]:
        """``ckernels.c``'s ``advance``: update-v and the in-place push
        block by block, with the bits of :meth:`update_v` then
        :meth:`push`; a cell outside the rows raises before any ``v``
        or ``x`` is written.  The inherited two calls when an argument
        does not fit the C ABI."""
        ndim, icell = len(extents), particles["icell"]
        call = self._push_args(particles, extents, ordering, (1.0,) * ndim, wrap)
        if call is None or drive is not None and ndim != 2 or not _fits(
            e_1d, np.float64, (len(e_1d), ndim << ndim)
        ):
            return super().advance(particles, e_1d, extents, ordering, wrap,
                                   drive)
        (code, order, ext, _, cells, d, v, icoord), coords = call
        seconds = _F64_N[2]()
        bad = self._lib.advance(
            ndim, len(icell), len(e_1d), e_1d.ctypes.data, code, order, ext,
            cells, d, v, icoord, _c_drive(drive), seconds,
        )
        _check_cells(bad, icell, len(e_1d))
        if order == _ORDER_OTHER:
            icell[:] = ordering.encode(*coords)
        return seconds[0], seconds[1]

    def first_outside(self, icell, ncell) -> int:
        """-1, or the index of the first cell in ``icell`` (an int64
        column) outside ``[0, ncell)`` — the check every row kernel
        makes before it writes, on its own so that the stepper's thread
        team can make it for every shard first."""
        if not _fits(icell, np.int64, (len(icell),), write=False):
            raise TypeError("icell must be a C-contiguous int64 column")
        return self._lib.first_outside(len(icell), icell.ctypes.data, ncell)

    # -- diagnostics ---------------------------------------------------
    def sum_squares(self, columns, scales) -> float:
        flat = [np.ravel(c) if isinstance(c, np.ndarray) else c for c in columns]
        n = np.size(flat[0])
        c = _columns(flat, np.float64, (n,), write=False)
        if c is None or len(scales) != len(flat) or any(np.ndim(s) for s in scales):
            return super().sum_squares(columns, scales)
        return self._lib.sum_squares(len(flat), n, c, _F64_N[len(flat)](*scales))

    # -- sort ----------------------------------------------------------
    def counting_sort_permutation(self, keys, ncells):
        n = len(keys)
        if not _fits(keys, np.int64, (n,)):
            return super().counting_sort_permutation(keys, ncells)
        perm = np.empty(n, dtype=np.int64)
        cursor = np.empty(ncells, dtype=np.int64)
        if self._lib.sort_permutation(
            n, ncells, keys.ctypes.data, cursor.ctypes.data, perm.ctypes.data
        ) >= 0:
            raise ValueError("keys out of range [0, ncells)")
        return perm
