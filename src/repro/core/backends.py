"""Pluggable kernel-execution backends.

The paper's argument is about *how* the three inner loops execute —
scalar vs vectorized, branchy vs branchless — so the engine exposes the
execution strategy as a named **backend** rather than hard-wiring one:

* ``"numpy"`` — the cache-blocked NumPy array kernels of
  :mod:`repro.core.kernels` (the Python rendering of the paper's
  auto-vectorized C loops).  Always available.
* ``"numba"`` — ``@njit`` scalar loops mirroring the reference
  implementations in :mod:`repro.core.reference`, compiled at first
  use (the Python rendering of the paper's *explicit* per-particle
  loops).  Soft dependency: only usable when :mod:`numba` is
  installed (``pip install repro[jit]``); everything else keeps
  working without it.
* ``"auto"`` — the selection policy: the highest-priority backend
  whose dependencies are importable (``numba`` first, then
  ``numpy``).

Every backend implements the same kernel surface — the 2D accumulate /
interpolate / update-velocities / push-positions family plus their 3D
counterparts — and all backends must produce identical physics; the
cross-backend equivalence suite (``tests/test_backends.py``) checks
each registered backend against the scalar oracles.

Usage::

    from repro.core.backends import get_backend, available_backends

    backend = get_backend("auto")
    backend.accumulate_redundant(rho_1d, icell, dx, dy, charge)

The stepper resolves :attr:`OptimizationConfig.backend` through
:func:`get_backend` once at construction and dispatches every kernel
call through the resulting object.
"""

from __future__ import annotations

import abc
import importlib.util
import logging

import numpy as np

from repro.core import kernels as _k

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "NumbaBackend",
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
    """Requested backend exists but its dependencies are not installed."""


class KernelBackend(abc.ABC):
    """One execution strategy for the PIC inner loops.

    Subclasses provide the per-axis position wrap and the four particle
    kernels (2D and 3D); the position-update *drivers* — which mix the
    axis math with the Python-side cell-ordering encode/decode — are
    shared here so every backend agrees on the (icell, ix, iy)
    bookkeeping.
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
    #: Optional fast paths this backend implements beyond the required
    #: kernel surface.  Known capability names:
    #:
    #: * ``"fused"`` — :meth:`fused_interp_kick_push`, the single-pass
    #:   interpolate+kick+push kernel (no whole-population
    #:   ``ex_p``/``ey_p`` temporaries);
    #: * ``"parallel_deposit"`` — :meth:`accumulate_redundant_parallel`,
    #:   the §V-B private-copies + reduction deposit, bitwise equal to
    #:   the serial one at any thread count;
    #: * ``"counting_sort"`` — a backend-native
    #:   :meth:`counting_sort_permutation` (compiled cursor loop rather
    #:   than the SciPy scatter).
    #: * ``"fused3d"`` — :meth:`fused_interp_kick_push_3d`, the 3D
    #:   single-pass kernel.
    #:
    #: The stepper dispatches on ``"parallel_deposit"``;
    #: ``loop_mode="fused"`` calls the fused kernel outright (every
    #: shipped backend has one).  Physics must be identical either way.
    #: ``"parallel_deposit"`` covers both the 2D and the 3D
    #: private-copies kernels (:meth:`accumulate_redundant_parallel` /
    #: :meth:`accumulate_redundant_parallel_3d`).
    capabilities: frozenset[str] = frozenset()

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend's dependencies are importable."""
        return True

    def supports(self, capability: str) -> bool:
        """Whether this backend offers the named optional fast path."""
        return capability in self.capabilities

    # ------------------------------------------------------------------
    # 2D kernels
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def accumulate_standard(self, rho, ix, iy, dx, dy, charge=1.0) -> None:
        """CiC scatter onto the point-based ``rho[ncx][ncy]``."""

    @abc.abstractmethod
    def accumulate_redundant(self, rho_1d, icell, dx, dy, charge=1.0) -> None:
        """CiC scatter onto the redundant ``rho_1d[ncell][4]``."""

    @abc.abstractmethod
    def interpolate_standard(self, ex, ey, ix, iy, dx, dy):
        """Gather ``(ex_p, ey_p)`` from the point-based field arrays."""

    @abc.abstractmethod
    def interpolate_redundant(self, e_1d, icell, dx, dy):
        """Gather ``(ex_p, ey_p)`` from the redundant 8-column rows."""

    @abc.abstractmethod
    def update_velocities(self, vx, vy, ex_p, ey_p, coef_x=1.0, coef_y=1.0) -> None:
        """``v += coef * E_p`` in place."""

    @abc.abstractmethod
    def push_axis(self, x, nc, variant):
        """Wrap one coordinate axis: returns ``(icoord, offset)``.

        ``variant`` is one of ``"branch"`` / ``"modulo"`` / ``"bitwise"``
        (§IV-C); ``"bitwise"`` requires power-of-two ``nc``.
        """

    # ------------------------------------------------------------------
    # 3D kernels
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def accumulate_redundant_3d(self, rho_1d, icell, dx, dy, dz, charge=1.0) -> None:
        """Trilinear CiC scatter onto the 8-corner redundant rows."""

    @abc.abstractmethod
    def interpolate_redundant_3d(self, e_1d, icell, dx, dy, dz):
        """Gather ``(ex, ey, ez)`` from the 24-column redundant rows."""

    # ------------------------------------------------------------------
    # Optional fast paths (advertised through ``capabilities``)
    # ------------------------------------------------------------------
    def fused_interp_kick_push(
        self,
        fields,
        particles,
        ordering,
        variant,
        coef_x=1.0,
        coef_y=1.0,
        scale_x=1.0,
        scale_y=1.0,
    ) -> None:
        """Single-pass interpolate + kick + push over all particles.

        Semantically identical to running ``interpolate`` +
        ``update_velocities`` + ``push_positions`` back to back, but in
        one sweep of the particle arrays with no per-particle field
        temporaries.  Only callable on backends advertising the
        ``"fused"`` capability.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not offer the 'fused' capability"
        )

    def accumulate_redundant_parallel(self, rho_1d, icell, dx, dy, charge=1.0) -> None:
        """Thread-parallel CiC scatter (private copies + reduction).

        Must be bitwise equal to :meth:`accumulate_redundant` for any
        thread count.  Only callable on backends advertising the
        ``"parallel_deposit"`` capability.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not offer the 'parallel_deposit' capability"
        )

    def fused_interp_kick_push_3d(
        self,
        fields,
        particles,
        ordering,
        variant,
        coef=(1.0, 1.0, 1.0),
        scale=(1.0, 1.0, 1.0),
    ) -> None:
        """3D single-pass interpolate + kick + push over all particles.

        ``particles`` is a 3D particle storage; semantics match running
        ``interpolate_redundant_3d`` + the three kicks +
        ``push_positions_3d`` back to back.  Only callable on backends
        advertising the ``"fused3d"`` capability.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not offer the 'fused3d' capability"
        )

    def accumulate_redundant_parallel_3d(
        self, rho_1d, icell, dx, dy, dz, charge=1.0
    ) -> None:
        """Thread-parallel trilinear scatter (private copies + reduction).

        Must be bitwise equal to :meth:`accumulate_redundant_3d` for
        any thread count.  Only callable on backends advertising the
        ``"parallel_deposit"`` capability.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not offer the 'parallel_deposit' capability"
        )

    def counting_sort_permutation(self, keys, ncells):
        """Stable O(N + C) counting-sort permutation of ``keys``.

        Default: the vectorized histogram+prefix-sum+scatter from
        :mod:`repro.particles.sorting`.  Backends advertising
        ``"counting_sort"`` substitute a native (compiled) scatter; the
        permutation must be identical either way (stability fixes it
        uniquely).
        """
        from repro.particles.sorting import counting_sort_permutation

        return counting_sort_permutation(keys, ncells)

    # ------------------------------------------------------------------
    # Shared position-update drivers (axis math per backend, cell
    # bookkeeping common)
    # ------------------------------------------------------------------
    def kick(self, vs, e_ps, coefs) -> None:
        """``v += coef * e_p`` in place, per axis of the tuples — the
        velocity update of any dimension (the 3D stepper's only one)."""
        for v, e_p, coef in zip(vs, e_ps, coefs):
            _k.kick(v, e_p, coef)

    def push(self, particles, extents, ordering, variant, scales) -> None:
        """Advance positions, wrap, re-derive ``icell`` and the cell
        coordinates, over ``len(extents)`` axes.

        The blocked body of :func:`repro.core.kernels.push_blocked`,
        in place, with this backend's axis formulation for ``variant``.
        ``particles`` is a storage or a plain mapping of arrays; writes
        go *through* its arrays (``arr[sl] = ...``).
        """
        _k.push_blocked(
            particles, particles, extents, ordering,
            lambda x, nc: self.push_axis(x, nc, variant), scales,
        )

    def push_positions(
        self, particles, ncx, ncy, ordering, variant, scale_x=1.0, scale_y=1.0
    ) -> None:
        """:meth:`push` with the two axes spelled out."""
        self.push(particles, (ncx, ncy), ordering, variant, (scale_x, scale_y))

    def push_positions_3d(
        self, particles, shape, ordering, scale=(1.0, 1.0, 1.0), variant="bitwise"
    ) -> None:
        """:meth:`push` over three axes."""
        self.push(particles, shape, ordering, variant, scale)

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

    Follows :attr:`KernelBackend.degrades_to` links (``numba`` →
    ``numpy-mp`` → ``numpy`` with everything installed), keeping only
    backends whose dependencies are importable, so the result is the
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
    :attr:`~KernelBackend.priority` — a working ``numba`` install
    always beats ``numpy``, and ``numpy-mp`` (priority below both) is
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
                f"backend {name!r} requires extra dependencies that are not "
                f"installed (try: pip install repro[jit])"
            )
        _INSTANCES[name] = cls()
    return _INSTANCES[name]


def get_backend(name: str = AUTO) -> KernelBackend:
    """Return the (cached) backend instance for ``name``.

    Raises :class:`KeyError` for unknown names and
    :class:`BackendUnavailableError` for known backends whose
    dependencies are missing.  ``"auto"`` is resilient: if the
    preferred backend's dependencies pass the availability probe but
    its construction still fails (e.g. a broken numba install), the
    next candidate is used instead; either way one log line states the
    resolved backend.
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
        except Exception as exc:  # pragma: no cover - needs broken install
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
    rendering.  Its fused kernels are the same kernels swept block by
    block (:func:`repro.core.kernels.fused_sweep`), bitwise equal to
    the split passes."""

    name = "numpy"
    priority = 10
    degrades_to = None  # end of every chain: pure NumPy always works
    capabilities = frozenset({"fused", "fused3d"})

    accumulate_standard = staticmethod(_k.accumulate_standard)
    interpolate_standard = staticmethod(_k.interpolate_standard)

    # The redundant-row kernels once, over a tuple of per-axis offsets;
    # the 2D and 3D methods of the kernel surface are these with the
    # axes spelled out.  ``numpy-mp`` overrides the generic pair (and
    # ``kick``/``push``) and so serves both dimensions.
    def interpolate_rows(self, e_1d, icell, offsets):
        return _k.row_kernels(len(offsets))[0](e_1d, icell, *offsets)

    def accumulate_rows(self, rho_1d, icell, offsets, charge=1.0) -> None:
        _k.row_kernels(len(offsets))[1](rho_1d, icell, *offsets, charge)

    def interpolate_redundant(self, e_1d, icell, dx, dy):
        return self.interpolate_rows(e_1d, icell, (dx, dy))

    def interpolate_redundant_3d(self, e_1d, icell, dx, dy, dz):
        return self.interpolate_rows(e_1d, icell, (dx, dy, dz))

    def accumulate_redundant(self, rho_1d, icell, dx, dy, charge=1.0):
        self.accumulate_rows(rho_1d, icell, (dx, dy), charge)

    def accumulate_redundant_3d(self, rho_1d, icell, dx, dy, dz, charge=1.0):
        self.accumulate_rows(rho_1d, icell, (dx, dy, dz), charge)

    def update_velocities(self, vx, vy, ex_p, ey_p, coef_x=1.0, coef_y=1.0):
        self.kick((vx, vy), (ex_p, ey_p), (coef_x, coef_y))

    def push_axis(self, x, nc, variant):
        return _k.AXIS_KERNELS[variant](x, nc)

    def fused_interp_kick_push(
        self,
        fields,
        particles,
        ordering,
        variant,
        coef_x=1.0,
        coef_y=1.0,
        scale_x=1.0,
        scale_y=1.0,
    ):
        if fields.layout == "redundant":

            def gather(p):
                return _k.interpolate_redundant(
                    fields.e_1d, p["icell"], p["dx"], p["dy"]
                )
        else:

            def gather(p):
                if "ix" in p:
                    ix, iy = p["ix"], p["iy"]
                else:
                    ix, iy = ordering.decode(p["icell"])
                return _k.interpolate_standard(
                    fields.ex, fields.ey, ix, iy, p["dx"], p["dy"]
                )

        g = fields.grid
        _k.fused_sweep(
            particles, gather, (g.ncx, g.ncy), ordering,
            _k.AXIS_KERNELS[variant], (coef_x, coef_y), (scale_x, scale_y),
        )

    def fused_interp_kick_push_3d(
        self,
        fields,
        particles,
        ordering,
        variant,
        coef=(1.0, 1.0, 1.0),
        scale=(1.0, 1.0, 1.0),
    ):
        interpolate = _k.row_kernels(3)[0]

        def gather(p):
            return interpolate(fields.e_1d, p["icell"], p["dx"], p["dy"], p["dz"])

        _k.fused_sweep(
            particles, gather, fields.grid.shape, ordering,
            _k.AXIS_KERNELS[variant], coef, scale,
        )


# ----------------------------------------------------------------------
# Numba backend: JIT-compiled scalar loops
# ----------------------------------------------------------------------
@register_backend
class NumbaBackend(KernelBackend):
    """``@njit`` scalar loops mirroring :mod:`repro.core.reference`.

    The jitted functions live in :mod:`repro.core.njit_kernels`, which
    imports :mod:`numba` at module level — so this class only imports
    it on first instantiation, keeping NumPy-only installs working.
    """

    name = "numba"
    priority = 20
    degrades_to = "numpy-mp"
    capabilities = frozenset(
        {"fused", "fused3d", "parallel_deposit", "counting_sort"}
    )

    @classmethod
    def is_available(cls) -> bool:
        return importlib.util.find_spec("numba") is not None

    def __init__(self):
        from repro.core import njit_kernels

        self._jit = njit_kernels

    # -- 2D ------------------------------------------------------------
    def accumulate_standard(self, rho, ix, iy, dx, dy, charge=1.0):
        self._jit.accumulate_standard_njit(
            rho,
            np.ascontiguousarray(ix, dtype=np.int64),
            np.ascontiguousarray(iy, dtype=np.int64),
            np.ascontiguousarray(dx, dtype=np.float64),
            np.ascontiguousarray(dy, dtype=np.float64),
            float(charge),
        )

    def accumulate_redundant(self, rho_1d, icell, dx, dy, charge=1.0):
        self._jit.accumulate_redundant_njit(
            rho_1d,
            np.ascontiguousarray(icell, dtype=np.int64),
            np.ascontiguousarray(dx, dtype=np.float64),
            np.ascontiguousarray(dy, dtype=np.float64),
            float(charge),
        )

    def interpolate_standard(self, ex, ey, ix, iy, dx, dy):
        n = len(np.asarray(dx))
        ex_p = np.empty(n, dtype=np.float64)
        ey_p = np.empty(n, dtype=np.float64)
        self._jit.interpolate_standard_njit(
            np.ascontiguousarray(ex, dtype=np.float64),
            np.ascontiguousarray(ey, dtype=np.float64),
            np.ascontiguousarray(ix, dtype=np.int64),
            np.ascontiguousarray(iy, dtype=np.int64),
            np.ascontiguousarray(dx, dtype=np.float64),
            np.ascontiguousarray(dy, dtype=np.float64),
            ex_p,
            ey_p,
        )
        return ex_p, ey_p

    def interpolate_redundant(self, e_1d, icell, dx, dy):
        n = len(np.asarray(icell))
        ex_p = np.empty(n, dtype=np.float64)
        ey_p = np.empty(n, dtype=np.float64)
        self._jit.interpolate_redundant_njit(
            np.ascontiguousarray(e_1d, dtype=np.float64),
            np.ascontiguousarray(icell, dtype=np.int64),
            np.ascontiguousarray(dx, dtype=np.float64),
            np.ascontiguousarray(dy, dtype=np.float64),
            ex_p,
            ey_p,
        )
        return ex_p, ey_p

    def update_velocities(self, vx, vy, ex_p, ey_p, coef_x=1.0, coef_y=1.0):
        # array-valued coefficients (per-particle q/m) broadcast through
        # numpy; the njit scalar kernel covers the hot scalar case
        if np.ndim(coef_x) == 0:
            self._jit.update_velocities_njit(vx, ex_p, float(coef_x))
        else:
            vx += coef_x * ex_p
        if np.ndim(coef_y) == 0:
            self._jit.update_velocities_njit(vy, ey_p, float(coef_y))
        else:
            vy += coef_y * ey_p

    def push_axis(self, x, nc, variant):
        x = np.ascontiguousarray(x, dtype=np.float64)
        i_out = np.empty(x.size, dtype=np.int64)
        d_out = np.empty(x.size, dtype=np.float64)
        if variant == "bitwise":
            if nc & (nc - 1):
                raise ValueError(
                    f"bitwise wrap requires power-of-two extent, got {nc}"
                )
            self._jit.axis_bitwise_njit(x, nc, i_out, d_out)
        elif variant == "modulo":
            self._jit.axis_modulo_njit(x, nc, i_out, d_out)
        elif variant == "branch":
            self._jit.axis_branch_njit(x, nc, i_out, d_out)
        else:
            raise KeyError(f"unknown position-update variant {variant!r}")
        return i_out, d_out

    # -- optional fast paths -------------------------------------------
    def fused_interp_kick_push(
        self,
        fields,
        particles,
        ordering,
        variant,
        coef_x=1.0,
        coef_y=1.0,
        scale_x=1.0,
        scale_y=1.0,
    ):
        if np.ndim(coef_x) or np.ndim(coef_y):
            raise ValueError("fused path requires scalar kick coefficients")
        if variant not in self._jit.VARIANT_CODES:
            raise KeyError(f"unknown position-update variant {variant!r}")
        g = fields.grid
        ncx, ncy = g.ncx, g.ncy
        if variant == "bitwise" and ((ncx & (ncx - 1)) or (ncy & (ncy - 1))):
            raise ValueError(
                f"bitwise wrap requires power-of-two extents, got {ncx} x {ncy}"
            )
        p = particles
        n = len(np.asarray(p.icell))
        if p.store_coords:
            ix_old = np.ascontiguousarray(p.ix, dtype=np.int64)
            iy_old = np.ascontiguousarray(p.iy, dtype=np.int64)
        else:
            ix_dec, iy_dec = ordering.decode(np.asarray(p.icell))
            ix_old = np.ascontiguousarray(ix_dec, dtype=np.int64)
            iy_old = np.ascontiguousarray(iy_dec, dtype=np.int64)
        ix_out = np.empty(n, dtype=np.int64)
        iy_out = np.empty(n, dtype=np.int64)
        code = self._jit.VARIANT_CODES[variant]
        # dx/dy/vx/vy are read *and written* in place: pass the storage
        # views directly (njit handles strided AoS views; a contiguous
        # copy would silently drop the writes)
        if fields.layout == "redundant":
            self._jit.fused_redundant_njit(
                np.ascontiguousarray(fields.e_1d, dtype=np.float64),
                np.ascontiguousarray(p.icell, dtype=np.int64),
                ix_old, iy_old, p.dx, p.dy, p.vx, p.vy,
                float(coef_x), float(coef_y), float(scale_x), float(scale_y),
                ncx, ncy, code, ix_out, iy_out,
            )
        else:
            self._jit.fused_standard_njit(
                np.ascontiguousarray(fields.ex, dtype=np.float64),
                np.ascontiguousarray(fields.ey, dtype=np.float64),
                ix_old, iy_old, p.dx, p.dy, p.vx, p.vy,
                float(coef_x), float(coef_y), float(scale_x), float(scale_y),
                code, ix_out, iy_out,
            )
        # the space-filling-curve encode is vectorized Python: outside njit
        p.icell[:] = ordering.encode(ix_out, iy_out)
        if p.store_coords:
            p.ix[:] = ix_out
            p.iy[:] = iy_out

    def accumulate_redundant_parallel(self, rho_1d, icell, dx, dy, charge=1.0):
        self._jit.accumulate_redundant_parallel_njit(
            rho_1d,
            np.ascontiguousarray(icell, dtype=np.int64),
            np.ascontiguousarray(dx, dtype=np.float64),
            np.ascontiguousarray(dy, dtype=np.float64),
            float(charge),
        )

    def counting_sort_permutation(self, keys, ncells):
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if keys.size and (keys.min() < 0 or keys.max() >= ncells):
            raise ValueError("keys out of range [0, ncells)")
        return self._jit.counting_sort_permutation_njit(keys, int(ncells))

    # -- 3D ------------------------------------------------------------
    def accumulate_redundant_3d(self, rho_1d, icell, dx, dy, dz, charge=1.0):
        self._jit.accumulate_redundant_3d_njit(
            rho_1d,
            np.ascontiguousarray(icell, dtype=np.int64),
            np.ascontiguousarray(dx, dtype=np.float64),
            np.ascontiguousarray(dy, dtype=np.float64),
            np.ascontiguousarray(dz, dtype=np.float64),
            float(charge),
        )

    def interpolate_redundant_3d(self, e_1d, icell, dx, dy, dz):
        n = len(np.asarray(icell))
        ex = np.empty(n, dtype=np.float64)
        ey = np.empty(n, dtype=np.float64)
        ez = np.empty(n, dtype=np.float64)
        self._jit.interpolate_redundant_3d_njit(
            np.ascontiguousarray(e_1d, dtype=np.float64),
            np.ascontiguousarray(icell, dtype=np.int64),
            np.ascontiguousarray(dx, dtype=np.float64),
            np.ascontiguousarray(dy, dtype=np.float64),
            np.ascontiguousarray(dz, dtype=np.float64),
            ex,
            ey,
            ez,
        )
        return ex, ey, ez

    def fused_interp_kick_push_3d(
        self,
        fields,
        particles,
        ordering,
        variant,
        coef=(1.0, 1.0, 1.0),
        scale=(1.0, 1.0, 1.0),
    ):
        if any(np.ndim(c) for c in coef):
            raise ValueError("fused path requires scalar kick coefficients")
        if variant not in self._jit.VARIANT_CODES:
            raise KeyError(f"unknown position-update variant {variant!r}")
        g = fields.grid
        ncx, ncy, ncz = g.ncx, g.ncy, g.ncz
        if variant == "bitwise" and (
            (ncx & (ncx - 1)) or (ncy & (ncy - 1)) or (ncz & (ncz - 1))
        ):
            raise ValueError(
                f"bitwise wrap requires power-of-two extents, "
                f"got {ncx} x {ncy} x {ncz}"
            )
        p = particles
        n = len(np.asarray(p["icell"]))
        ix_out = np.empty(n, dtype=np.int64)
        iy_out = np.empty(n, dtype=np.int64)
        iz_out = np.empty(n, dtype=np.int64)
        code = self._jit.VARIANT_CODES[variant]
        # dx/dy/dz/vx/vy/vz are read *and written* in place: pass the
        # storage's arrays directly, copy only the read-only inputs
        self._jit.fused_redundant_3d_njit(
            np.ascontiguousarray(fields.e_1d, dtype=np.float64),
            np.ascontiguousarray(p["icell"], dtype=np.int64),
            np.ascontiguousarray(p["ix"], dtype=np.int64),
            np.ascontiguousarray(p["iy"], dtype=np.int64),
            np.ascontiguousarray(p["iz"], dtype=np.int64),
            p["dx"], p["dy"], p["dz"], p["vx"], p["vy"], p["vz"],
            float(coef[0]), float(coef[1]), float(coef[2]),
            float(scale[0]), float(scale[1]), float(scale[2]),
            ncx, ncy, ncz, code, ix_out, iy_out, iz_out,
        )
        # the space-filling-curve encode is vectorized Python: outside njit
        p["ix"][:] = ix_out
        p["iy"][:] = iy_out
        p["iz"][:] = iz_out
        p["icell"][:] = ordering.encode(ix_out, iy_out, iz_out)

    def accumulate_redundant_parallel_3d(
        self, rho_1d, icell, dx, dy, dz, charge=1.0
    ):
        self._jit.accumulate_redundant_parallel_3d_njit(
            rho_1d,
            np.ascontiguousarray(icell, dtype=np.int64),
            np.ascontiguousarray(dx, dtype=np.float64),
            np.ascontiguousarray(dy, dtype=np.float64),
            np.ascontiguousarray(dz, dtype=np.float64),
            float(charge),
        )
