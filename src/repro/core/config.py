"""Configuration of the optimization stack (paper Table IV rows).

Every single-core optimization the paper studies is an independent
switch here; the named constructors reproduce the exact cumulative
stack of Table IV so benchmarks can walk it row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["OptimizationConfig"]

_FIELD_LAYOUTS = ("standard", "redundant")
_PARTICLE_LAYOUTS = ("soa", "aos")
_LOOP_MODES = ("fused", "split")
_POSITION_UPDATES = ("branch", "modulo", "bitwise")
_SORT_VARIANTS = ("out-of-place", "in-place")


@dataclass(frozen=True)
class OptimizationConfig:
    """Selects one point in the paper's optimization space.

    Parameters
    ----------
    field_layout:
        ``"standard"`` point-based 2D arrays (Table IV's baseline
        rows), or ``"redundant"`` cell-based corner arrays (4x memory,
        vectorizable accumulate).  An axis :mod:`repro.model` prices;
        the steppers store redundant rows for either value
        (``docs/tuning.md``).
    ordering:
        Cell ordering name for the redundant layout (``"row-major"``,
        ``"l4d"``, ``"morton"``, ``"hilbert"``, ``"column-major"``);
        it also defines ``icell`` (the paper always keys particles by
        a cell index).
    ordering_kwargs:
        Extra ordering parameters (L4D tile height: ``{"size": 8}``).
    particle_layout:
        ``"soa"`` or ``"aos"``.  An axis :mod:`repro.model` prices;
        the steppers store SoA columns for either value.
    loop_mode:
        ``"fused"`` — one loop doing interpolate / update-v / update-x
        per particle (Table IV's baseline row); ``"split"`` — three
        full passes (§IV-A, enables vectorizing update-x).  An axis
        :mod:`repro.model` prices; the steppers run the split loops
        for either value (``docs/tuning.md``).
    position_update:
        ``"branch"`` — test-and-wrap (the `if` version);
        ``"modulo"`` — unconditional floor+modulo;
        ``"bitwise"`` — cast-based floor and ``& (nc-1)`` wrap
        (§IV-C2/3; requires power-of-two grid dims).
    hoisting:
        Store velocities and field pre-scaled to grid units so the
        particle loops carry no per-particle multiplies (§IV-D).
    sort_period:
        Sort particles by cell index every this many iterations
        (0 disables sorting).
    sort_variant:
        ``"out-of-place"`` (double buffer) or ``"in-place"``.
    store_coords:
        Keep ``ix``/``iy`` stored per particle.  ``None`` (default)
        auto-selects the paper's choice: stored for all orderings
        except row-major/column-major, whose decode is a single
        operation (§IV-B).
    backend:
        Kernel execution backend: ``"numpy"`` (cache-blocked array kernels),
        ``"c"`` (the scalar C loops of ``ckernels.c``, built with the
        host compiler at first use; bitwise equal to ``"numpy"``),
        ``"numpy-mp"`` (the shared-memory multiprocessing
        engine of :mod:`repro.parallel.executor`), or ``"auto"``
        (default) — ``"c"`` where a C compiler is on ``PATH``, else
        ``"numpy"`` (never ``numpy-mp``; multiprocessing is opt-in).
        All backends produce identical physics; see
        :mod:`repro.core.backends`.
    workers:
        Worker-process count for the ``numpy-mp`` backend; ``None``
        (default) uses ``os.cpu_count()``.  Ignored by the in-process
        backends.
    mp_task_timeout:
        Seconds the ``numpy-mp`` engine waits for a worker's shard
        before killing and respawning the worker and recomputing the
        shard serially (surfaced as the ``fallbacks`` counter in the
        step timings).
    """

    field_layout: str = "redundant"
    ordering: str = "morton"
    ordering_kwargs: dict = field(default_factory=dict)
    particle_layout: str = "soa"
    loop_mode: str = "split"
    position_update: str = "bitwise"
    hoisting: bool = True
    sort_period: int = 20
    sort_variant: str = "out-of-place"
    store_coords: bool | None = None
    backend: str = "auto"
    workers: int | None = None
    mp_task_timeout: float = 60.0

    def __post_init__(self):
        if self.field_layout not in _FIELD_LAYOUTS:
            raise ValueError(f"field_layout must be one of {_FIELD_LAYOUTS}")
        if self.particle_layout not in _PARTICLE_LAYOUTS:
            raise ValueError(f"particle_layout must be one of {_PARTICLE_LAYOUTS}")
        if self.loop_mode not in _LOOP_MODES:
            raise ValueError(f"loop_mode must be one of {_LOOP_MODES}")
        if self.position_update not in _POSITION_UPDATES:
            raise ValueError(f"position_update must be one of {_POSITION_UPDATES}")
        if self.sort_variant not in _SORT_VARIANTS:
            raise ValueError(f"sort_variant must be one of {_SORT_VARIANTS}")
        if self.sort_period < 0:
            raise ValueError("sort_period must be >= 0")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1 (or None for cpu count)")
        if self.mp_task_timeout <= 0:
            raise ValueError("mp_task_timeout must be positive")
        # deferred import: backends depends on kernels, not on config
        from repro.core.backends import AUTO, known_backend_names

        valid = (AUTO, *known_backend_names())
        if self.backend not in valid:
            raise ValueError(f"backend must be one of {valid}")

    # ------------------------------------------------------------------
    @property
    def effective_store_coords(self) -> bool:
        """Resolve the ``None`` default of :attr:`store_coords`."""
        if self.store_coords is not None:
            return self.store_coords
        return self.ordering not in ("row-major", "column-major")

    @property
    def resolved_backend(self) -> str:
        """The backend name ``"auto"`` selects on this machine."""
        from repro.core.backends import resolve_backend_name

        return resolve_backend_name(self.backend)

    def with_(self, **changes) -> "OptimizationConfig":
        """Functional update (``dataclasses.replace`` wrapper)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # The cumulative stack of Table IV.  Each named constructor is the
    # previous one plus exactly one optimization.
    # ------------------------------------------------------------------
    @classmethod
    def baseline(cls) -> "OptimizationConfig":
        """Table IV row 1: standard 2d arrays, AoS, single loop, branchy."""
        return cls(
            field_layout="standard",
            ordering="row-major",
            particle_layout="aos",
            loop_mode="fused",
            position_update="branch",
            hoisting=False,
        )

    @classmethod
    def with_hoisting(cls) -> "OptimizationConfig":
        """Table IV row 2: + loop hoisting."""
        return cls.baseline().with_(hoisting=True)

    @classmethod
    def with_loop_splitting(cls) -> "OptimizationConfig":
        """Table IV row 3: + loop splitting (3 particle loops)."""
        return cls.with_hoisting().with_(loop_mode="split")

    @classmethod
    def with_redundant_arrays(cls) -> "OptimizationConfig":
        """Table IV row 4: + redundant cell-based E and rho (row-major)."""
        return cls.with_loop_splitting().with_(field_layout="redundant")

    @classmethod
    def with_soa(cls) -> "OptimizationConfig":
        """Table IV row 5: + structure of arrays for the particles."""
        return cls.with_redundant_arrays().with_(particle_layout="soa")

    @classmethod
    def with_space_filling_curve(cls, ordering: str = "morton", **kw):
        """Table IV row 6: + space-filling-curve ordering of E and rho."""
        return cls.with_soa().with_(ordering=ordering, ordering_kwargs=kw)

    @classmethod
    def fully_optimized(cls, ordering: str = "morton", **kw):
        """Table IV row 7: + optimized (branchless, bitwise) update-x."""
        return cls.with_space_filling_curve(ordering, **kw).with_(
            position_update="bitwise"
        )

    @classmethod
    def table4_stack(cls) -> list[tuple[str, "OptimizationConfig"]]:
        """The seven (label, config) rows of Table IV, in order."""
        return [
            ("Baseline", cls.baseline()),
            ("+ Loop Hoisting", cls.with_hoisting()),
            ("+ Loop Splitting", cls.with_loop_splitting()),
            ("+ Redundant arrays (E and rho)", cls.with_redundant_arrays()),
            ("+ Structure of Arrays (particles)", cls.with_soa()),
            ("+ Space-filling curves (E and rho)", cls.with_space_filling_curve()),
            ("+ Optimized update-positions loop", cls.fully_optimized()),
        ]
