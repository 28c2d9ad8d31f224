"""Configuration of a run: the knobs a stepper executes.

Every field here changes what a run does — which cell ordering keys
the particles, which push variant the loops use, how often the
particles are sorted, which backend runs the kernels.  The paper's
variants that no stepper executes (point-based fields, AoS particles,
the single loop, un-hoisted units, the in-place sort) and the
cumulative stack of Table IV are axes of
:class:`repro.model.config.ModelConfig`, which prices them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["OptimizationConfig"]

_POSITION_UPDATES = ("branch", "modulo", "bitwise")


@dataclass(frozen=True)
class OptimizationConfig:
    """Selects one executed point in the paper's optimization space.

    Every stepper stores redundant field rows (§IV-B) and SoA particle
    columns (§IV-C1), runs the three split particle loops (§IV-A), and
    keeps velocities and the field in hoisted units, so that the
    particle loops carry no per-particle multiplies (§IV-D); its sort
    gathers every particle column out of place (§V-B1,
    :meth:`~repro.particles.storage.ParticleStorage.reorder`).

    Parameters
    ----------
    ordering:
        Cell ordering name for the redundant layout (``"row-major"``,
        ``"l4d"``, ``"morton"``, ``"hilbert"``, ``"column-major"``);
        it also defines ``icell`` (the paper always keys particles by
        a cell index) and whether ``ix``/``iy`` are stored
        (:attr:`effective_store_coords`).
    ordering_kwargs:
        Extra ordering parameters (L4D tile height: ``{"size": 8}``).
    position_update:
        ``"branch"`` — test-and-wrap (the `if` version);
        ``"modulo"`` — unconditional floor+modulo;
        ``"bitwise"`` — cast-based floor and ``& (nc-1)`` wrap
        (§IV-C2/3; requires power-of-two grid dims).
    sort_period:
        Sort particles by cell index every this many iterations
        (0 disables sorting).
    backend:
        Kernel execution backend: ``"numpy"`` (cache-blocked array kernels),
        ``"c"`` (the C loops of ``ckernels.c``, built with the host
        compiler at first use and vectorized for AVX-512 hosts by an
        x86-64-v4 clone; bitwise equal to ``"numpy"``),
        ``"numpy-mp"`` (the shared-memory multiprocessing
        engine of :mod:`repro.parallel.executor`), or ``"auto"``
        (default) — ``"c"`` where a C compiler is on ``PATH``, else
        ``"numpy"`` (never ``numpy-mp``; multiprocessing is opt-in).
        All backends produce identical physics; see
        :mod:`repro.core.backends`.
    workers:
        Threads of the ``c`` backend's thread team
        (:mod:`repro.core.team`: update-v, the push and the sort's
        gathers over particle shards, bitwise equal to one thread), or
        worker processes of the ``numpy-mp`` backend; ``None``
        (default) uses the usable CPUs
        (:func:`~repro.core.team.usable_cpus`, which honours
        ``taskset``).  The ``numpy`` backend ignores it.
    mp_task_timeout:
        Seconds the ``numpy-mp`` engine waits for a worker's shard
        before killing and respawning the worker and recomputing the
        shard serially (surfaced as the ``fallbacks`` counter in the
        step timings).
    """

    ordering: str = "morton"
    ordering_kwargs: dict = field(default_factory=dict)
    position_update: str = "bitwise"
    sort_period: int = 20
    backend: str = "auto"
    workers: int | None = None
    mp_task_timeout: float = 60.0

    #: the particle store every stepper runs.  A class constant, not a
    #: field, so no config can set it; the frozen benchmark ledger
    #: (``benchmarks/ledger/simbench.py``) reads it to time
    #: ``load_particles``.
    particle_layout = "soa"

    def __post_init__(self):
        if self.position_update not in _POSITION_UPDATES:
            raise ValueError(f"position_update must be one of {_POSITION_UPDATES}")
        if self.sort_period < 0:
            raise ValueError("sort_period must be >= 0")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1 (or None for usable cpus)")
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
        """Whether particles keep ``ix``/``iy`` stored: the paper's
        §IV-B rule — stored for every ordering except row-major and
        column-major, whose decode is a single operation."""
        return self.ordering not in ("row-major", "column-major")

    def with_(self, **changes) -> "OptimizationConfig":
        """Functional update (``dataclasses.replace`` wrapper)."""
        return replace(self, **changes)
