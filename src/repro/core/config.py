"""Configuration of a run: the knobs a stepper executes.

Every field here changes what a run does — which cell ordering keys
the particles, how often the particles are sorted, which backend runs
the kernels.  The paper's variants that no stepper executes
(point-based fields, AoS particles, the single loop, un-hoisted units,
the in-place sort, the branchy position update) and the cumulative
stack of Table IV are axes of :class:`repro.model.config.ModelConfig`,
which prices them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["OptimizationConfig"]

@dataclass(frozen=True)
class OptimizationConfig:
    """Selects one executed point in the paper's optimization space.

    Every stepper stores redundant field rows (§IV-B) and SoA particle
    columns (§IV-C1), runs the three split particle loops (§IV-A), and
    keeps velocities and the field in hoisted units, so that the
    particle loops carry no per-particle multiplies (§IV-D); its sort
    gathers every particle column out of place (§V-B1,
    :meth:`~repro.particles.storage.ParticleSoA.reorder`); and its
    push wraps positions the way the grid allows
    (:func:`repro.core.kernels.wrap_for`: bitwise on power-of-two
    extents, §IV-C3, modulo on any other, §IV-C2).

    Parameters
    ----------
    ordering:
        Cell ordering name for the redundant layout (``"row-major"``,
        ``"l4d"``, ``"morton"``, ``"hilbert"``, ``"column-major"``);
        it also defines ``icell`` (the paper always keys particles by
        a cell index).  Every ordering stores the cell coordinates
        ``ix``/``iy`` next to ``icell``.
    ordering_kwargs:
        Extra ordering parameters (L4D tile height: ``{"size": 8}``).
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
    sort_period: int = 20
    backend: str = "auto"
    workers: int | None = None
    mp_task_timeout: float = 60.0

    #: the particle store every stepper runs — SoA columns with the
    #: cell coordinates stored, whatever the ordering — and the wrap
    #: every grid of the benchmark runs (all power-of-two).  Class
    #: constants, not fields, so no config can set them; the frozen
    #: benchmark ledger (``benchmarks/ledger/simbench.py``) reads
    #: ``particle_layout`` and ``effective_store_coords`` to time
    #: ``load_particles`` and hands ``position_update`` to the push
    #: adapters, which ignore it.  The paper's §IV-B rule — recompute
    #: the coordinates of the scan orders — is priced by
    #: :class:`repro.model.config.ModelConfig` only.
    particle_layout = "soa"
    effective_store_coords = True
    position_update = "bitwise"

    def __post_init__(self):
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
    def with_(self, **changes) -> "OptimizationConfig":
        """Functional update (``dataclasses.replace`` wrapper)."""
        return replace(self, **changes)
