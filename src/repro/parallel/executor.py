"""Real shared-memory multiprocessing engine for the §V-B loops.

Where :mod:`repro.parallel.openmp` *emulates* the paper's thread-team
semantics inside one interpreter, this module executes them across
genuine OS processes:

* a persistent :class:`WorkerPool` of ``multiprocessing`` processes,
  each attached lazily to the shared-memory arrays of
  :mod:`repro.parallel.shm`;
* a per-stepper :class:`ShmEngine` that partitions the three particle
  loops of Fig. 1 across the pool — gather/kick/push by particle
  range, the charge deposit by **cell ownership** (each worker deposits
  only particles whose cell falls in its contiguous cell range, into a
  private slab, reduced in worker order) so the parallel ρ is
  bitwise-identical to the serial NumPy deposit at any worker count;
* a :class:`MultiprocessBackend` registered as ``"numpy-mp"`` so the
  stepper, :class:`~repro.core.simulation.Simulation` and the CLI
  (``--backend numpy-mp --workers N``) drive it unchanged.

Robustness: worker heartbeat (:meth:`WorkerPool.ping`), a configurable
task timeout (``OptimizationConfig.mp_task_timeout``), and a serial
degradation path — a crashed or hung worker is killed and respawned
and its shards are recomputed in the parent, counted in
:class:`~repro.perf.instrument.StepTimings` as ``fallbacks``.  The
update-v/update-x loops write to *staging* arrays committed by the
parent, so a worker dying mid-write never corrupts the inputs the
serial retry reads; the deposit slabs are private and re-zeroed, so
every retry is idempotent.
"""

from __future__ import annotations

import atexit
import logging
import os
import queue
import time
import traceback

import numpy as np

from repro.core import kernels as _k
from repro.core.backends import NumpyBackend, register_backend
from repro.curves.base import get_ordering
from repro.parallel.partition import (
    PartitionPlanner,
    partition_cells,
    partition_range,
)
from repro.parallel.shm import (
    SharedArena,
    SharedGrid,
    SharedParticleStorage,
    attach_array,
)
from repro.particles.storage import ParticleSoA

__all__ = [
    "WorkerPool",
    "ShmEngine",
    "ShmEngine3D",
    "MultiprocessBackend",
    "PoolUnrecoverableError",
]

_log = logging.getLogger("repro.parallel.executor")

#: Engines currently alive; the backend routes kernel calls to the
#: engine whose arena owns the arrays it was handed.
_LIVE_ENGINES: list["ShmEngine"] = []


class PoolUnrecoverableError(RuntimeError):
    """The worker pool is past saving: every shard of several
    consecutive dispatches failed, so serial retries are carrying the
    whole run while workers keep dying.  Raised by
    :meth:`ShmEngine._dispatch` so a supervisor (or the caller) can
    degrade to an in-process backend instead of limping on; without a
    supervisor it surfaces the pool's state instead of hiding it
    behind silent serial fallbacks."""


# ----------------------------------------------------------------------
# Shard executors — shared by the workers and the parent's serial-retry
# path, so the fallback recomputes the exact same bits.
# ----------------------------------------------------------------------
def _exec_interp(e_1d, icell, dx, dy, ex_p, ey_p, lo, hi):
    """Gather E into the per-particle scratch slice (idempotent)."""
    _k.interpolate_redundant(
        e_1d, icell[lo:hi], dx[lo:hi], dy[lo:hi], out=(ex_p[lo:hi], ey_p[lo:hi])
    )


def _exec_kick(vx, vy, ex_p, ey_p, vx_new, vy_new, lo, hi, coef_x, coef_y):
    """Stage ``v + coef*E`` without touching ``v`` (crash-safe).

    Mirrors :func:`repro.core.kernels.update_velocities` including its
    ``coef == 1`` fast path, so the staged values are bitwise what the
    in-place serial kick would produce.
    """
    if coef_x == 1.0:
        vx_new[lo:hi] = vx[lo:hi] + ex_p[lo:hi]
    else:
        vx_new[lo:hi] = vx[lo:hi] + coef_x * ex_p[lo:hi]
    if coef_y == 1.0:
        vy_new[lo:hi] = vy[lo:hi] + ey_p[lo:hi]
    else:
        vy_new[lo:hi] = vy[lo:hi] + coef_y * ey_p[lo:hi]


def _exec_push(arrs, lo, hi, ncx, ncy, ordering, variant, scale_x, scale_y):
    """Stage the position update into the ``*_new`` arrays (crash-safe).

    The body is :func:`repro.core.kernels.push_blocked` — the one
    :meth:`KernelBackend.push_positions` runs in place; staging instead
    keeps the inputs intact until the parent commits, so a retry after
    a mid-write crash still reads unmodified state.
    """
    src, dst = {}, {}
    for key, arr in arrs.items():
        if key.endswith("_new"):
            dst[key[:-4]] = arr[lo:hi]
        else:
            src[key] = arr[lo:hi]
    _k.push_blocked(
        src, dst, (ncx, ncy), ordering, _k.AXIS_KERNELS[variant],
        (scale_x, scale_y),
    )


def _shard_deposit_numpy(slab_rows, icell, dx, dy, charge, cell_lo, cell_hi):
    """NumPy shard deposit: flatnonzero-select the owned particles."""
    sel = np.flatnonzero((icell >= cell_lo) & (icell < cell_hi))
    if sel.size:
        _k.accumulate_redundant(
            slab_rows, icell[sel] - cell_lo, dx[sel], dy[sel], charge
        )


#: Resolved shard-deposit kernel (lazy; see :func:`_shard_deposit_kernel`).
_SHARD_DEPOSIT = None


def _shard_deposit_kernel():
    """The shard-deposit kernel this process uses (resolved once).

    Backend composition: when :mod:`repro.core.njit_kernels` imports
    (i.e. :mod:`numba` is installed and working), ``numpy-mp`` worker
    shards run the compiled
    :func:`~repro.core.njit_kernels.accumulate_redundant_shard_njit`
    loop instead of the NumPy bincount deposit — same cell-ownership
    scheme, same ``w * charge`` particle-order arithmetic, so the two
    kernels are bitwise interchangeable and a pool may freely mix them
    (e.g. a parent whose serial retry resolves differently than a
    worker).  A missing or broken numba install falls back to the
    NumPy kernel silently (one debug log line).
    """
    global _SHARD_DEPOSIT
    if _SHARD_DEPOSIT is None:
        try:
            from repro.core.njit_kernels import (
                accumulate_redundant_shard_njit as kernel,
            )
        except Exception:
            _log.debug("njit shard deposit unavailable", exc_info=True)
            kernel = _shard_deposit_numpy
        _SHARD_DEPOSIT = kernel
    return _SHARD_DEPOSIT


def _exec_deposit(slab, icell, dx, dy, cell_lo, cell_hi, charge):
    """Deposit the owned cell range ``[cell_lo, cell_hi)`` into ``slab``.

    The serial deposit's ``np.bincount`` sums each bin's contributions
    in particle order; scanning (or selecting) the owned particles in
    index order preserves that order, so every slab row holds
    bitwise the terms the serial deposit would put in the matching
    ``rho_1d`` row.  The slab is re-zeroed first, making retries
    idempotent.
    """
    nrows = cell_hi - cell_lo
    slab[:nrows] = 0.0
    icell = np.asarray(icell, dtype=np.int64)
    _shard_deposit_kernel()(
        slab[:nrows],
        icell,
        np.asarray(dx, dtype=np.float64),
        np.asarray(dy, dtype=np.float64),
        float(charge),
        int(cell_lo),
        int(cell_hi),
    )


#: Resolved 3D shard-deposit kernel (lazy, same policy as 2D).
_SHARD_DEPOSIT_3D = None


def _shard_deposit_kernel_3d():
    """The 3D shard-deposit kernel this process uses (resolved once).

    Mirrors :func:`_shard_deposit_kernel`: the compiled
    :func:`~repro.core.njit_kernels.accumulate_redundant_shard_3d_njit`
    when :mod:`repro.core.njit_kernels` imports, else the NumPy
    :func:`~repro.pic3d.kernels3d.accumulate_redundant_shard_3d`.  Both
    multiply each corner weight as ``((wx*wy)*wz)*charge`` — the NumPy
    deposit's association — so a pool may freely mix the two (parent
    serial retries vs. worker shards) and stay bitwise consistent.
    """
    global _SHARD_DEPOSIT_3D
    if _SHARD_DEPOSIT_3D is None:
        try:
            from repro.core.njit_kernels import (
                accumulate_redundant_shard_3d_njit as kernel,
            )
        except Exception:
            _log.debug("njit 3D shard deposit unavailable", exc_info=True)
            from repro.pic3d.kernels3d import (
                accumulate_redundant_shard_3d as kernel,
            )
        _SHARD_DEPOSIT_3D = kernel
    return _SHARD_DEPOSIT_3D


def _exec_deposit_3d(slab, icell, dx, dy, dz, cell_lo, cell_hi, charge):
    """3D twin of :func:`_exec_deposit`: one owned cell range into a slab.

    Same cell-ownership argument: the owned particles are selected in
    index order, so each 8-corner slab row holds bitwise the terms the
    serial whole-grid deposit would put in the matching ``rho_1d`` row.
    Re-zeroing the live prefix first keeps retries idempotent.
    """
    nrows = cell_hi - cell_lo
    slab[:nrows] = 0.0
    _shard_deposit_kernel_3d()(
        slab[:nrows],
        np.asarray(icell, dtype=np.int64),
        np.asarray(dx, dtype=np.float64),
        np.asarray(dy, dtype=np.float64),
        np.asarray(dz, dtype=np.float64),
        float(charge),
        int(cell_lo),
        int(cell_hi),
    )


def _cached_ordering(spec, cache):
    ordering = cache.get(spec)
    if ordering is None:
        name, ncx, ncy, kwargs = spec
        ordering = get_ordering(name, ncx, ncy, **dict(kwargs))
        cache[spec] = ordering
    return ordering


def _execute(op, msg, seg_cache, ordering_cache):
    arrs = {
        key: attach_array(spec, seg_cache)
        for key, spec in msg.get("arrays", {}).items()
    }
    if op == "interp2d":
        _exec_interp(
            arrs["e_1d"], arrs["icell"], arrs["dx"], arrs["dy"],
            arrs["ex_p"], arrs["ey_p"], msg["lo"], msg["hi"],
        )
    elif op == "kick2d":
        _exec_kick(
            arrs["vx"], arrs["vy"], arrs["ex_p"], arrs["ey_p"],
            arrs["vx_new"], arrs["vy_new"], msg["lo"], msg["hi"],
            msg["coef_x"], msg["coef_y"],
        )
    elif op == "push2d":
        ordering = _cached_ordering(msg["ordering"], ordering_cache)
        _exec_push(
            arrs, msg["lo"], msg["hi"], msg["ncx"], msg["ncy"],
            ordering, msg["variant"], msg["scale_x"], msg["scale_y"],
        )
    elif op == "deposit2d":
        _exec_deposit(
            arrs["slab"], arrs["icell"], arrs["dx"], arrs["dy"],
            msg["cell_lo"], msg["cell_hi"], msg["charge"],
        )
    elif op == "deposit3d":
        _exec_deposit_3d(
            arrs["slab"], arrs["icell"], arrs["dx"], arrs["dy"], arrs["dz"],
            msg["cell_lo"], msg["cell_hi"], msg["charge"],
        )
    elif op == "ping":
        pass
    elif op == "sleep":  # test hook for the timeout path
        time.sleep(msg["seconds"])
    else:
        raise KeyError(f"unknown worker op {op!r}")


def _worker_main(wid, task_q, result_q):
    """Worker process loop: attach lazily, execute shards, report."""
    seg_cache: dict = {}
    ordering_cache: dict = {}
    while True:
        msg = task_q.get()
        if msg is None:
            break
        tid = msg["tid"]
        try:
            t0 = time.perf_counter()
            _execute(msg["op"], msg, seg_cache, ordering_cache)
            result_q.put(("done", wid, tid, time.perf_counter() - t0))
        except Exception:
            # Truncate so the pickled message stays under PIPE_BUF and
            # the pipe write is a single atomic os.write — a SIGKILL can
            # then never leave a half-written result in the pipe.
            err = traceback.format_exc()[-2000:]
            try:
                result_q.put(("error", wid, tid, err))
            except Exception:  # pragma: no cover - parent gone
                break
    for seg, _arr in seg_cache.values():
        try:
            seg.close()
        except Exception:  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------
class _Worker:
    __slots__ = ("proc", "task_q", "result_q")

    def __init__(self, proc, task_q, result_q):
        self.proc = proc
        self.task_q = task_q
        self.result_q = result_q

    def close_queues(self) -> None:
        for q_ in (self.task_q, self.result_q):
            try:
                q_.close()
                q_.cancel_join_thread()
            except Exception:  # pragma: no cover
                pass


class WorkerPool:
    """Persistent pool of kernel workers with heartbeat and recovery.

    Shards are addressed to a specific worker (the engine's partitions
    are static, as in the paper's OpenMP scheme).  ``run_shards``
    gathers results until done, a worker dies (detected by liveness
    polling), or the timeout expires; dead or hung workers are killed
    and respawned with fresh queues, and their shards are returned as
    *failed* for the caller to retry serially.

    Each worker owns a **private** pair of queues.  A shared result
    queue would let one SIGKILLed worker — dead while its queue feeder
    thread holds the queue's cross-process write-lock — wedge every
    other worker's result path permanently; with per-worker queues the
    only lock a dying worker can orphan lives in queues that are
    discarded when it is respawned.
    """

    def __init__(self, nworkers, timeout=60.0, start_method=None):
        import multiprocessing as mp

        self.nworkers = int(nworkers)
        self.timeout = float(timeout)
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(start_method)
        self._tid = 0
        self._closed = False
        #: number of workers killed and respawned over the pool's life
        self.restarts = 0
        self.last_seen = [time.monotonic()] * self.nworkers
        self._workers = [self._spawn(w) for w in range(self.nworkers)]

    def _spawn(self, wid) -> _Worker:
        task_q = self._ctx.Queue()
        result_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, task_q, result_q),
            daemon=True,
            name=f"repro-shm-worker-{wid}",
        )
        proc.start()
        return _Worker(proc, task_q, result_q)

    def _restart(self, wid) -> None:
        w = self._workers[wid]
        if w.proc.is_alive():
            w.proc.kill()
        w.proc.join(timeout=5.0)
        w.close_queues()
        self._workers[wid] = self._spawn(wid)
        self.restarts += 1
        _log.warning("worker %d restarted (total restarts: %d)", wid, self.restarts)

    # ------------------------------------------------------------------
    def run_shards(self, shards, timeout=None):
        """Run ``(wid, msg)`` shards; return ``(done, failed)``.

        ``done`` holds ``((wid, msg), seconds)`` per completed shard,
        ``failed`` holds ``(wid, msg)`` for shards whose worker raised,
        died, or blew the timeout (those workers are respawned before
        returning, so no failed shard is still being executed — the
        caller may safely recompute it).
        """
        timeout = self.timeout if timeout is None else float(timeout)
        done, failed = [], []
        pending: dict[int, tuple[int, dict]] = {}
        for wid, msg in shards:
            self._tid += 1
            m = dict(msg)
            m["tid"] = self._tid
            pending[self._tid] = (wid, m)
            self._workers[wid].task_q.put(m)
        deadline = time.monotonic() + timeout
        grace_until = None
        while pending:
            res = None
            for w in self._workers:
                try:
                    res = w.result_q.get_nowait()
                    break
                except queue.Empty:
                    continue
            now = time.monotonic()
            if res is not None:
                kind, wid, tid = res[0], res[1], res[2]
                if 0 <= wid < self.nworkers:
                    self.last_seen[wid] = now
                entry = pending.pop(tid, None)
                if entry is None:  # stale result from a pre-restart task
                    continue
                if kind == "done":
                    done.append((entry, res[3]))
                else:
                    _log.warning("worker %d task failed:\n%s", wid, res[3])
                    failed.append(entry)
                continue
            time.sleep(0.002)
            if grace_until is not None:
                if now >= grace_until:
                    break
                continue
            restarted: set[int] = set()
            for tid in list(pending):
                wid, _m = pending[tid]
                if not self._workers[wid].proc.is_alive():
                    failed.append(pending.pop(tid))
                    if wid not in restarted:
                        restarted.add(wid)
                        self._restart(wid)
            if now >= deadline and pending:
                # timeout: keep draining briefly so results already in
                # flight still count as done, then give up
                grace_until = now + 0.25
        # anything still pending after the grace period is hung: kill
        # and respawn its worker so no failed shard is still executing
        for wid in {wid for wid, _m in pending.values()}:
            self._restart(wid)
        failed.extend(pending.values())
        return done, failed

    def ping(self, timeout=5.0) -> list[bool]:
        """Heartbeat: True per worker that answers within ``timeout``.

        Unresponsive workers are respawned as a side effect (same
        recovery path as a failed kernel shard).
        """
        shards = [(wid, {"op": "ping"}) for wid in range(self.nworkers)]
        _done, failed = self.run_shards(shards, timeout=timeout)
        ok = [True] * self.nworkers
        for wid, _msg in failed:
            ok[wid] = False
        return ok

    def kill_worker(self, wid) -> None:
        """Crash-injection hook for tests: SIGKILL one worker."""
        self._workers[wid].proc.kill()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for w in self._workers:
            try:
                w.task_q.put_nowait(None)
            except Exception:  # pragma: no cover
                pass
        for w in self._workers:
            w.proc.join(timeout=1.0)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(timeout=1.0)
            w.close_queues()


# ----------------------------------------------------------------------
# The per-stepper engine
# ----------------------------------------------------------------------
class ShmEngine:
    """Drives one stepper's particle loops across the worker pool.

    Construction relocates the stepper's particle storage and redundant
    field arrays into shared memory (the stepper keeps using them
    through the same attributes) and sets up both partitions: particle
    ranges for gather/kick/push (fixed for the engine's lifetime), and
    cell ranges + private slabs for the deposit — cut from the t=0
    particle histogram (~equal particles per worker) and re-cut by the
    :class:`~repro.parallel.partition.PartitionPlanner` every
    ``repartition_every`` deposits when the measured load imbalance
    warrants it.  Each such check also records a data-movement sample
    (:func:`repro.perf.datamove.deposit_movement` + ``resource``
    counters) into the step timings, from the same histogram.
    """

    def __init__(self, stepper, nworkers=None, task_timeout=None):
        cfg = stepper.config
        if nworkers is None:
            nworkers = getattr(cfg, "workers", None) or os.cpu_count() or 1
        self.nworkers = max(1, int(nworkers))
        if task_timeout is None:
            task_timeout = getattr(cfg, "mp_task_timeout", 60.0)
        self.task_timeout = float(task_timeout)

        self.arena = SharedArena()
        stepper.particles = SharedParticleStorage.from_storage(
            stepper.particles, self.arena
        )
        stepper._sort_buffer = None
        nalloc = int(stepper.fields.rho_1d.shape[0])
        self.planner = PartitionPlanner(nalloc=nalloc, nparts=self.nworkers)
        hist0 = np.bincount(
            np.asarray(stepper.particles.icell, dtype=np.int64),
            minlength=nalloc,
        )
        self.grid_shared = SharedGrid(
            stepper.fields, self.nworkers, self.arena,
            cell_ranges=self.planner.initial(hist0),
        )
        self.ordering = stepper.ordering
        self._ordering_spec = (
            cfg.ordering,
            stepper.grid.ncx,
            stepper.grid.ncy,
            tuple(sorted(cfg.ordering_kwargs.items())),
        )
        self.instrumentation = stepper.instrumentation
        self.n = stepper.particles.n
        self.store_coords = stepper.particles.store_coords
        self.particle_ranges = partition_range(self.n, self.nworkers)

        # per-particle scratch: gather targets + staging for the
        # update-v / update-x commits
        a = self.arena
        self.ex_p = a.alloc(self.n)
        self.ey_p = a.alloc(self.n)
        self._vx_new = a.alloc(self.n)
        self._vy_new = a.alloc(self.n)
        self._icell_new = a.alloc(self.n, dtype=np.int64)
        self._dx_new = a.alloc(self.n)
        self._dy_new = a.alloc(self.n)
        if self.store_coords:
            self._ix_new = a.alloc(self.n, dtype=np.int64)
            self._iy_new = a.alloc(self.n, dtype=np.int64)

        self.pool = WorkerPool(self.nworkers, timeout=self.task_timeout)
        #: consecutive dispatches in which *every* shard failed; at
        #: ``max_failure_streak`` the engine declares itself
        #: unrecoverable (see :meth:`_dispatch`)
        self.max_failure_streak = 3
        self._failure_streak = 0
        self.unrecoverable = False
        self._closed = False
        _LIVE_ENGINES.append(self)
        atexit.register(self.close)

    # ------------------------------------------------------------------
    def _spec(self, **arrays):
        out = {}
        for key, arr in arrays.items():
            spec = self.arena.spec_for(arr)
            if spec is None:  # pragma: no cover - callers check ownership
                raise ValueError(f"array {key!r} is not arena-owned")
            out[key] = spec
        return out

    def _dispatch(self, phase, shards):
        """Run shards; record per-worker timings; return failed msgs.

        Raises :class:`PoolUnrecoverableError` once every shard of
        ``max_failure_streak`` consecutive dispatches has failed —
        at that point the pool is doing no useful work (each "retry"
        is the parent recomputing everything serially) and the caller
        should degrade to an in-process backend.
        """
        if self.unrecoverable:
            raise PoolUnrecoverableError(
                f"numpy-mp pool already declared unrecoverable after "
                f"{self._failure_streak} fully-failed dispatches"
            )
        done, failed = self.pool.run_shards(shards, timeout=self.task_timeout)
        instr = self.instrumentation
        if instr is not None:
            for (wid, _msg), secs in done:
                instr.record_worker_phase(f"worker{wid}", phase, secs)
            if failed:
                instr.record_fallback(len(failed))
        if shards and failed and len(failed) == len(shards):
            self._failure_streak += 1
            if self._failure_streak >= self.max_failure_streak:
                self.unrecoverable = True
                raise PoolUnrecoverableError(
                    f"numpy-mp pool unrecoverable: all {len(shards)} "
                    f"shard(s) failed in {self._failure_streak} consecutive "
                    f"dispatches ({self.pool.restarts} worker restarts)"
                )
        elif done:
            self._failure_streak = 0
        return failed

    def _particle_shards(self, op, arrays, **extra):
        specs = self._spec(**arrays)
        shards = []
        for wid, sl in enumerate(self.particle_ranges):
            if sl.stop <= sl.start:
                continue
            msg = {"op": op, "lo": sl.start, "hi": sl.stop, "arrays": specs}
            msg.update(extra)
            shards.append((wid, msg))
        return shards

    # ------------------------------------------------------------------
    # Phase drivers (called by MultiprocessBackend)
    # ------------------------------------------------------------------
    def interpolate_redundant(self, e_1d, icell, dx, dy):
        shards = self._particle_shards(
            "interp2d",
            {"e_1d": e_1d, "icell": icell, "dx": dx, "dy": dy,
             "ex_p": self.ex_p, "ey_p": self.ey_p},
        )
        for _wid, msg in self._dispatch("update_v", shards):
            _exec_interp(
                e_1d, icell, dx, dy, self.ex_p, self.ey_p, msg["lo"], msg["hi"]
            )
        return self.ex_p, self.ey_p

    def update_velocities(self, vx, vy, ex_p, ey_p, coef_x, coef_y):
        shards = self._particle_shards(
            "kick2d",
            {"vx": vx, "vy": vy, "ex_p": ex_p, "ey_p": ey_p,
             "vx_new": self._vx_new, "vy_new": self._vy_new},
            coef_x=float(coef_x), coef_y=float(coef_y),
        )
        for _wid, msg in self._dispatch("update_v", shards):
            _exec_kick(
                vx, vy, ex_p, ey_p, self._vx_new, self._vy_new,
                msg["lo"], msg["hi"], float(coef_x), float(coef_y),
            )
        # parent-side commit of the staged kick (plain memcpy)
        vx[:] = self._vx_new
        vy[:] = self._vy_new

    def push_positions(self, particles, ncx, ncy, variant, scale_x, scale_y):
        arrays = {
            "icell": particles.icell, "dx": particles.dx, "dy": particles.dy,
            "vx": particles.vx, "vy": particles.vy,
            "icell_new": self._icell_new,
            "dx_new": self._dx_new, "dy_new": self._dy_new,
        }
        if self.store_coords:
            arrays.update(
                ix=particles.ix, iy=particles.iy,
                ix_new=self._ix_new, iy_new=self._iy_new,
            )
        shards = self._particle_shards(
            "push2d", arrays,
            ncx=int(ncx), ncy=int(ncy), variant=variant,
            scale_x=float(scale_x), scale_y=float(scale_y),
            ordering=self._ordering_spec,
        )
        for _wid, msg in self._dispatch("update_x", shards):
            _exec_push(
                arrays, msg["lo"], msg["hi"], int(ncx), int(ncy),
                self.ordering, variant, float(scale_x), float(scale_y),
            )
        particles.icell[:] = self._icell_new
        particles.dx[:] = self._dx_new
        particles.dy[:] = self._dy_new
        if self.store_coords:
            particles.ix[:] = self._ix_new
            particles.iy[:] = self._iy_new

    def accumulate_redundant(self, icell, dx, dy, charge):
        gs = self.grid_shared
        # repartition + data-movement sampling share one histogram; a
        # bincount is computed only on the steps that need it, and the
        # cut never moves mid-deposit (ranges adopted before sharding)
        hist = None
        if self.planner.wants_histogram():
            hist = np.bincount(
                np.asarray(icell, dtype=np.int64), minlength=gs.nalloc
            )
        new_ranges = self.planner.maybe_repartition(hist)
        if new_ranges is not None:
            gs.set_cell_ranges(new_ranges)
        if hist is not None:
            self._record_datamove(hist)
        specs_base = self._spec(icell=icell, dx=dx, dy=dy)
        shards = []
        active = []
        for wid, cr in enumerate(gs.cell_ranges):
            if cr.stop <= cr.start:
                continue
            active.append(wid)
            specs = dict(specs_base)
            specs["slab"] = self.arena.spec_for(gs.slabs[wid])
            shards.append((wid, {
                "op": "deposit2d", "cell_lo": cr.start, "cell_hi": cr.stop,
                "charge": float(charge), "arrays": specs,
            }))
        failed = self._dispatch("accumulate", shards)
        for wid, msg in failed:
            _exec_deposit(
                gs.slabs[wid], icell, dx, dy,
                msg["cell_lo"], msg["cell_hi"], float(charge),
            )
        gs.reduce_slabs(active)

    def _record_datamove(self, hist) -> None:
        """Sample the deposit's measured data movement into the timings."""
        instr = self.instrumentation
        if instr is None:
            return
        from repro.perf.datamove import deposit_movement, rusage_sample

        stats = deposit_movement(
            self.grid_shared.cell_ranges, hist, ordering=self.ordering
        )
        stats["repartitions"] = len(self.planner.events)
        if self.planner.events:
            stats["last_repartition"] = dict(self.planner.events[-1])
        ru = rusage_sample()
        if ru is not None:
            stats["rusage"] = ru
        instr.record_datamove(stats)

    # ------------------------------------------------------------------
    def ping(self, timeout=5.0) -> list[bool]:
        """Worker heartbeat (see :meth:`WorkerPool.ping`)."""
        return self.pool.ping(timeout=timeout)

    @property
    def fallbacks(self) -> int:
        """Serial-retry count so far (mirrors ``StepTimings.fallbacks``)."""
        instr = self.instrumentation
        return instr.timings.fallbacks if instr is not None else 0

    def close(self) -> None:
        """Shut the pool down and unlink every shared segment."""
        if self._closed:
            return
        self._closed = True
        try:
            _LIVE_ENGINES.remove(self)
        except ValueError:  # pragma: no cover
            pass
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass
        self.pool.close()
        self.arena.close()


class ShmEngine3D:
    """Deposit-only shared-memory engine for the 3D stepper.

    The 3D stepper keeps its particles as a plain dict of arrays and
    its gather/kick/push loops are cheap NumPy sweeps; the deposit is
    the phase worth fanning out (and the one whose bitwise promise the
    cell-ownership scheme buys).  Construction relocates the deposit's
    input arrays — ``icell, dx, dy, dz`` — into shared memory by
    rebinding the dict keys once; every later stepper write goes
    *through* those arrays (``arr[:] = ...`` discipline in the 3D
    kernels and sort), so workers always see current state without any
    per-step copying.  Private ``(nalloc, 8)`` slabs per worker, static
    cell cuts from :func:`~repro.parallel.partition.partition_cells` on
    the t=0 particle histogram, parent-side reduce in worker order:
    bitwise-identical to the serial deposit at any worker count, same
    argument as 2D.

    ``rho_1d`` itself stays in parent memory — only the parent reduces
    into it, so it never needs to cross a process boundary.
    """

    def __init__(self, stepper, nworkers=None, task_timeout=None):
        cfg = stepper.config
        if nworkers is None:
            nworkers = getattr(cfg, "workers", None) or os.cpu_count() or 1
        self.nworkers = max(1, int(nworkers))
        if task_timeout is None:
            task_timeout = getattr(cfg, "mp_task_timeout", 60.0)
        self.task_timeout = float(task_timeout)

        self.arena = SharedArena()
        p = stepper.particles
        for key in ("icell", "dx", "dy", "dz"):
            p[key] = self.arena.share_copy(np.asarray(p[key]))
        self.icell = p["icell"]
        self.n = int(self.icell.shape[0])
        self.rho_target = stepper.fields.rho_1d
        nalloc = int(self.rho_target.shape[0])
        self.nalloc = nalloc

        hist0 = np.bincount(
            np.asarray(self.icell, dtype=np.int64), minlength=nalloc
        )
        self.cell_ranges = partition_cells(nalloc, self.nworkers, hist0)
        self.slabs = [
            self.arena.alloc((nalloc, 8)) for _ in range(self.nworkers)
        ]
        self.instrumentation = stepper.instrumentation
        self.pool = WorkerPool(self.nworkers, timeout=self.task_timeout)
        self.max_failure_streak = 3
        self._failure_streak = 0
        self.unrecoverable = False
        self._closed = False
        _LIVE_ENGINES.append(self)
        atexit.register(self.close)

    # the dispatch/retry policy, helpers and shutdown are
    # dimension-agnostic; borrow them from the 2D engine rather than
    # duplicating the logic
    _spec = ShmEngine._spec
    _dispatch = ShmEngine._dispatch
    ping = ShmEngine.ping
    fallbacks = ShmEngine.fallbacks
    close = ShmEngine.close

    def accumulate_redundant_3d(self, icell, dx, dy, dz, charge) -> None:
        """Cell-ownership deposit into the stepper's ``rho_1d``."""
        specs_base = self._spec(icell=icell, dx=dx, dy=dy, dz=dz)
        shards, active = [], []
        for wid, cr in enumerate(self.cell_ranges):
            if cr.stop <= cr.start:
                continue
            active.append(wid)
            specs = dict(specs_base)
            specs["slab"] = self.arena.spec_for(self.slabs[wid])
            shards.append((wid, {
                "op": "deposit3d", "cell_lo": cr.start, "cell_hi": cr.stop,
                "charge": float(charge), "arrays": specs,
            }))
        failed = self._dispatch("accumulate", shards)
        for wid, msg in failed:
            _exec_deposit_3d(
                self.slabs[wid], icell, dx, dy, dz,
                msg["cell_lo"], msg["cell_hi"], float(charge),
            )
        for wid in sorted(active):
            cr = self.cell_ranges[wid]
            self.rho_target[cr] += self.slabs[wid][: cr.stop - cr.start]


def _engine_owning(*arrays):
    for eng in _LIVE_ENGINES:
        if eng.arena.owns(*arrays):
            return eng
    return None


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
@register_backend
class MultiprocessBackend(NumpyBackend):
    """NumPy kernels fanned out over shared-memory worker processes.

    Inherits every kernel from :class:`NumpyBackend`; calls whose
    arrays belong to a live :class:`ShmEngine` (i.e. came from a
    prepared stepper in split-loop redundant-SoA mode) are dispatched
    to the pool, everything else — direct kernel calls, the fused
    sweep, standard/AoS layouts — runs serially with identical
    results.  A 3D stepper (``redundant3d`` fields + dict particles)
    gets a deposit-only :class:`ShmEngine3D`: its whole-grid deposit
    fans out by cell ownership while gather/kick/push stay serial, and
    any loop mode qualifies because the one whole-grid deposit follows
    the sweep on either path.  Deliberately the *lowest*
    priority so ``"auto"`` never picks it; multiprocessing is opt-in.
    """

    name = "numpy-mp"
    priority = 5
    degrades_to = "numpy"

    _available: bool | None = None

    def __init__(self):
        self._engines: dict[int, ShmEngine] = {}

    @classmethod
    def is_available(cls) -> bool:
        """Probe shared memory + synchronisation primitives once."""
        if cls._available is None:
            try:
                import multiprocessing as mp
                from multiprocessing import shared_memory

                seg = shared_memory.SharedMemory(create=True, size=8)
                seg.close()
                seg.unlink()
                mp.get_context().Lock()
                cls._available = True
            except Exception:  # pragma: no cover - exotic hosts only
                cls._available = False
        return cls._available

    # -- stepper lifecycle ----------------------------------------------
    def prepare_stepper(self, stepper) -> None:
        cfg = stepper.config
        if getattr(stepper.fields, "layout", None) == "redundant3d":
            try:
                engine = ShmEngine3D(stepper)
            except OSError as exc:  # pragma: no cover - no /dev/shm etc.
                _log.warning(
                    "numpy-mp: shared memory unavailable (%s); running 3D "
                    "deposit serially", exc,
                )
                return
            self._engines[id(stepper)] = engine
            _log.info(
                "numpy-mp 3D deposit engine: %d workers, task timeout %.1fs",
                engine.nworkers, engine.task_timeout,
            )
            return
        eligible = (
            stepper.fields.layout == "redundant"
            and isinstance(stepper.particles, ParticleSoA)
            and cfg.loop_mode == "split"
        )
        if not eligible:
            _log.warning(
                "numpy-mp needs field_layout='redundant', particle_layout="
                "'soa' and loop_mode='split' to parallelize (got %r/%r/%r); "
                "running serially",
                cfg.field_layout, cfg.particle_layout, cfg.loop_mode,
            )
            return
        try:
            engine = ShmEngine(stepper)
        except OSError as exc:  # pragma: no cover - no /dev/shm etc.
            _log.warning(
                "numpy-mp: shared memory unavailable (%s); running serially",
                exc,
            )
            return
        self._engines[id(stepper)] = engine
        _log.info(
            "numpy-mp engine: %d workers, task timeout %.1fs, %d shared "
            "segments", engine.nworkers, engine.task_timeout,
            len(engine.arena.segment_names),
        )

    def release_stepper(self, stepper) -> None:
        engine = self._engines.pop(id(stepper), None)
        if engine is not None:
            engine.close()

    def engine_for(self, stepper) -> ShmEngine | None:
        """The live engine prepared for ``stepper``, if any."""
        return self._engines.get(id(stepper))

    # -- kernel dispatch -------------------------------------------------
    def interpolate_redundant(self, e_1d, icell, dx, dy):
        eng = _engine_owning(e_1d, icell, dx, dy)
        if eng is None or len(icell) != eng.n:
            return _k.interpolate_redundant(e_1d, icell, dx, dy)
        return eng.interpolate_redundant(e_1d, icell, dx, dy)

    def update_velocities(self, vx, vy, ex_p, ey_p, coef_x=1.0, coef_y=1.0):
        eng = _engine_owning(vx, vy, ex_p, ey_p)
        if eng is None or len(vx) != eng.n:
            return _k.update_velocities(vx, vy, ex_p, ey_p, coef_x, coef_y)
        eng.update_velocities(vx, vy, ex_p, ey_p, coef_x, coef_y)

    def accumulate_redundant(self, rho_1d, icell, dx, dy, charge=1.0):
        eng = _engine_owning(rho_1d, icell, dx, dy)
        if (
            eng is None
            or rho_1d is not eng.grid_shared.rho_1d
            or len(icell) != eng.n
        ):
            return _k.accumulate_redundant(rho_1d, icell, dx, dy, charge)
        eng.accumulate_redundant(icell, dx, dy, charge)

    def accumulate_redundant_3d(self, rho_1d, icell, dx, dy, dz, charge=1.0):
        eng = _engine_owning(icell, dx, dy, dz)
        if (
            eng is None
            or rho_1d is not getattr(eng, "rho_target", None)
            or len(icell) != eng.n
        ):
            return super().accumulate_redundant_3d(
                rho_1d, icell, dx, dy, dz, charge
            )
        eng.accumulate_redundant_3d(icell, dx, dy, dz, charge)

    def push_positions(
        self, particles, ncx, ncy, ordering, variant, scale_x=1.0, scale_y=1.0
    ):
        try:
            arrays = [
                particles.icell, particles.dx, particles.dy,
                particles.vx, particles.vy,
            ]
            if particles.store_coords:
                arrays += [particles.ix, particles.iy]
        except AttributeError:  # pragma: no cover - exotic storages
            arrays = None
        eng = _engine_owning(*arrays) if arrays else None
        if eng is None or ordering is not eng.ordering or particles.n != eng.n:
            return super().push_positions(
                particles, ncx, ncy, ordering, variant, scale_x, scale_y
            )
        eng.push_positions(particles, ncx, ncy, variant, scale_x, scale_y)
