"""Real shared-memory multiprocessing engine for the §V-B loops.

Where :mod:`repro.parallel.openmp` *emulates* the paper's thread-team
semantics inside one interpreter, this module executes them across
genuine OS processes:

* a persistent :class:`WorkerPool` of ``multiprocessing`` processes,
  each attached lazily to the shared-memory arrays of
  :mod:`repro.parallel.shm`, each on its own pair of pipes; the parent
  sleeps in one ``multiprocessing.connection.wait`` on the result
  pipes and process sentinels until something happens;
* a per-stepper :class:`ShmEngine` that partitions the three particle
  loops of Fig. 1 across the pool — gather/kick/push by particle
  range, the charge deposit by **corner ownership** (each worker folds
  whole corner columns of ``rho_1d`` — cut into cell ranges only
  beyond ``ncorner`` workers — into a private slab the parent adds) so
  the parallel ρ is bitwise-identical to the serial NumPy deposit at
  any worker count;
* a :class:`MultiprocessBackend` registered as ``"numpy-mp"`` so the
  stepper, :class:`~repro.core.simulation.Simulation` and the CLI
  (``--backend numpy-mp --workers N``) drive it unchanged.

Robustness: worker heartbeat (:meth:`WorkerPool.ping`), a configurable
task timeout (``OptimizationConfig.mp_task_timeout``), and a serial
degradation path — a crashed or hung worker is killed and respawned
and its shards are recomputed in the parent, counted in
:class:`~repro.perf.instrument.StepTimings` as ``fallbacks``.  The
update-v/update-x loops write to a *back buffer* the parent commits by
exchanging array bindings (:meth:`SharedParticleStorage.flip`), so a
worker dying mid-write never corrupts the inputs the serial retry
reads; the deposit slab is private and re-zeroed, so every retry is
idempotent.
"""

from __future__ import annotations

import atexit
import logging
import os
import time
import traceback
from multiprocessing.connection import wait

import numpy as np

from repro.core import kernels as _k
from repro.core.backends import NumpyBackend, register_backend
from repro.curves.base import get_ordering
from repro.parallel.partition import (
    PartitionPlanner,
    corner_tasks,
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

    :func:`repro.core.kernels.kick` — the in-place serial kick's own
    body, ``coef == 1`` fast path included — writing block by block
    straight into the staging slice, so the staged values are bitwise
    what the serial kick would produce.
    """
    for sl in _k.blocks(hi - lo):
        sl = slice(lo + sl.start, lo + sl.stop)
        _k.kick(vx[sl], ex_p[sl], coef_x, out=vx_new[sl])
        _k.kick(vy[sl], ey_p[sl], coef_y, out=vy_new[sl])


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


def _exec_deposit(slab, icell, offsets, groups, charge):
    """Fold the owned ``(cell_lo, cell_hi, corners)`` groups into ``slab``.

    The one deposit op, 2D and 3D (two or three ``offsets``).  Each
    group runs the serial kernel restricted to its corner columns
    (:func:`repro.core.kernels.deposit_rows`): that corner's weights,
    then one ``np.bincount`` over the particles in index order — the
    serial deposit's own operations and order, hence its bits.  A range
    spanning the grid takes the particle arrays as they are; a proper
    sub-range selects its particles first (``flatnonzero`` keeps index
    order).  The owned slab pieces are re-zeroed first, making retries
    idempotent.
    """
    if len(offsets) == 2:
        accumulate = _k.accumulate_redundant
    else:
        from repro.pic3d.kernels3d import accumulate_redundant_3d as accumulate
    for lo, hi, corners in groups:
        slab[corners, lo:hi] = 0.0
        keys, offs = icell, offsets
        if (lo, hi) != (0, slab.shape[1]):
            sel = np.flatnonzero((icell >= lo) & (icell < hi))
            keys, offs = icell[sel] - lo, [o[sel] for o in offsets]
        # slab is corner-major: .T is the (rows, ncorner) rho_1d shape
        accumulate(slab.T[lo:hi], keys, *offs, charge, corners=corners)


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
    elif op == "deposit":
        _exec_deposit(
            arrs["slab"], arrs["icell"],
            [arrs[k] for k in ("dx", "dy", "dz") if k in arrs],
            msg["groups"], msg["charge"],
        )
    elif op == "ping":
        pass
    elif op == "sleep":  # test hook for the timeout path
        time.sleep(msg["seconds"])
    else:
        raise KeyError(f"unknown worker op {op!r}")


def _worker_main(wid, tasks, results):
    """Worker process loop: attach lazily, execute shards, report."""
    seg_cache: dict = {}
    ordering_cache: dict = {}
    while True:
        try:
            msg = tasks.recv()
        except EOFError:  # parent gone
            break
        if msg is None:
            break
        tid = msg["tid"]
        try:
            t0 = time.perf_counter()
            _execute(msg["op"], msg, seg_cache, ordering_cache)
            results.send(("done", wid, tid, time.perf_counter() - t0))
        except Exception:
            # Truncate so the pickled message stays under PIPE_BUF and
            # the pipe write is a single atomic os.write — a SIGKILL can
            # then never leave a half-written result in the pipe.
            err = traceback.format_exc()[-2000:]
            try:
                results.send(("error", wid, tid, err))
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
    """The parent's handle on one worker: the process, the send end of
    its task pipe and the receive end of its result pipe."""

    __slots__ = ("proc", "tasks", "results")

    def __init__(self, proc, tasks, results):
        self.proc = proc
        self.tasks = tasks
        self.results = results

    def close_pipes(self) -> None:
        self.tasks.close()
        self.results.close()


class WorkerPool:
    """Persistent pool of kernel workers with heartbeat and recovery.

    Shards are addressed to a specific worker (the engine's partitions
    are static, as in the paper's OpenMP scheme).  ``run_shards``
    sleeps in :func:`multiprocessing.connection.wait` on the busy
    workers' result pipes and process sentinels until a result
    arrives, a worker dies, or the timeout expires; dead or hung
    workers are killed and respawned with fresh pipes, and their
    shards are returned as *failed* for the caller to retry serially.

    Each worker owns a **private** pair of one-way pipes, written with
    plain ``Connection.send`` — no queue feeder thread and no
    cross-process lock, so a SIGKILLed worker can orphan nothing the
    others depend on, and everything it held is discarded when it is
    respawned.
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
        task_r, task_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, task_r, result_w),
            daemon=True,
            name=f"repro-shm-worker-{wid}",
        )
        proc.start()
        # the worker's ends live in the worker only, so its death
        # reads as EOF on the result pipe
        task_r.close()
        result_w.close()
        return _Worker(proc, task_w, result_r)

    def _restart(self, wid) -> None:
        w = self._workers[wid]
        if w.proc.is_alive():
            w.proc.kill()
        w.proc.join(timeout=5.0)
        w.close_pipes()
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
            try:
                self._workers[wid].tasks.send(m)
            except OSError:
                pass  # worker already dead: its sentinel fails the shard below
        deadline = time.monotonic() + timeout
        in_grace = False
        while pending:
            busy = {wid for wid, _m in pending.values()}
            sources = {}
            for wid in busy:
                w = self._workers[wid]
                sources[w.results] = sources[w.proc.sentinel] = wid
            ready = wait(list(sources), max(0.0, deadline - time.monotonic()))
            if not ready:
                if in_grace:
                    break
                # timeout: keep draining briefly so results already in
                # flight still count as done, then give up
                in_grace = True
                deadline = time.monotonic() + 0.25
                continue
            dead: set[int] = set()
            # results before sentinels: what a worker reported before
            # it died still counts
            for src in sorted(ready, key=lambda r: isinstance(r, int)):
                wid = sources[src]
                if wid in dead:
                    continue
                if isinstance(src, int):
                    if not self._workers[wid].results.poll():
                        dead.add(wid)
                    continue
                try:
                    kind, _wid, tid, payload = src.recv()
                except (EOFError, OSError):
                    dead.add(wid)
                    continue
                self.last_seen[wid] = time.monotonic()
                entry = pending.pop(tid, None)
                if entry is None:  # stale result from a pre-restart task
                    continue
                if kind == "done":
                    done.append((entry, payload))
                else:
                    _log.warning("worker %d task failed:\n%s", wid, payload)
                    failed.append(entry)
            for wid in dead:
                for tid in [t for t, (w_, _m) in pending.items() if w_ == wid]:
                    failed.append(pending.pop(tid))
                self._restart(wid)
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
                w.tasks.send(None)
            except OSError:  # worker already dead
                pass
        for w in self._workers:
            w.proc.join(timeout=1.0)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(timeout=1.0)
            w.close_pipes()


# ----------------------------------------------------------------------
# The per-stepper engine
# ----------------------------------------------------------------------
def _initial_cuts(planner, icell):
    """The planner's t=0 cell ranges; the histogram is only taken when
    there is more than one range to balance."""
    hist = None
    if planner.nparts > 1:
        hist = np.bincount(
            np.asarray(icell, dtype=np.int64), minlength=planner.nalloc
        )
    return planner.initial(hist)


class ShmEngine:
    """Drives one stepper's particle loops across the worker pool.

    Construction relocates the stepper's particle storage and redundant
    field arrays into shared memory (the stepper keeps using them
    through the same attributes), gives the stepper a shared back
    buffer — staging for the kick/push commits *and* the out-of-place
    sort's double buffer — and sets up both partitions: particle
    ranges for gather/kick/push (fixed for the engine's lifetime), and
    corner columns for the deposit.  Beyond ``ncorner`` workers the
    columns are also cut into cell ranges, from the t=0 particle
    histogram (~equal particles per range) and re-cut by the
    :class:`~repro.parallel.partition.PartitionPlanner` every
    ``repartition_every`` deposits when the measured load imbalance
    warrants it.  Each such check also records a data-movement sample
    (:func:`repro.perf.datamove.deposit_movement` + ``resource``
    counters) into the step timings, from the same histogram.
    """

    def __init__(self, stepper, nworkers=None, task_timeout=None):
        self._configure(stepper, nworkers, task_timeout)
        cfg = stepper.config
        # rebind before allocating the back buffer: the plain storage
        # is released first, so the two never add to the peak footprint
        stepper.particles = front = SharedParticleStorage.from_storage(
            stepper.particles, self.arena
        )
        stepper._sort_buffer = front.clone_empty()
        #: commits exchange array bindings between the stepper's
        #: ``particles`` (front) and ``_sort_buffer`` (back), whichever
        #: storage object currently plays which role
        self._stepper = stepper
        nalloc, ncorner = stepper.fields.rho_1d.shape
        self.planner = PartitionPlanner(
            nalloc=nalloc, nparts=-(-self.nworkers // ncorner)
        )
        self.grid_shared = SharedGrid(
            stepper.fields, self.arena, _initial_cuts(self.planner, front.icell)
        )
        self.ordering = stepper.ordering
        self._ordering_spec = (
            cfg.ordering,
            stepper.grid.ncx,
            stepper.grid.ncy,
            tuple(sorted(cfg.ordering_kwargs.items())),
        )
        self.n = front.n
        self.particle_ranges = partition_range(self.n, self.nworkers)
        # per-particle gather targets
        self.ex_p = self.arena.alloc(self.n)
        self.ey_p = self.arena.alloc(self.n)
        self._start_pool()

    def _configure(self, stepper, nworkers, task_timeout) -> None:
        cfg = stepper.config
        if nworkers is None:
            nworkers = getattr(cfg, "workers", None) or os.cpu_count() or 1
        self.nworkers = max(1, int(nworkers))
        if task_timeout is None:
            task_timeout = getattr(cfg, "mp_task_timeout", 60.0)
        self.task_timeout = float(task_timeout)
        self.instrumentation = stepper.instrumentation
        self.arena = SharedArena()

    def _start_pool(self) -> None:
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

    def front_back(self, particles=None, **live):
        """``(front, back)`` storages for a commit, or ``None``.

        The front is the stepper's current ``particles``; the answer
        is ``None`` unless the caller passed that storage, or arrays
        that *are* its live ones (``vx=..., vy=...``) — anything else
        runs the inherited in-place kernel on the caller's arrays.
        """
        front, back = self._stepper.particles, self._stepper._sort_buffer
        if particles is front or (live and all(
            getattr(front, "_" + key) is arr for key, arr in live.items()
        )):
            return front, back
        return None

    def update_velocities(self, stores, ex_p, ey_p, coef_x, coef_y):
        front, back = stores
        arrays = {  # in _exec_kick's argument order
            "vx": front.vx, "vy": front.vy, "ex_p": ex_p, "ey_p": ey_p,
            "vx_new": back.vx, "vy_new": back.vy,
        }
        shards = self._particle_shards(
            "kick2d", arrays, coef_x=float(coef_x), coef_y=float(coef_y),
        )
        for _wid, msg in self._dispatch("update_v", shards):
            _exec_kick(
                *arrays.values(), msg["lo"], msg["hi"],
                float(coef_x), float(coef_y),
            )
        front.flip(back, ("vx", "vy"))

    def push_positions(self, stores, ncx, ncy, variant, scale_x, scale_y):
        front, back = stores
        arrays = front.views()
        staged = [key for key in arrays if key not in ("vx", "vy")]
        arrays.update((key + "_new", getattr(back, key)) for key in staged)
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
        front.flip(back, staged)

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
        self._deposit(gs.rho_1d, gs.slab, gs.cell_ranges, icell, (dx, dy), charge)

    def _deposit(self, rho_1d, slab, cell_ranges, icell, offsets, charge):
        """Corner-owned deposit into ``rho_1d`` (2D and 3D engines)."""
        specs = self._spec(
            slab=slab, icell=icell, **dict(zip(("dx", "dy", "dz"), offsets))
        )
        shards = [
            (wid, {"op": "deposit", "groups": groups, "charge": float(charge),
                   "arrays": specs})
            for wid, groups in enumerate(
                corner_tasks(cell_ranges, slab.shape[0], self.nworkers)
            )
            if groups
        ]
        for _wid, msg in self._dispatch("accumulate", shards):
            _exec_deposit(slab, icell, offsets, msg["groups"], float(charge))
        # the tasks tile the slab, so one add is the whole reduction
        rho_1d += slab.T

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
    the phase worth fanning out (and the one whose bitwise promise
    corner ownership buys).  Construction relocates the deposit's
    input arrays — ``icell, dx, dy, dz`` — into shared memory by
    rebinding the dict keys once; every later stepper write goes
    *through* those arrays (``arr[:] = ...`` discipline in the 3D
    kernels and sort), so workers always see current state without any
    per-step copying.  The deposit is :meth:`ShmEngine._deposit` on an
    ``(8, nalloc)`` slab: whole corner columns up to 8 workers, beyond
    that static cell cuts from
    :func:`~repro.parallel.partition.partition_cells` on the t=0
    particle histogram.

    ``rho_1d`` itself stays in parent memory — only the parent reduces
    into it, so it never needs to cross a process boundary.
    """

    def __init__(self, stepper, nworkers=None, task_timeout=None):
        self._configure(stepper, nworkers, task_timeout)
        p = stepper.particles
        for key in ("icell", "dx", "dy", "dz"):
            p[key] = self.arena.share_copy(np.asarray(p[key]))
        self.n = int(p["icell"].shape[0])
        self.rho_target = stepper.fields.rho_1d
        nalloc, ncorner = self.rho_target.shape
        self.cell_ranges = _initial_cuts(
            PartitionPlanner(nalloc=nalloc, nparts=-(-self.nworkers // ncorner)),
            p["icell"],
        )
        self.slab = self.arena.alloc((ncorner, nalloc))
        self._start_pool()

    # set-up, the dispatch/retry policy, the deposit and shutdown are
    # dimension-agnostic; borrow them from the 2D engine rather than
    # duplicating the logic
    _configure = ShmEngine._configure
    _start_pool = ShmEngine._start_pool
    _spec = ShmEngine._spec
    _dispatch = ShmEngine._dispatch
    _deposit = ShmEngine._deposit
    ping = ShmEngine.ping
    fallbacks = ShmEngine.fallbacks
    close = ShmEngine.close

    def accumulate_redundant_3d(self, icell, dx, dy, dz, charge) -> None:
        """Corner-owned deposit into the stepper's ``rho_1d``."""
        self._deposit(
            self.rho_target, self.slab, self.cell_ranges, icell, (dx, dy, dz), charge
        )


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
        stores = eng.front_back(vx=vx, vy=vy) if eng is not None else None
        if stores is None:
            return _k.update_velocities(vx, vy, ex_p, ey_p, coef_x, coef_y)
        eng.update_velocities(stores, ex_p, ey_p, coef_x, coef_y)

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
        eng = _engine_owning(particles.icell)
        stores = eng.front_back(particles) if eng is not None else None
        if stores is None or ordering is not eng.ordering:
            return super().push_positions(
                particles, ncx, ncy, ordering, variant, scale_x, scale_y
            )
        eng.push_positions(stores, ncx, ncy, variant, scale_x, scale_y)
