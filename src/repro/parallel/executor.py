"""Real shared-memory multiprocessing engine for the §V-B loops.

The one executed rendering of §V's decomposition — fixed particle
shares, a whole grid per worker, one ρ reduction per step (the
model's :mod:`repro.model.openmp` / :mod:`repro.model.mpi` only price
it).  It runs across genuine OS processes:

* a persistent :class:`WorkerPool` of ``multiprocessing`` processes,
  each attached lazily to the shared-memory arrays of
  :mod:`repro.parallel.shm`, each on its own pair of pipes; the parent
  sleeps in one ``multiprocessing.connection.wait`` on the result
  pipes and process sentinels until something happens;
* a per-stepper :class:`ShmEngine` — one engine for 2D and 3D
  steppers — that partitions the three particle
  loops of Fig. 1 across the pool — update-v and the push by particle
  range, the charge deposit by **corner ownership** (each worker folds
  whole corner columns of ``rho_1d`` — cut into cell ranges only
  beyond ``ncorner`` workers — into a private slab the parent copies
  into ``rho_1d``) so the parallel ρ is bitwise-identical to the serial
  deposit at any worker count.  Every shard runs one in-process
  backend's kernels, the engine's *body*, picked once before the pool
  forks: the compiled ``c`` loops wherever they build, else ``numpy``
  (bitwise equal); the parent's ρ fold and field broadcast run the same
  body;
* a :class:`MultiprocessBackend` registered as ``"numpy-mp"`` so the
  stepper, :class:`~repro.core.simulation.Simulation` and the CLI
  (``--backend numpy-mp --workers N``) drive it unchanged.

Robustness: worker heartbeat (:meth:`WorkerPool.ping`), a configurable
task timeout (``OptimizationConfig.mp_task_timeout``), and a serial
degradation path — a crashed or hung worker is killed and respawned
and its shards are recomputed in the parent, counted in
:class:`~repro.perf.instrument.StepTimings` as ``fallbacks``.  A
particle shard copies the columns it writes from the live (front)
storage into the *back buffer* and runs the body's own in-place kernel
there; the parent commits by exchanging array bindings
(:meth:`SharedParticleStorage.flip`).  The front is only read, so a
worker dying mid-write never corrupts the inputs the serial retry
re-copies; the deposit writes its owned slab pieces outright, so every
retry is idempotent.
"""

from __future__ import annotations

import atexit
import logging
import time
import traceback
from multiprocessing.connection import wait

import numpy as np

from repro.core.backends import AUTO, NumpyBackend, get_backend, register_backend
from repro.core.kernels import wrap_for
from repro.core.team import usable_cpus
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

__all__ = [
    "WorkerPool",
    "ShmEngine",
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
# path, so the fallback recomputes the exact same bits.  Per-axis
# arguments are sequences (two or three entries): one body per op, not
# one per dimension.  ``body`` is the in-process backend whose kernels
# the shard runs (:attr:`ShmEngine.body`): ``c`` wherever it builds,
# else ``numpy`` — bitwise equal, so either serves any shard.
# ----------------------------------------------------------------------
def _stage(front, back, lo, hi):
    """Particles ``[lo, hi)`` as one mapping for an in-place kernel:
    the back buffer's slices of the columns ``back`` names, filled from
    the front's, and the front's own slices of the rest, which the
    kernels only read.  The front is never written, so a retry after a
    mid-write crash re-copies unmodified state."""
    cols = {}
    for key, arr in front.items():
        if key in back:
            np.copyto(back[key][lo:hi], arr[lo:hi])
            cols[key] = back[key][lo:hi]
        else:
            cols[key] = arr[lo:hi]
    return cols


def _exec_update_v(body, front, back, e_1d, lo, hi, drive=None):
    """Update-v (with ``drive``) of the shard onto the back buffer's
    velocities (``back`` names exactly those, one per axis)."""
    p = _stage(front, back, lo, hi)
    axes = "xyz"[: len(back)]
    body.update_v(
        tuple(p["v" + a] for a in axes), e_1d, p["icell"],
        tuple(p["d" + a] for a in axes), drive,
    )


def _exec_push(body, front, back, lo, hi, extents, ordering, scales,
               wrap=None):
    """The push of the shard onto the back buffer's cells, offsets and
    coordinates (and, under the wall, velocities), from the front's
    velocities."""
    body.push(_stage(front, back, lo, hi), extents, ordering, scales, wrap)


def _exec_advance(body, front, back, e_1d, lo, hi, extents, ordering,
                  wrap=None, drive=None):
    """Update-v then the push of the shard, onto the back buffer's
    every column, in the body's one pass; returns the body's two loop
    seconds."""
    return body.advance(_stage(front, back, lo, hi), e_1d, extents, ordering,
                        wrap, drive)


def _exec_deposit(body, slab, icell, offsets, groups, charge):
    """Fold the owned ``(cell_lo, cell_hi, corners)`` groups into ``slab``.

    Each group runs the serial deposit restricted to its corner columns
    (``accumulate_rows(..., corners=)``): those corners' weights,
    folded over the particles in index order — the serial deposit's own
    operations and order, hence its bits.  A range spanning the grid
    takes the particle arrays as they are; a proper sub-range selects
    its particles first (``flatnonzero`` keeps index order).  The
    deposit writes the owned slab pieces rather than adding into them,
    so a retry is idempotent.
    """
    for lo, hi, corners in groups:
        keys, offs = icell, offsets
        if (lo, hi) != (0, slab.shape[1]):
            sel = np.flatnonzero((icell >= lo) & (icell < hi))
            keys, offs = icell[sel] - lo, [o[sel] for o in offsets]
        # slab is corner-major: .T is the (rows, ncorner) rho_1d shape
        body.accumulate_rows(slab.T[lo:hi], keys, offs, charge, corners=corners)


#: worker op name -> executor; a shard message carries the op's array
#: arguments as a tree of attach specs and the rest under ``"args"``
_OPS = {
    "update_v": _exec_update_v,
    "push": _exec_push,
    "advance": _exec_advance,
    "deposit": _exec_deposit,
}


def _map_arrays(fn, tree):
    """``tree`` (arrays or attach specs, nested in dicts/lists) with
    ``fn`` applied to every leaf."""
    if isinstance(tree, dict):
        return {key: _map_arrays(fn, sub) for key, sub in tree.items()}
    if isinstance(tree, list):
        return [_map_arrays(fn, sub) for sub in tree]
    return fn(tree)


def _ordering_from_spec(spec, cache):
    """The ordering a ``(name, extents, kwargs)`` spec
    (:attr:`CellOrdering.spec <repro.curves.base.CellOrdering.spec>`)
    names, built once per worker through the one registry."""
    ordering = cache.get(spec)
    if ordering is None:
        name, extents, kwargs = spec
        ordering = cache[spec] = get_ordering(name, *extents, **dict(kwargs))
    return ordering


def _execute(op, msg, seg_cache, ordering_cache):
    """Run one message; returns what the op's executor returns."""
    if op in _OPS:
        args = dict(msg["args"])
        if "body" in args:  # by name: a forked worker has it loaded
            args["body"] = get_backend(args["body"])
        if "ordering" in args:
            args["ordering"] = _ordering_from_spec(args["ordering"], ordering_cache)
        arrays = _map_arrays(lambda spec: attach_array(spec, seg_cache), msg["arrays"])
        return _OPS[op](**arrays, **args)
    if op == "sleep":  # test hook for the timeout path
        time.sleep(msg["seconds"])
    elif op != "ping":
        raise KeyError(f"unknown worker op {op!r}")
    return None


def _worker_main(wid, tasks, results):
    """Worker process loop: attach lazily, execute shards, report each
    as ``(seconds, what the executor returned)``."""
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
            out = _execute(msg["op"], msg, seg_cache, ordering_cache)
            results.send(("done", wid, tid, (time.perf_counter() - t0, out)))
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

    def __init__(self, nworkers, timeout=60.0):
        import multiprocessing as mp

        self.nworkers = int(nworkers)
        self.timeout = float(timeout)
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self._tid = 0
        self._closed = False
        #: number of workers killed and respawned over the pool's life
        self.restarts = 0
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

        ``done`` holds ``((wid, msg), (seconds, result))`` per completed
        shard,
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
class ShmEngine:
    """Drives one stepper's particle loops across the worker pool.

    Serves any stepper — its particles are a
    :class:`~repro.particles.storage.ParticleSoA` and its fields hold
    redundant ``rho_1d``/``e_1d`` rows, 2D and 3D alike; every
    per-axis quantity travels as a tuple.  Construction relocates the
    particle storage and the field rows into shared memory (the stepper
    keeps using them through the same attributes), allocates a shared
    back buffer — staging for the particle loops' commits *and* the
    gather target of the particles' sort — and sets up both partitions:
    particle ranges for update-v and the push (fixed for the engine's
    lifetime), and corner columns for the deposit.  Beyond ``ncorner``
    workers the columns are also cut into cell ranges, from the t=0
    particle histogram (~equal particles per range) and re-cut by the
    :class:`~repro.parallel.partition.PartitionPlanner` every
    ``repartition_every`` deposits when the measured load imbalance
    warrants it.  :attr:`body` is the backend whose kernels the shards
    run, in the workers and in the parent's serial retry alike.
    """

    def __init__(self, stepper):
        cfg = stepper.config
        self.nworkers = cfg.workers or usable_cpus()
        self.instrumentation = stepper.instrumentation
        self.arena = SharedArena()
        # rebind before allocating the back buffer: the plain storage
        # is released first, so the two never add to the peak footprint
        stepper.particles = front = SharedParticleStorage.from_storage(
            stepper.particles, self.arena
        )
        #: the back buffer: staging of the particle loops' commits and
        #: the gather target of the front's sort, both of which
        #: exchange array bindings with the stepper's ``particles``
        #: (the front), so neither store object ever changes roles
        self.back = front.back = front.clone_empty()
        self._stepper = stepper
        nalloc, ncorner = stepper.fields.rho_1d.shape
        self.planner = PartitionPlanner(
            nalloc=nalloc, nparts=-(-self.nworkers // ncorner)
        )
        # the t=0 histogram is only taken when there is more than one
        # range to balance
        hist = None
        if self.planner.nparts > 1:
            hist = np.bincount(front.icell, minlength=nalloc)
        self.grid_shared = SharedGrid(
            stepper.fields, self.arena, self.planner.initial(hist)
        )
        self.ordering = stepper.ordering
        self.n, self.ndim = front.n, front.ndim
        self.particle_ranges = partition_range(self.n, self.nworkers)
        #: the kernels every shard runs, picked once — before the pool
        #: forks, so the workers start with them loaded
        self.body = get_backend(AUTO)
        self.pool = WorkerPool(self.nworkers, timeout=cfg.mp_task_timeout)
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
    def _dispatch(self, phase, shards):
        """Run shards; record per-worker timings; return ``(results,
        failed msgs)``.

        A shard's seconds are booked to ``phase``, except that an
        executor returning its body's two loop seconds (the advance)
        books the first to ``"update_v"`` and the rest of the shard to
        ``phase``.  Raises :class:`PoolUnrecoverableError` once every
        shard of ``max_failure_streak`` consecutive dispatches has
        failed — at that point the pool is doing no useful work (each
        "retry" is the parent recomputing everything serially) and the
        caller should degrade to an in-process backend.
        """
        if self.unrecoverable:
            raise PoolUnrecoverableError(
                f"numpy-mp pool already declared unrecoverable after "
                f"{self._failure_streak} fully-failed dispatches"
            )
        done, failed = self.pool.run_shards(shards)
        instr = self.instrumentation
        if instr is not None:
            for (wid, _msg), (secs, loops) in done:
                if loops is not None:
                    instr.record_worker_phase(f"worker{wid}", "update_v", loops[0])
                    secs -= loops[0]
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
        return [out for _shard, (_secs, out) in done], failed

    def _run(self, phase, op, arrays, shard_args):
        """Run ``_OPS[op]`` on ``arrays`` (a tree of arena-owned
        arrays), one shard per ``(wid, args)``; shards whose worker
        failed are recomputed here by the same executor.  Returns the
        executors' results."""
        specs = _map_arrays(self.arena.spec_for, arrays)
        shards = [
            (wid, {"op": op, "arrays": specs, "args": args})
            for wid, args in shard_args
        ]
        results, failed = self._dispatch(phase, shards)
        for _wid, msg in failed:
            args = dict(msg["args"])
            if "body" in args:
                args["body"] = self.body
            if "ordering" in args:
                args["ordering"] = self.ordering
            results.append(_OPS[op](**arrays, **args))
        return results

    def _particle_shards(self, **args):
        """One ``(wid, args)`` per non-empty particle range."""
        return [
            (wid, {**args, "lo": sl.start, "hi": sl.stop})
            for wid, sl in enumerate(self.particle_ranges)
            if sl.stop > sl.start
        ]

    # ------------------------------------------------------------------
    # Phase drivers (called by MultiprocessBackend)
    # ------------------------------------------------------------------
    def is_front(self, particles=None, **columns) -> bool:
        """Whether ``particles`` is the stepper's live (front) storage,
        or every ``name=array`` of ``columns`` is its live column of
        that name; anything else runs the body's in-place kernel on the
        caller's arrays."""
        front = self._stepper.particles
        return particles is front or bool(columns) and all(
            key in front and front[key] is arr for key, arr in columns.items()
        )

    def _run_staged(self, phase, op, names, e_1d=None, **args):
        """Run ``op`` over the particle ranges with the columns
        ``names`` staged in the back buffer, then commit them."""
        front, back = self._stepper.particles, self.back
        arrays = {"front": dict(front), "back": {k: back[k] for k in names}}
        if e_1d is not None:
            arrays["e_1d"] = e_1d
        results = self._run(phase, op, arrays,
                            self._particle_shards(body=self.body.name, **args))
        front.flip(back, names)
        return results

    def update_v(self, e_1d, drive):
        names = [k for k in self._stepper.particles.keys() if k[0] == "v"]
        self._run_staged("update_v", "update_v", names, e_1d, drive=drive)

    def _push_args(self, extents, wrap):
        return {"extents": tuple(int(nc) for nc in extents),
                "ordering": self.ordering.spec,
                "wrap": wrap or wrap_for(extents)}

    def push(self, extents, scales, wrap):
        """The push; the wall writes the velocities too, so then they
        are staged as well."""
        args = self._push_args(extents, wrap)
        names = [k for k in self._stepper.particles.keys()
                 if k[0] != "v" or args["wrap"] == "reflect"]
        self._run_staged("update_x", "push", names,
                         scales=[float(sc) for sc in scales], **args)

    def advance(self, e_1d, extents, wrap, drive):
        """Both loops in one dispatch; the two loop seconds of the
        slowest shard."""
        results = self._run_staged(
            "update_x", "advance", list(self._stepper.particles.keys()), e_1d,
            drive=drive, **self._push_args(extents, wrap),
        )
        return max(results, key=sum)

    def accumulate(self, icell, offsets, charge):
        gs = self.grid_shared
        # a bincount is computed only on the steps the planner looks at
        # one, and the cut never moves mid-deposit (ranges adopted
        # before sharding)
        hist = None
        if self.planner.wants_histogram():
            hist = np.bincount(
                np.asarray(icell, dtype=np.int64), minlength=gs.nalloc
            )
        new_ranges = self.planner.maybe_repartition(hist)
        if new_ranges is not None:
            gs.set_cell_ranges(new_ranges)
        arrays = {"slab": gs.slab, "icell": icell, "offsets": list(offsets)}
        tasks = corner_tasks(gs.cell_ranges, gs.slab.shape[0], self.nworkers)
        self._run(
            "accumulate", "deposit", arrays,
            [(wid, {"body": self.body.name, "groups": groups,
                    "charge": float(charge)})
             for wid, groups in enumerate(tasks) if groups],
        )
        # the tasks tile the slab, so one copy is the whole reduction
        np.copyto(gs.rho_1d, gs.slab.T)

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
    """The split-loop kernels fanned out over shared-memory workers.

    Update-v, the push and the two as one pass (:meth:`advance`) over a
    prepared stepper's live particle storage, and the deposit into its
    ρ rows, are dispatched to the pool of the :class:`ShmEngine` that
    owns the arrays; its workers run the engine's body — the kernels
    ``"auto"`` resolves to, ``c``'s compiled loops wherever they build
    (the name is historical); the zoo's wall and drive travel in the
    shard messages.  The engine's other arrays — the gather and the
    kick (the t=0 half-kick), the ρ fold, the field broadcast, the
    kinetic energy's sum of squares, any loop over the back buffer —
    run that body in the parent, in place.  Arrays
    no engine owns, a deposit with ``corners=`` and the sort run the
    inherited :class:`NumpyBackend` kernels serially, with identical
    results.  Every stepper, 2D or 3D, gets the engine:
    each keeps redundant rows it can adopt and SoA columns it can
    share.  Deliberately the *lowest* priority so ``"auto"`` never picks
    it; multiprocessing is opt-in.
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
            "numpy-mp engine: %d workers running the %s kernels, task "
            "timeout %.1fs, %d shared segments", engine.nworkers,
            engine.body.name, engine.pool.timeout,
            len(engine.arena.segment_names),
        )

    def release_stepper(self, stepper) -> None:
        engine = self._engines.pop(id(stepper), None)
        if engine is not None:
            engine.close()

    def engine_for(self, stepper) -> ShmEngine | None:
        """The live engine prepared for ``stepper``, if any."""
        return self._engines.get(id(stepper))

    # -- the parent's kernels run on the engine's body
    def _body_for(self, *arrays):
        """The body of the engine owning ``arrays``; the inherited NumPy
        kernels for arrays no engine owns."""
        eng = _engine_owning(*arrays)
        return super() if eng is None else eng.body

    def interpolate_rows(self, e_1d, icell, offsets):
        return self._body_for(e_1d, icell, *offsets).interpolate_rows(
            e_1d, icell, offsets)

    def kick(self, vs, e_ps, coefs):
        self._body_for(*vs).kick(vs, e_ps, coefs)

    def reduce_rows(self, fields):
        return self._body_for(fields.rho_1d).reduce_rows(fields)

    def broadcast_rows(self, fields, components, scales):
        self._body_for(fields.e_1d).broadcast_rows(fields, components, scales)

    def sum_squares(self, columns, scales):
        return self._body_for(*columns).sum_squares(columns, scales)

    # -- the particle loops over the live storage go to the pool
    def update_v(self, vs, e_1d, icell, offsets, drive=None):
        eng = _engine_owning(e_1d, icell, *vs, *offsets)
        axes = "xyz"[: len(vs)]
        if eng is None or not (
            len(vs) == len(offsets) == eng.ndim
            and eng.is_front(icell=icell,
                             **{"v" + a: v for a, v in zip(axes, vs)},
                             **{"d" + a: d for a, d in zip(axes, offsets)})
        ):
            return self._body_for(*vs).update_v(vs, e_1d, icell, offsets, drive)
        eng.update_v(e_1d, drive)

    def push(self, particles, extents, ordering, scales, wrap=None):
        eng = _engine_owning(particles["icell"])
        if eng is None or not eng.is_front(particles) or ordering is not eng.ordering:
            return self._body_for(particles["icell"]).push(
                particles, extents, ordering, scales, wrap)
        eng.push(extents, scales, wrap)

    def advance(self, particles, e_1d, extents, ordering, wrap=None,
                drive=None):
        eng = _engine_owning(e_1d, particles["icell"])
        if eng is None or not eng.is_front(particles) or ordering is not eng.ordering:
            return self._body_for(particles["icell"]).advance(
                particles, e_1d, extents, ordering, wrap, drive)
        return eng.advance(e_1d, extents, wrap, drive)

    def accumulate_rows(self, rho_1d, icell, offsets, charge=1.0,
                        corners=None):
        eng = _engine_owning(rho_1d, icell, *offsets)
        if (
            eng is None
            or corners is not None
            or rho_1d is not eng.grid_shared.rho_1d
            or len(icell) != eng.n
        ):
            return super().accumulate_rows(rho_1d, icell, offsets, charge,
                                           corners)
        eng.accumulate(icell, offsets, charge)
