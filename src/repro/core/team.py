"""The thread team: §V's threads inside one process, over particle shards.

The paper's hybrid scheme splits each process's particle loops across
OpenMP threads.  Here a stepper on the ``c`` backend keeps a
persistent :class:`ThreadTeam` of ``config.workers`` threads (``None``:
the usable CPUs, :func:`usable_cpus`), each call running one shard of
the particle columns (:func:`shard_slices`) per thread.  The compiled
loops run through :mod:`ctypes`, which releases the GIL for the whole
call, so the shards' C loops overlap; the Python glue around them runs
one thread at a time.

Idle threads block on the pool's queue; nothing spins.  A team of one
(one usable CPU, ``workers=1``, or fewer than two blocks of particles)
starts no thread and runs everything on the caller.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

from repro.core import kernels

__all__ = ["ThreadTeam", "shard_slices", "usable_cpus"]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask (so
    ``taskset`` is honoured), else ``os.cpu_count()``, at least 1."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # no affinity call on this OS
        return os.cpu_count() or 1


def shard_slices(n: int, size: int) -> list[slice]:
    """``range(n)`` cut into ``min(size, ceil(n / kernels.BLOCK))``
    contiguous shards of nearly equal length, every cut on a multiple
    of 8 particles (a 64-byte boundary of every column)."""
    parts = max(1, min(size, -(-n // kernels.BLOCK)))
    step = -(-n // parts)
    step += -step % 8
    cuts = [min(k * step, n) for k in range(parts)] + [n]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def _wait_all(futures) -> None:
    """Wait until every future has finished, through an interrupt too: a
    signal handler's exception (Ctrl-C) is raised only once no thread
    is still writing, so an interrupted step leaves nothing running."""
    interrupt = None
    while True:
        try:
            wait(futures)
            break
        except BaseException as exc:  # re-raised below
            interrupt = interrupt or exc
    if interrupt is not None:
        raise interrupt


class ThreadTeam:
    """``size`` workers: the caller plus a pool of ``size - 1`` threads.

    :meth:`map` runs ``fn(items[0])`` on the caller and the other items
    on the pool, and returns the results in order once every item has
    finished; the first exception, if any, is raised only then.
    """

    def __init__(self, size: int):
        self.size = max(1, int(size))
        self._pool = ThreadPoolExecutor(max(1, self.size - 1),
                                        thread_name_prefix="repro-team")

    def map(self, fn, items) -> list:
        items = list(items)
        futures = []
        try:
            futures.extend(self._pool.submit(fn, x) for x in items[1:])
            first = fn(items[0])
        finally:
            _wait_all(futures)
        return [first] + [f.result() for f in futures]

    def close(self) -> None:
        """Stop and join the threads (idempotent)."""
        self._pool.shutdown()
