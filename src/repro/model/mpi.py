"""In-process simulated MPI with real collective semantics.

``SimMPI(nranks).run(fn)`` executes ``fn(comm)`` once per rank, each on
its own Python thread, with :class:`SimComm` providing the MPI-flavored
operations the PIC code needs (``allreduce``, ``bcast``, ``barrier``,
``gather``, point-to-point ``send``/``recv``).  Data really flows
between ranks through shared numpy buffers, and reductions are summed
in rank order on every rank so results are deterministic and identical
everywhere — which is what lets the tests demand *bitwise* equality
between a distributed run and its serial counterpart.

Timing is separate: :class:`CollectiveCostModel` prices collectives
with a LogP-flavored tree model, used by :mod:`repro.model.scaling`
to produce the weak/strong scaling curves.  (On this substrate the
threads share one interpreter, so wall-clock timing of the simulated
ranks would measure the GIL, not Curie.)
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass

import numpy as np

__all__ = ["SimMPI", "SimComm", "CollectiveCostModel"]


class SimComm:
    """Communicator handle owned by one simulated rank."""

    def __init__(self, rank: int, size: int, shared: "_SharedState"):
        self.rank = rank
        self.size = size
        self._shared = shared

    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Block until every rank reaches the barrier."""
        self._shared.barrier.wait()

    def allreduce(self, array: np.ndarray) -> np.ndarray:
        """Sum ``array`` across ranks; every rank returns the same total.

        The sum is accumulated in ascending rank order on every rank,
        so the result is bitwise identical everywhere and equal to the
        serial left-to-right sum over ranks.
        """
        sh = self._shared
        sh.slots[self.rank] = np.asarray(array)
        sh.barrier.wait()
        total = np.array(sh.slots[0], dtype=np.float64, copy=True)
        for r in range(1, self.size):
            total += sh.slots[r]
        sh.barrier.wait()  # nobody overwrites slots until all have read
        return total

    def bcast(self, array: np.ndarray | None, root: int = 0) -> np.ndarray:
        """Broadcast ``array`` from ``root``; other ranks pass None."""
        sh = self._shared
        if self.rank == root:
            if array is None:
                raise ValueError("root must supply the array")
            sh.slots[root] = np.asarray(array)
        sh.barrier.wait()
        out = np.array(sh.slots[root], copy=True)
        sh.barrier.wait()
        return out

    def gather(self, value, root: int = 0):
        """Gather one python object per rank; root gets the list."""
        sh = self._shared
        sh.slots[self.rank] = value
        sh.barrier.wait()
        out = list(sh.slots) if self.rank == root else None
        sh.barrier.wait()
        return out

    def allgather(self, value) -> list:
        """Gather one object per rank onto every rank."""
        sh = self._shared
        sh.slots[self.rank] = value
        sh.barrier.wait()
        out = list(sh.slots)
        sh.barrier.wait()
        return out

    # ------------------------------------------------------------------
    def send(self, obj, dest: int, tag: int = 0) -> None:
        """Blocking-queue point-to-point send."""
        self._shared.channel(self.rank, dest, tag).put(obj)

    def recv(self, source: int, tag: int = 0, timeout: float | None = 30.0):
        """Receive from ``source``; raises ``queue.Empty`` on timeout."""
        return self._shared.channel(source, self.rank, tag).get(timeout=timeout)


class _SharedState:
    """Buffers shared by all ranks of one SimMPI world."""

    def __init__(self, size: int):
        self.barrier = threading.Barrier(size)
        self.slots: list = [None] * size
        self._channels: dict[tuple[int, int, int], queue.Queue] = {}
        self._chan_lock = threading.Lock()

    def channel(self, src: int, dst: int, tag: int) -> queue.Queue:
        key = (src, dst, tag)
        with self._chan_lock:
            if key not in self._channels:
                self._channels[key] = queue.Queue()
            return self._channels[key]


class SimMPI:
    """A simulated MPI world of ``nranks`` thread-backed ranks."""

    def __init__(self, nranks: int):
        if nranks <= 0:
            raise ValueError("nranks must be positive")
        self.nranks = nranks

    def run(self, fn, timeout: float = 600.0) -> list:
        """Execute ``fn(comm)`` on every rank; returns results by rank.

        Exceptions raised on any rank abort the others' barriers and
        are re-raised (first by rank order) in the caller.
        """
        shared = _SharedState(self.nranks)
        results: list = [None] * self.nranks
        errors: list = [None] * self.nranks

        def worker(rank: int):
            comm = SimComm(rank, self.nranks, shared)
            try:
                results[rank] = fn(comm)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors[rank] = exc
                shared.barrier.abort()

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"simmpi-rank-{r}")
            for r in range(self.nranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout)
        if any(t.is_alive() for t in threads):
            shared.barrier.abort()
            raise TimeoutError("simulated MPI ranks did not finish")
        # prefer the root-cause exception: aborted barriers on other
        # ranks are a consequence, not the failure itself
        for err in errors:
            if err is not None and not isinstance(err, threading.BrokenBarrierError):
                raise err
        for err in errors:
            if err is not None:
                raise err
        return results


@dataclass(frozen=True)
class CollectiveCostModel:
    """Timing of the charge-density allreduce at scale.

    ``T(P, n) = S*alpha + (n/BW)*S + skew * P**skew_exp``   (S = ceil(log2 P))

    The first two terms are the textbook binomial-tree latency and
    bandwidth costs.  They are *not* what dominates the paper's
    measured communication times: a 131 KB allreduce costing ~2 s at
    8192 ranks (Fig. 7: 56% of ~350 s over 100 iterations) is three
    orders of magnitude above wire time — it is synchronization skew
    (rank arrival jitter, OS noise, load imbalance charged to MPI).
    The ``skew * P**0.75`` term models that; its constants are
    calibrated on Fig. 7's two annotated anchors (hybrid P=512 -> ~28%
    comm, pure P=8192 -> ~56% comm).  This is why running one rank per
    socket (hybrid, 16x fewer ranks per core count) beats pure MPI.
    """

    latency_s: float = 3e-6
    bandwidth_gbs: float = 3.0
    #: fraction of the per-iteration compute time that reappears as
    #: arrival skew at the collective, per unit of P**skew_exp
    imbalance_coeff: float = 0.0093
    skew_exp: float = 0.6

    def allreduce_seconds(
        self, nranks: int, nbytes: int, compute_iter_seconds: float = 0.0
    ) -> float:
        """Cost of one allreduce.

        ``compute_iter_seconds`` is the per-iteration compute time of
        one rank — the skew term scales with it because what the
        waiting ranks absorb is the *spread* of the others' compute
        (this is why the paper's Fig. 9 strong-scaling comm time per
        call shrinks as ranks get fewer particles, while Fig. 7's
        weak-scaling comm per call keeps growing).
        """
        if nranks <= 1:
            return 0.0
        stages = math.ceil(math.log2(nranks))
        bw_term = nbytes / (self.bandwidth_gbs * 1e9)
        return (
            stages * self.latency_s
            + bw_term * stages
            + self.imbalance_coeff * compute_iter_seconds * nranks**self.skew_exp
        )
