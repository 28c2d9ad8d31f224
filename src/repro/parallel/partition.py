"""Ownership of the parallel deposit: corner columns, then cell ranges.

Every column ``rho_1d[:, c]`` of the redundant ``rho_1d[ncell][ncorner]``
array is an independent reduction (Vincenti et al., arXiv 1601.02056,
make the same observation for their vertex-structured ρ), so the
§V-B deposit's first unit of ownership is the **corner**: a worker that
owns a column computes that corner's weight for every particle and
folds it with one whole-population ``np.bincount`` — no particle
selection, and a load that is equal whatever the plasma does.  Up to
``ncorner`` workers that is the whole scheme.

Beyond ``ncorner`` workers each column is also cut into contiguous
*cell ranges*; since ``icell`` **is** the index along the active
space-filling curve, every range is a contiguous curve segment — a
compact spatial region under Morton/Hilbert orderings.  What an
equal-cell split ignores is the particle *histogram*: once an
instability clumps the plasma, one range can hold most of the
particles.  Walker & Skjellum (arXiv 2307.07828) make exactly this
point for SFC-segment partitioning: the curve supplies locality, the
weights must supply balance.

So there is one cut rule: :func:`partition_cells` places the cuts from
the per-cell particle histogram so every range holds ~equal
*particles* (prefix-sum + searchsorted along the curve).  Without a
histogram — or on an empty one — it degenerates to equal cell counts,
which is also what the balanced cut converges to on a uniform plasma.
:func:`partition_range` is that equal-count split on its own, used for
the particle ranges of gather/kick/push.  :func:`corner_tasks` deals
the ``(cell range, corner)`` tasks to the workers.

Every partition is a list of disjoint contiguous ranges covering
``[0, nalloc)`` with any empty ranges trailing — the invariant the
bitwise promise of the deposit rests on (each ``rho`` element has
exactly one owner, each owner folds its particles in global particle
order).  :class:`PartitionPlanner` adds cheap every-K-step
repartitioning with hysteresis: ranges move only when the measured
load imbalance exceeds a threshold, so a quiescent plasma never pays
repartition churn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "partition_range",
    "partition_cells",
    "corner_tasks",
    "balance_ratio",
    "PartitionPlanner",
]


def partition_range(n: int, nparts: int) -> list[slice]:
    """Static equal-count partition of ``range(n)`` into ``nparts``.

    Chunk sizes differ by at most one (the first ``n % nparts`` chunks
    take the extra element).  For ``nparts > n`` the first ``n`` slices
    hold one element each and the empty slices all *trail* — they are
    never interleaved with non-empty ones, so a worker id below the
    element count always has work.  Deterministic — a pure function
    of ``(n, nparts)`` with no shared state, safe to call from any
    thread or process.
    """
    if nparts <= 0:
        raise ValueError("nparts must be positive")
    base, rem = divmod(int(n), int(nparts))
    out, lo = [], 0
    for t in range(nparts):
        hi = lo + base + (1 if t < rem else 0)
        out.append(slice(lo, hi))
        lo = hi
    return out


def _balanced_cuts(n: int, nparts: int, histogram: np.ndarray) -> np.ndarray | None:
    """Histogram-weighted boundaries (``None`` for an empty histogram)."""
    hist = np.asarray(histogram, dtype=np.int64)
    if hist.shape[0] < n:
        hist = np.concatenate([hist, np.zeros(n - hist.shape[0], np.int64)])
    prefix = np.cumsum(hist[:n])
    total = int(prefix[-1]) if n else 0
    if total <= 0:
        return None
    targets = (total * np.arange(1, nparts, dtype=np.float64)) / nparts
    interior = np.searchsorted(prefix, targets, side="left") + 1
    bounds = np.empty(nparts + 1, dtype=np.int64)
    bounds[0] = 0
    bounds[1:-1] = interior
    bounds[-1] = n
    # repair: boundaries non-decreasing, and no empty range before a
    # non-empty one (give each earlier worker at least one cell while
    # cells remain) — keeps empties trailing-only like the flat split
    for j in range(1, nparts):
        lo = min(bounds[j - 1] + 1, n)
        bounds[j] = min(max(bounds[j], lo), n)
    return bounds


def partition_cells(nalloc: int, nparts: int, histogram=None) -> list[slice]:
    """Cut ``[0, nalloc)`` cell rows into ``nparts`` contiguous ranges.

    With a per-cell particle ``histogram`` the cuts give every range
    ~equal *particles*; without one (or when it is empty) they give
    equal cell counts (:func:`partition_range`).

    Either way the result is disjoint contiguous slices that cover
    ``[0, nalloc)`` exactly, with any empty slices trailing (never
    interleaved), and is deterministic — the same inputs always
    produce the identical partition, so runs are reproducible.
    Because ``rho_1d`` rows are already in curve order, *any* such
    partition preserves the deposit's bitwise
    equivalence to the serial deposit: the cuts move work between
    workers, never change what is summed into a row or in which
    order.  Thread-safety: pure function of its arguments (no shared
    state), safe to call concurrently from any thread or process.
    """
    if nparts <= 0:
        raise ValueError("nparts must be positive")
    if nalloc < 0:
        raise ValueError("nalloc must be >= 0")
    if histogram is not None:
        bounds = _balanced_cuts(nalloc, nparts, histogram)
        if bounds is not None:
            return [
                slice(int(bounds[t]), int(bounds[t + 1])) for t in range(nparts)
            ]
    return partition_range(nalloc, nparts)


def corner_tasks(cell_ranges, ncorner: int, nparts: int) -> list[list[tuple]]:
    """Deal the deposit's ``(cell range, corner)`` tasks round-robin.

    Returns, per worker, its ``(cell_lo, cell_hi, corners)`` groups —
    the corners it owns of each non-empty range.  With one range and
    ``nparts`` dividing ``ncorner`` every worker gets the same number
    of whole columns, i.e. the same work at any particle density.
    Every task is dealt to exactly one worker, so each ``rho`` element
    keeps a single owner and the deposit stays bitwise-identical to
    the serial one however the deal falls.  Deterministic and pure
    (no shared state): safe to call from any thread or process.
    """
    owned: list[dict] = [{} for _ in range(nparts)]
    tasks = (
        (cr.start, cr.stop, c)
        for cr in cell_ranges if cr.stop > cr.start
        for c in range(ncorner)
    )
    for k, (lo, hi, c) in enumerate(tasks):
        owned[k % nparts].setdefault((lo, hi), []).append(c)
    return [[(lo, hi, cs) for (lo, hi), cs in g.items()] for g in owned]


def balance_ratio(ranges, histogram) -> float:
    """Max/mean particle load over the partition (1.0 = perfect).

    ``ranges`` are the slices of :func:`partition_cells`, ``histogram``
    the per-cell particle counts; the load of a range is the particle
    total of its cells, the mean divides by *all* ranges (idle workers
    count — they are the imbalance).  Returns 1.0 for an empty
    histogram.  Deterministic and side-effect free (a pure reduction
    over its arguments), so it is safe under concurrent calls from any
    thread or process and equivalent wherever it is evaluated.
    """
    hist = np.asarray(histogram, dtype=np.float64)
    prefix = np.concatenate([[0.0], np.cumsum(hist)])
    total = float(prefix[-1])
    if total <= 0 or not len(ranges):
        return 1.0
    loads = [
        float(prefix[min(sl.stop, len(hist))] - prefix[min(sl.start, len(hist))])
        for sl in ranges
    ]
    return max(loads) / (total / len(ranges))


@dataclass
class PartitionPlanner:
    """Every-K-step, hysteresis-guarded repartitioning policy.

    Owns the current partition of ``nalloc`` cell rows into ``nparts``
    ranges and decides, from the per-cell particle histogram the
    deposit path already has, when to move the cuts:

    * only every ``repartition_every`` deposit calls (0 freezes the
      initial partition);
    * only when the *measured* imbalance of the current partition
      exceeds ``rebalance_threshold`` (max/mean particle load) — the
      hysteresis guard that keeps a well-balanced run from paying
      repartition churn for noise.

    Every adopted repartition is appended to :attr:`events` (step
    counter, old/new balance ratio) — the decision trail a test or an
    operator reads off the engine.  Not thread-safe itself (one planner per
    engine, driven from the parent process only); the partitions it
    emits are what make the worker-side deposit race-free.
    """

    nalloc: int
    nparts: int
    repartition_every: int = 10
    rebalance_threshold: float = 1.5
    current: list = field(default_factory=list)
    events: list = field(default_factory=list)
    calls: int = field(default=0)

    def __post_init__(self):
        if self.repartition_every < 0:
            raise ValueError("repartition_every must be >= 0")
        if self.rebalance_threshold < 1.0:
            raise ValueError("rebalance_threshold must be >= 1.0")

    # ------------------------------------------------------------------
    def initial(self, histogram=None) -> list[slice]:
        """Compute and adopt the starting partition (histogram optional)."""
        self.current = partition_cells(self.nalloc, self.nparts, histogram)
        return self.current

    def wants_histogram(self) -> bool:
        """Whether the *next* :meth:`maybe_repartition` call will look
        at a histogram (lets the caller skip the bincount entirely on
        off-steps)."""
        if self.repartition_every <= 0 or self.nparts < 2:
            return False  # a single range has no cut to move
        return (self.calls + 1) % self.repartition_every == 0

    def maybe_repartition(self, histogram=None) -> list[slice] | None:
        """One deposit call: repartition if due and worthwhile.

        Returns the new ranges when the partition moved, else ``None``
        (the caller keeps using :attr:`current` either way).
        """
        self.calls += 1
        if (
            self.repartition_every <= 0
            or histogram is None
            or self.calls % self.repartition_every != 0
        ):
            return None
        before = balance_ratio(self.current, histogram)
        if before <= self.rebalance_threshold:
            return None
        candidate = partition_cells(self.nalloc, self.nparts, histogram)
        after = balance_ratio(candidate, histogram)
        if after >= before:
            return None
        self.current = candidate
        self.events.append(
            {
                "call": self.calls,
                "balance_before": before,
                "balance_after": after,
            }
        )
        return candidate
