"""Multi-level set-associative LRU cache simulator.

Substitute for the paper's perf/PAPI hardware counters: the simulator
replays the exact byte-address stream a loop generates (from
:mod:`repro.model.trace`) through an inclusive L1/L2/L3 hierarchy and
counts per-level misses — the quantity Figs. 5/6 and Table II report.

The model is classical: physical-indexed, true-LRU, allocate-on-miss
at every level, plus a next-line stream-prefetcher model (optional,
on by default).  The prefetcher matters for fidelity: the PIC loops
stream the particle arrays sequentially, and on real hardware those
streams are absorbed by the L2 prefetchers — the paper's L1 counters
see ~1.9 misses/particle of raw stream while its L2/L3 counters are
dominated by the irregular field/charge accesses the orderings
change.  A finite-bandwidth contention term couples irregular traffic
to dropped streams, which is what gives the L3 counters their
ordering-dependence (the field arrays fit the paper's 25 MiB L3
outright, so its measured L3 misses cannot be field capacity misses).

The per-access loop is pure Python (an LRU stack is inherently
sequential), written against small per-set lists whose operations run
in C; hit paths cost a few hundred ns.  Benchmarks size their traces
accordingly and say so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.machine import CacheLevelSpec, MachineSpec

__all__ = ["CacheLevel", "CacheHierarchy", "CacheSimResult"]


class CacheLevel:
    """One set-associative LRU level, addressed by line number."""

    def __init__(self, spec: CacheLevelSpec):
        self.spec = spec
        self.n_sets = spec.n_sets
        self.assoc = spec.associativity
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self.accesses = 0
        self.misses = 0

    def reset_counters(self) -> None:
        self.accesses = 0
        self.misses = 0

    def flush(self) -> None:
        """Empty the cache (cold restart) and reset counters."""
        self._sets = [[] for _ in range(self.n_sets)]
        self.reset_counters()

    def access(self, line: int) -> bool:
        """Touch one line; returns True on hit.  MRU goes to position 0."""
        self.accesses += 1
        s = self._sets[line % self.n_sets]
        try:
            s.remove(line)
        except ValueError:
            self.misses += 1
            s.insert(0, line)
            if len(s) > self.assoc:
                s.pop()
            return False
        s.insert(0, line)
        return True

    def install(self, line: int) -> None:
        """Bring a line in without counting (prefetch fill)."""
        s = self._sets[line % self.n_sets]
        try:
            s.remove(line)
        except ValueError:
            if len(s) >= self.assoc:
                s.pop()
        s.insert(0, line)

    def contains(self, line: int) -> bool:
        """Non-mutating lookup (testing helper)."""
        return line in self._sets[line % self.n_sets]

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class CacheSimResult:
    """Per-level access/miss counts of one simulated trace."""

    level_names: tuple[str, ...]
    accesses: tuple[int, ...]
    misses: tuple[int, ...]

    def misses_by_name(self) -> dict[str, int]:
        return dict(zip(self.level_names, self.misses))

    def __add__(self, other: "CacheSimResult") -> "CacheSimResult":
        if self.level_names != other.level_names:
            raise ValueError("mismatched hierarchies")
        return CacheSimResult(
            self.level_names,
            tuple(a + b for a, b in zip(self.accesses, other.accesses)),
            tuple(a + b for a, b in zip(self.misses, other.misses)),
        )


class CacheHierarchy:
    """An inclusive stack of :class:`CacheLevel` driven by byte addresses.

    Every access touches L1; an L1 miss touches L2; and so on.  State
    persists across :meth:`simulate` calls so a time series (misses per
    PIC iteration, Figs. 5/6) is produced by feeding one iteration's
    trace at a time and reading the per-call result.
    """

    def __init__(
        self,
        machine_or_levels: MachineSpec | tuple[CacheLevelSpec, ...],
        prefetch: bool = True,
        max_streams: int = 64,
        prefetch_contention: int = 2,
    ):
        if isinstance(machine_or_levels, MachineSpec):
            specs = machine_or_levels.levels
        else:
            specs = tuple(machine_or_levels)
        if not specs:
            raise ValueError("need at least one level")
        self.levels = [CacheLevel(s) for s in specs]
        self._line_shift = int(specs[0].line_bytes).bit_length() - 1
        #: hardware-prefetcher model: a next-line stream detector.  Two
        #: consecutive-line demand misses establish a stream; further
        #: accesses on the stream fill L2+ without counting as misses
        #: there (L1 counts stay raw — matching how the paper's L1
        #: counters still see the particle-array stream while its L2/L3
        #: counts are dominated by the irregular field accesses).
        self.prefetch = bool(prefetch)
        self._max_streams = int(max_streams)
        #: finite prefetch bandwidth: every Nth irregular last-level miss
        #: drops one tracked stream (the memory controller served the
        #: demand miss instead of the prefetch), costing that stream two
        #: demand misses to re-train.  This couples irregular-access
        #: volume to stream-residual misses — the paper's L3 counters
        #: are dominated by exactly this coupling (its field arrays fit
        #: L3 outright).  0 disables the contention model.
        self._contention = int(prefetch_contention)
        self._contention_count = 0
        self._expected: dict[int, None] = {}  # predicted next lines (LRU dict)
        self._recent_miss: dict[int, None] = {}  # recent demand-miss lines

    @property
    def level_names(self) -> tuple[str, ...]:
        return tuple(lv.spec.name for lv in self.levels)

    def flush(self) -> None:
        for lv in self.levels:
            lv.flush()
        self._expected.clear()
        self._recent_miss.clear()

    def simulate(self, addresses: np.ndarray) -> CacheSimResult:
        """Replay a byte-address trace; returns counts for *this call only*.

        The cache contents persist (warm) across calls; use
        :meth:`flush` for a cold start.
        """
        lines = (np.asarray(addresses, dtype=np.int64) >> self._line_shift).tolist()
        levels = self.levels
        before_acc = [lv.accesses for lv in levels]
        before_miss = [lv.misses for lv in levels]
        nlev = len(levels)
        if not self.prefetch:
            # Tight loop: walk down the hierarchy until a level hits.
            for line in lines:
                for li in range(nlev):
                    if levels[li].access(line):
                        break
            return CacheSimResult(
                self.level_names,
                tuple(lv.accesses - b for lv, b in zip(levels, before_acc)),
                tuple(lv.misses - b for lv, b in zip(levels, before_miss)),
            )
        expected = self._expected
        recent = self._recent_miss
        max_streams = self._max_streams
        l1 = levels[0]
        for line in lines:
            if line in expected:
                # stream hit: the prefetcher already pulled this line
                # into L2+; only L1 records its (possible) miss
                del expected[line]
                expected[line + 1] = None
                if not l1.access(line):
                    for li in range(1, nlev):
                        levels[li].install(line)
                continue
            hit_level = nlev
            for li in range(nlev):
                if levels[li].access(line):
                    hit_level = li
                    break
            if hit_level >= 1:  # a demand miss below L1: train the detector
                if line - 1 in recent:
                    expected[line + 1] = None
                    if len(expected) > max_streams:
                        expected.pop(next(iter(expected)))
                recent[line] = None
                if len(recent) > max_streams:
                    recent.pop(next(iter(recent)))
                # any irregular access reaching the last level competes
                # with in-flight stream prefetches for its bandwidth
                if hit_level >= nlev - 1 and self._contention and expected:
                    self._contention_count += 1
                    if self._contention_count >= self._contention:
                        self._contention_count = 0
                        expected.pop(next(iter(expected)))
        return CacheSimResult(
            self.level_names,
            tuple(lv.accesses - b for lv, b in zip(levels, before_acc)),
            tuple(lv.misses - b for lv, b in zip(levels, before_miss)),
        )

    def simulate_series(self, traces) -> list[CacheSimResult]:
        """Replay an iterable of traces warm, one result per trace."""
        return [self.simulate(t) for t in traces]
