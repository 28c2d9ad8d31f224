"""The host-speed reference: a fixed kernel timed beside everything the
ledger times, so that a duration can be reported at a fixed host speed.

Why.  The hosts this benchmark runs on are small shared VMs, and how
fast such a host runs *any* code drifts by 30-50% over minutes (a
neighbour on the same core or memory channel).  Ten minutes of
``dense2d`` steps cut into 12-second windows: the median step of a
window has a quartile distance of 16% and a range of 47% of its median,
and its 5th percentile is no better (11%, 40%), because a slow phase
outlasts a window.  The same windows, each step divided by the time the
kernel below took just before and just after it: 1.7% and 8%.  The
other workloads agree (``dense3d`` 14% -> 1.2%, ``dense2d_mp2`` 6% ->
1.5%, ``sparse2d`` 13% -> 5%, a bare serve job 10% -> 4%).  The drift
is common to all code, so a ratio to fixed code cancels it; no
statistic of the raw times can.

What.  One call of :meth:`Reference.sample` gathers four grid values
per particle, interpolates, kicks, pushes and deposits with
``numpy.bincount`` — the memory behaviour of a PIC step, which a
cache-resident arithmetic loop tracks only half as well — over 250,000
particles and 128x128 cells, about 10 ms.  The arrays come from a fixed
seed and the code never changes, so its time moves with the host only.

How it is used.  A measured duration ``t`` bracketed by reference
samples ``r0`` and ``r1`` is reported as ``t * NOMINAL_S / mean(r0,
r1)``: seconds *at nominal host speed*, where the nominal host is by
definition one that runs the kernel in :data:`NOMINAL_S`.  The raw wall
times and the host's speed during the run are stored beside every
corrected number.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: seconds one reference sample takes on the nominal host — the quiet
#: 2-core sizing VM, rounded; fixed so corrected times keep their unit
NOMINAL_S = 0.010

_PARTICLES = 250_000
_CELLS = 128 * 128


class Reference:
    """The kernel, its arrays, and every sample taken so far."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._cell = np.sort(rng.integers(0, _CELLS, _PARTICLES))
        self._offset = rng.random(_PARTICLES)
        self._velocity = rng.random(_PARTICLES)
        self._grid = rng.random((_CELLS, 4))
        #: seconds of every sample taken so far
        self.samples: list[float] = []
        for _ in range(3):  # first-touch page faults, allocator warm-up
            self._kernel()

    def _kernel(self) -> float:
        cell, x = self._cell, self._offset
        corners = self._grid[cell]
        field = (corners[:, 0] * (1 - x) + corners[:, 1] * x
                 + corners[:, 2] * (1 - x) + corners[:, 3] * x)
        moved = x + 0.1 * (self._velocity + 0.1 * field)
        hop = np.floor(moved)
        rho = np.bincount((cell + hop.astype(np.int64)) % _CELLS,
                          weights=moved - hop, minlength=_CELLS)
        return float(rho[0])

    def sample(self, warmup: int = 0) -> float:
        """Run the kernel once (after ``warmup`` untimed calls); its
        wall seconds.  A process that has been asleep — the load
        generator between polls — warms up twice: the first calls after
        a sleep pay for a cold core, not for the host's speed."""
        for _ in range(warmup):
            self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def settled_sample(self) -> float:
        """Median of eleven warmed-up samples (about 0.15 s), for a
        duration that rests on two samples only, where one sample's
        jitter (10% and more in a process that just woke) would show."""
        return statistics.median(
            [self.sample(warmup=2)] + [self.sample() for _ in range(10)])

    def host_speed(self) -> float:
        """Median speed of the host over all samples, 1.0 = nominal."""
        return NOMINAL_S / statistics.median(self.samples)


def factor(*ref_seconds: float) -> float:
    """What to multiply a wall duration by, given the reference samples
    that bracket it."""
    return NOMINAL_S / statistics.fmean(ref_seconds)
