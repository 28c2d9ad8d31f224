"""Memory-bandwidth model: STREAM triad and channel saturation.

Implements the roofline argument the paper uses to explain its
thread-scaling knee (Fig. 8, Table VI): per-loop time on ``p`` threads
is ``max(compute(p), traffic / BW(p))`` where the achievable bandwidth
``BW(p)`` saturates once the socket's memory channels are full.

The saturation curve is the standard concave form
``BW(p) = min(p * bw_core, bw_peak)`` softened by a knee parameter so
the measured STREAM shape (x2 at 2 threads, x3.9 at 4, flat at 8 on
the 4-channel SandyBridge) is reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.machine import MachineSpec

__all__ = ["BandwidthModel", "stream_triad_time", "loop_bytes_per_particle"]

#: bytes moved per STREAM triad element: a[i] = b[i] + s*c[i] — two
#: reads, one write, plus the write-allocate fill of a[i]
_TRIAD_BYTES_PER_ELEM = 32


@dataclass(frozen=True)
class BandwidthModel:
    """Achievable socket bandwidth as a function of active threads."""

    machine: MachineSpec
    #: harmonic-softening of the min(): 1.0 = hard knee
    knee_sharpness: float = 8.0

    def bandwidth_gbs(self, nthreads: int) -> float:
        """Achievable GB/s with ``nthreads`` cores streaming.

        Soft-min of the linear ramp ``p * bw_core`` and the channel
        ceiling: ``(ramp^-k + peak^-k)^(-1/k)``.
        """
        if nthreads <= 0:
            raise ValueError("nthreads must be positive")
        m = self.machine
        ramp = nthreads * m.per_core_bandwidth_gbs
        peak = m.peak_bandwidth_gbs
        k = self.knee_sharpness
        return (ramp**-k + peak**-k) ** (-1.0 / k)

    def stream_speedup(self, nthreads: int) -> float:
        """STREAM triad speedup vs one thread (Fig. 8's x-annotations)."""
        return self.bandwidth_gbs(nthreads) / self.bandwidth_gbs(1)

    def memory_time(self, bytes_moved: float, nthreads: int) -> float:
        """Seconds to move ``bytes_moved`` with ``nthreads`` streaming."""
        return bytes_moved / (self.bandwidth_gbs(nthreads) * 1e9)


def stream_triad_time(n_elements: int, machine: MachineSpec, nthreads: int = 1) -> float:
    """Modeled seconds for one STREAM triad sweep of ``n_elements``."""
    model = BandwidthModel(machine)
    return model.memory_time(n_elements * _TRIAD_BYTES_PER_ELEM, nthreads)


def loop_bytes_per_particle(
    loop: str,
    particle_layout: str = "soa",
    store_coords: bool = True,
    field_layout: str = "redundant",
    miss_bytes_per_particle: float = 0.0,
) -> float:
    """DRAM traffic one particle generates in one pass of ``loop``.

    The streaming component: every particle attribute the loop touches
    is read once (and written once where updated), since the particle
    arrays are far larger than any cache.  AoS drags the whole record
    through the cache regardless of which attributes the loop needs —
    that is its bandwidth tax.  Field/charge traffic is dominated by
    cache-miss refills and is passed in via ``miss_bytes_per_particle``
    (64 bytes per simulated miss).
    """
    record = 8.0 * (7 if store_coords else 5)
    if loop == "update_x":
        # read+write of dx,dy,vx(r),vy(r? only read) — ld: dx,dy,vx,vy(,ix,iy,icell)
        touched_rw = 8.0 * (3 + (3 if store_coords else 1))  # stores
        touched_r = 8.0 * (5 + (2 if store_coords else 0))  # loads
    elif loop == "update_v":
        touched_rw = 8.0 * 2  # vx, vy
        touched_r = 8.0 * 5  # icell, dx, dy, vx, vy
    elif loop == "accumulate":
        touched_rw = 0.0
        touched_r = 8.0 * 3  # icell, dx, dy
    elif loop == "sort":
        touched_rw = record
        touched_r = record + 8.0
    else:
        raise ValueError(f"unknown loop {loop!r}")
    if particle_layout == "aos":
        # whole record streams through regardless of the touched subset
        streamed = 2.0 * record if touched_rw else record
    else:
        streamed = touched_r + touched_rw  # write-allocate ~ included
    return streamed + miss_bytes_per_particle
