"""Memory-address trace generators for the PIC loops.

Turns the *actual* particle state of a simulation into the byte-address
stream each loop variant would issue, which the cache simulator then
replays.  This is the bridge that makes the cache-miss experiments
honest: the access pattern (which field/charge cells get touched in
which order) comes from real particle dynamics under the chosen cell
ordering, not from a synthetic distribution.

Address map
-----------
Every array gets its own base address, 4 MiB apart, 4 KiB aligned —
far enough that distinct arrays never share a line, close enough that
set indices stay well distributed.  Doubles and int64 are 8 bytes.

Per-particle access sets (one address per touched attribute or row;
loads and read-modify-writes of the same location count once, since
the second touch of a line in the same instant always hits):

=================  ====================================================
update-velocities  icell(+ix,iy for the standard layout), dx, dy read;
                   field read — redundant: the cell's 64-byte row;
                   standard: 4 corner points in each of Ex and Ey;
                   vx, vy read-modify-write
update-positions   dx, dy, vx, vy, icell (+ix, iy if stored) — purely
                   sequential
accumulate         icell, dx, dy read; charge write — redundant: the
                   cell's 32-byte row; standard: 4 corner points
=================  ====================================================

The fused (single-loop) variant interleaves all three sets per
particle, which is what makes its working set larger — the effect the
paper's loop-splitting optimization removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.particles.storage import ParticleStorage

__all__ = [
    "MemoryLayoutMap",
    "trace_update_velocities",
    "trace_update_positions",
    "trace_accumulate",
    "trace_fused_loop",
]

_ARRAY_SPACING = 4 * 1024 * 1024  # bytes between array bases
_E_ROW_BYTES = 64  # 8 doubles per redundant field row
_RHO_ROW_BYTES = 32  # 4 doubles per redundant charge row
_SOA_ATTRS = ("icell", "dx", "dy", "vx", "vy", "ix", "iy")


@dataclass
class MemoryLayoutMap:
    """Base addresses of every array of one simulation configuration.

    Parameters
    ----------
    n_particles:
        Population size (bounds the particle arrays).
    particle_layout, store_coords:
        Shape of the particle storage.
    field_layout:
        ``"redundant"`` or ``"standard"``.
    ncells_allocated:
        Length of the redundant arrays (ordering-dependent padding
        included) — or ``ncx*ncy`` for the standard layout.
    """

    n_particles: int
    particle_layout: str = "soa"
    store_coords: bool = True
    field_layout: str = "redundant"
    ncells_allocated: int = 0
    ncx: int = 0
    ncy: int = 0
    _bases: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        cursor = 1 << 24  # leave page zero free
        def place(name: str, nbytes: int):
            nonlocal cursor
            self._bases[name] = cursor
            cursor += max(int(nbytes), 0) + _ARRAY_SPACING
            cursor = (cursor + 4095) & ~4095

        n = self.n_particles
        if self.particle_layout == "soa":
            attrs = _SOA_ATTRS if self.store_coords else _SOA_ATTRS[:5]
            for a in attrs:
                place(f"p_{a}", 8 * n)
        else:
            self.record_bytes = 8 * (7 if self.store_coords else 5)
            place("p_aos", self.record_bytes * n)
        if self.field_layout == "redundant":
            place("e_1d", _E_ROW_BYTES * self.ncells_allocated)
            place("rho_1d", _RHO_ROW_BYTES * self.ncells_allocated)
        else:
            ncells = self.ncx * self.ncy
            place("ex", 8 * ncells)
            place("ey", 8 * ncells)
            place("rho", 8 * ncells)

    @classmethod
    def for_config(cls, config, ordering, n_particles: int) -> "MemoryLayoutMap":
        """Build the map matching a ModelConfig + ordering."""
        return cls(
            n_particles=n_particles,
            particle_layout=config.particle_layout,
            store_coords=config.effective_store_coords,
            field_layout=config.field_layout,
            ncells_allocated=ordering.ncells_allocated,
            ncx=ordering.ncx,
            ncy=ordering.ncy,
        )

    # ------------------------------------------------------------------
    def particle_attr_addrs(self, attr: str, idx: np.ndarray) -> np.ndarray:
        """Byte addresses of attribute ``attr`` for particle indices ``idx``."""
        if self.particle_layout == "soa":
            return self._bases[f"p_{attr}"] + 8 * idx
        attrs = _SOA_ATTRS if self.store_coords else _SOA_ATTRS[:5]
        off = 8 * attrs.index(attr)
        return self._bases["p_aos"] + self.record_bytes * idx + off

    def e_row_addrs(self, icell: np.ndarray) -> np.ndarray:
        return self._bases["e_1d"] + _E_ROW_BYTES * np.asarray(icell, dtype=np.int64)

    def rho_row_addrs(self, icell: np.ndarray) -> np.ndarray:
        return self._bases["rho_1d"] + _RHO_ROW_BYTES * np.asarray(icell, dtype=np.int64)

    def grid_point_addrs(self, name: str, ix, iy) -> np.ndarray:
        """Addresses in a standard ``(ncx, ncy)`` row-major array."""
        return self._bases[name] + 8 * (
            np.asarray(ix, dtype=np.int64) * self.ncy + np.asarray(iy, dtype=np.int64)
        )


def _particle_cols(mmap: MemoryLayoutMap, idx: np.ndarray, attrs) -> list[np.ndarray]:
    return [mmap.particle_attr_addrs(a, idx) for a in attrs]


def _coords_of(particles: ParticleStorage, ordering):
    if particles.store_coords:
        return np.asarray(particles.ix), np.asarray(particles.iy)
    return ordering.decode(np.asarray(particles.icell))


def _standard_corner_cols(mmap, arrays, ix, iy) -> list[np.ndarray]:
    ixp = (ix + 1) % mmap.ncx
    iyp = (iy + 1) % mmap.ncy
    cols = []
    for name in arrays:
        for jx, jy in ((ix, iy), (ix, iyp), (ixp, iy), (ixp, iyp)):
            cols.append(mmap.grid_point_addrs(name, jx, jy))
    return cols


def _interleave(cols: list[np.ndarray]) -> np.ndarray:
    """Stack per-particle columns and flatten in particle order."""
    return np.column_stack(cols).ravel()


def trace_update_velocities(
    particles: ParticleStorage, mmap: MemoryLayoutMap, ordering=None
) -> np.ndarray:
    """Addresses issued by one update-velocities pass."""
    idx = np.arange(particles.n, dtype=np.int64)
    cols = _particle_cols(mmap, idx, ("icell", "dx", "dy"))
    if mmap.field_layout == "redundant":
        cols.append(mmap.e_row_addrs(particles.icell))
    else:
        ix, iy = _coords_of(particles, ordering)
        cols += _standard_corner_cols(mmap, ("ex", "ey"), ix, iy)
    cols += _particle_cols(mmap, idx, ("vx", "vy"))
    return _interleave(cols)


def trace_update_positions(
    particles: ParticleStorage, mmap: MemoryLayoutMap, ordering=None
) -> np.ndarray:
    """Addresses issued by one update-positions pass (sequential only)."""
    idx = np.arange(particles.n, dtype=np.int64)
    attrs = ["dx", "dy", "vx", "vy", "icell"]
    if mmap.store_coords:
        attrs += ["ix", "iy"]
    return _interleave(_particle_cols(mmap, idx, attrs))


def trace_accumulate(
    particles: ParticleStorage, mmap: MemoryLayoutMap, ordering=None
) -> np.ndarray:
    """Addresses issued by one accumulate pass."""
    idx = np.arange(particles.n, dtype=np.int64)
    cols = _particle_cols(mmap, idx, ("icell", "dx", "dy"))
    if mmap.field_layout == "redundant":
        cols.append(mmap.rho_row_addrs(particles.icell))
    else:
        ix, iy = _coords_of(particles, ordering)
        cols += _standard_corner_cols(mmap, ("rho",), ix, iy)
    return _interleave(cols)


def trace_fused_loop(
    particles: ParticleStorage, mmap: MemoryLayoutMap, ordering=None
) -> np.ndarray:
    """Addresses of the single fused loop: all three access sets per particle.

    (The accumulate half strictly uses post-push cell indices; using the
    current ones keeps the generator state-free and changes at most the
    ~10% of particles that switch cells that step, uniformly across
    layouts.)
    """
    idx = np.arange(particles.n, dtype=np.int64)
    cols = _particle_cols(mmap, idx, ("icell", "dx", "dy"))
    if mmap.field_layout == "redundant":
        cols.append(mmap.e_row_addrs(particles.icell))
    else:
        ix, iy = _coords_of(particles, ordering)
        cols += _standard_corner_cols(mmap, ("ex", "ey"), ix, iy)
    cols += _particle_cols(mmap, idx, ("vx", "vy"))
    if mmap.store_coords:
        cols += _particle_cols(mmap, idx, ("ix", "iy"))
    if mmap.field_layout == "redundant":
        cols.append(mmap.rho_row_addrs(particles.icell))
    else:
        cols += _standard_corner_cols(mmap, ("rho",), ix, iy)
    return _interleave(cols)
