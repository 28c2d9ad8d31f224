"""Non-periodic boundary conditions — the paper's §VI outlook.

The conclusion plans to "adapt our vectorization techniques when
dealing with other boundary conditions like reflecting or escaping
particles".  This module does that adaptation: branchless, vectorized
position updates for

* **reflecting** walls — a particle crossing a wall bounces back
  elastically (position mirrored, normal velocity negated), and
* **absorbing** walls — a crossing particle is removed from the
  population (marked dead and compacted).

The same design rules as §IV-C apply: no data-dependent branches in
the hot loop.  Reflection uses the *triangle-wave fold*: the infinite
mirrored extension of ``[0, L]`` is periodic with period ``2L``, so

    x_f = L - |mod(x, 2L) - L|

folds any float into ``[0, L]`` with pure arithmetic, and the sign of
``mod(x, 2L) - L`` tells whether the velocity flips — all expressible
as vector ops (and, on the paper's machines, auto-vectorizable).
Absorption is a vectorized mask + stream compaction, the standard SIMD
treatment of escaping particles.
"""

from __future__ import annotations

import numpy as np

from repro.particles.storage import ParticleSoA, ParticleStorage

__all__ = [
    "reflect_axis",
    "push_positions_reflecting",
    "absorb_axis_mask",
    "push_positions_absorbing",
    "compact_particles",
]


def reflect_axis(x: np.ndarray, nc: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold positions into ``[0, nc]`` with mirror reflection, branchlessly.

    Returns ``(i, offset, flip)`` where ``flip`` is +1/-1 — the factor
    the velocity component picks up (odd numbers of wall bounces negate
    it).  Works for particles any number of box widths outside.
    """
    x = np.asarray(x, dtype=np.float64)
    two_l = 2.0 * nc
    m = np.mod(x, two_l)  # into the 2L mirror period
    over = m - nc
    folded = nc - np.abs(over)
    # velocity flips when the fold used the descending branch of the
    # triangle wave (m > L), i.e. after an odd number of bounces
    flip = np.where(over > 0.0, -1.0, 1.0)
    fx = np.floor(folded)
    i = fx.astype(np.int64)
    # folded == nc exactly (a particle parked on the far wall): put it
    # in the last cell with offset 1
    hit = i >= nc
    i = np.where(hit, nc - 1, i)
    off = np.where(hit, 1.0, folded - fx)
    return i, off, flip


def push_positions_reflecting(particles: ParticleStorage, ncx, ncy, ordering,
                              scale_x=1.0, scale_y=1.0) -> None:
    """Position update with reflecting walls on all four sides.

    Drop-in alternative to the periodic kernels of
    :mod:`repro.core.kernels`: advances, folds, flips the velocity
    components of bounced particles, and re-derives the cell indices —
    all with whole-array operations.
    """
    if particles.store_coords:
        ix_old, iy_old = particles.ix, particles.iy
    else:
        ix_old, iy_old = ordering.decode(particles.icell)
    x = ix_old + particles.dx + scale_x * particles.vx
    y = iy_old + particles.dy + scale_y * particles.vy
    ix, dxo, flip_x = reflect_axis(np.asarray(x), ncx)
    iy, dyo, flip_y = reflect_axis(np.asarray(y), ncy)
    particles.vx[:] = particles.vx * flip_x
    particles.vy[:] = particles.vy * flip_y
    particles.icell[:] = ordering.encode(ix, iy)
    particles.dx[:] = dxo
    particles.dy[:] = dyo
    if particles.store_coords:
        particles.ix[:] = ix
        particles.iy[:] = iy


def absorb_axis_mask(x: np.ndarray, nc: int) -> np.ndarray:
    """True for particles that left ``[0, nc)`` along this axis."""
    x = np.asarray(x)
    return (x < 0.0) | (x >= nc)


def push_positions_absorbing(particles: ParticleStorage, ncx, ncy, ordering,
                             scale_x=1.0, scale_y=1.0) -> np.ndarray:
    """Position update with absorbing walls.

    Advances positions; escaped particles are *not* wrapped — they are
    reported in the returned boolean mask (True = absorbed), with their
    in-bounds siblings updated normally.  Callers compact the
    population with :func:`compact_particles`.  Absorbed entries keep a
    clamped, valid cell index so that an un-compacted storage is still
    safe to deposit from (with their weight zeroed by the caller).
    """
    if particles.store_coords:
        ix_old, iy_old = particles.ix, particles.iy
    else:
        ix_old, iy_old = ordering.decode(particles.icell)
    x = np.asarray(ix_old + particles.dx + scale_x * particles.vx)
    y = np.asarray(iy_old + particles.dy + scale_y * particles.vy)
    absorbed = absorb_axis_mask(x, ncx) | absorb_axis_mask(y, ncy)
    xc = np.clip(x, 0.0, np.nextafter(float(ncx), 0.0))
    yc = np.clip(y, 0.0, np.nextafter(float(ncy), 0.0))
    ix = np.floor(xc).astype(np.int64)
    iy = np.floor(yc).astype(np.int64)
    ix = np.minimum(ix, ncx - 1)
    iy = np.minimum(iy, ncy - 1)
    particles.icell[:] = ordering.encode(ix, iy)
    particles.dx[:] = xc - ix
    particles.dy[:] = yc - iy
    if particles.store_coords:
        particles.ix[:] = ix
        particles.iy[:] = iy
    return absorbed


def compact_particles(particles: ParticleStorage, keep: np.ndarray) -> ParticleStorage:
    """New storage holding only the particles where ``keep`` is True.

    The surviving order is preserved (a stable stream compaction, the
    vectorizable way to retire absorbed particles).
    """
    keep = np.asarray(keep, dtype=bool)
    n_new = int(keep.sum())
    out = ParticleSoA(n_new, particles.weight, particles.store_coords)
    state = {k: v[keep] for k, v in particles.as_dict().items()}
    out.set_state(**state)
    return out
