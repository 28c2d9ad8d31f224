"""Vectorized particle kernels: accumulate, interpolate, push.

These are the inner loops of Fig. 1, each in the code variants the
paper compares.  All kernels work in *grid units*: positions are
``ix + dx in [0, ncx)``, and when loop hoisting is active velocities
arrive pre-scaled to displacement-per-step so the push is a bare add.

NumPy array operations are the Python rendering of the
auto-vectorized C loops; the scalar reference implementations used as
test oracles live in :mod:`repro.core.reference`.

Cache blocking
--------------
Every particle kernel here walks the population in blocks of
:data:`BLOCK` particles, so its temporaries (gathered field rows,
corner weights, wrapped coordinates) are block-sized and stay in cache
instead of streaming ``(N, 8)``-shaped arrays through memory.  The
gather, weights, kick and push are elementwise per particle, so the
block size cannot change a bit of their results.  The deposit keeps
its whole-population in-order fold: blocks only *compute* the weights
(into a corner-major ``(ncorner, N)`` buffer); one ``np.bincount`` per
corner over the whole population then sums each bin in particle order,
exactly as before.  A population that fits one block runs one
iteration of the same loop — there is no second code path.
"""

from __future__ import annotations

import numpy as np

from repro.grid.fields import corner_weights

__all__ = [
    "BLOCK",
    "blocks",
    "accumulate_standard",
    "deposit_rows",
    "accumulate_redundant",
    "interpolate_standard",
    "interpolate_redundant",
    "row_kernels",
    "kick",
    "update_velocities",
    "push_blocked",
    "fused_sweep",
    "push_positions_branch",
    "push_positions_modulo",
    "push_positions_bitwise",
    "POSITION_UPDATE_KERNELS",
    "AXIS_KERNELS",
]


#: Particles per block of every kernel in this module (and of the 3D
#: kernels, which import :func:`blocks`).  At 8192 a 2D gather block
#: allocates ~1.3 MiB of rows, weights and products and a 3D one
#: ~3 MiB — inside one core's L2; the measured sweep is in
#: ``docs/kernels.md``.  Deliberately a constant, not a config field:
#: results are bitwise independent of it, so there is nothing for a
#: user to trade.
BLOCK = 8192


def blocks(n):
    """Slices of at most :data:`BLOCK` particles covering ``range(n)``."""
    for lo in range(0, n, BLOCK):
        yield slice(lo, min(lo + BLOCK, n))


# ----------------------------------------------------------------------
# Charge accumulation (Fig. 1 line 11; Fig. 2 both variants)
# ----------------------------------------------------------------------
def _wrapped_corners(ix, iy, ncx, ncy):
    """The four ``(jx, jy)`` corner grid points, +1 edges wrapped."""
    ixp = np.where(ix + 1 == ncx, 0, ix + 1)
    iyp = np.where(iy + 1 == ncy, 0, iy + 1)
    return (ix, iy), (ix, iyp), (ixp, iy), (ixp, iyp)


def accumulate_standard(rho, ix, iy, dx, dy, charge=1.0):
    """Scatter CiC charge onto the point-based ``rho[ncx][ncy]``.

    The four corner updates hit scattered, non-contiguous addresses
    (the upper variant of Fig. 2); periodic wrap folds the +1 edges.
    ``charge`` is the per-particle charge factor ``q*w / cell_area``.
    Blocks fill corner-major index and weight buffers; the four
    whole-population bincounts then fold in particle order.
    """
    ncx, ncy = rho.shape
    n = len(dx)
    idx = np.empty((4, n), dtype=np.int64)
    w = np.empty((4, n))
    for sl in blocks(n):
        w[:, sl] = (corner_weights(dx[sl], dy[sl]) * charge).T
        for c, (jx, jy) in enumerate(_wrapped_corners(ix[sl], iy[sl], ncx, ncy)):
            idx[c, sl] = jx * ncy + jy
    flat = rho.reshape(-1)
    for c in range(4):
        flat += np.bincount(idx[c], weights=w[c], minlength=flat.size)


def deposit_rows(rho_1d, icell, block_weights, corners=None):
    """Blocked scatter onto redundant ``rho_1d[ncell][ncorner]`` rows.

    ``block_weights(sl)`` returns the ``(B, ncorner)`` charge-scaled
    weights of one block; they land in a corner-major ``(ncorner, N)``
    buffer, and one bincount per corner over the *whole* population
    adds into column ``c``.  Bin ``icell`` of that bincount receives
    exactly the terms flat bin ``ncorner*icell + c`` of a single fused
    bincount would, in the same (particle) order, so the result is
    bitwise independent of the block size — and of the 2D/3D corner
    count, which is why both deposits share this body.

    Each column is its own reduction, so any subset of them can be
    deposited alone: with ``corners`` (a list of column indices)
    ``block_weights`` returns only those columns' weights and only
    those columns of ``rho_1d`` are touched — with the bits the full
    deposit would have put there.  That is the ``numpy-mp`` engine's
    unit of ownership.
    """
    icell = np.ascontiguousarray(icell, dtype=np.int64)
    ncell = rho_1d.shape[0]
    cols = range(rho_1d.shape[1]) if corners is None else corners
    w = np.empty((len(cols), len(icell)))
    for sl in blocks(len(icell)):
        w[:, sl] = block_weights(sl).T
    for w_c, c in zip(w, cols):
        rho_1d[:, c] += np.bincount(icell, weights=w_c, minlength=ncell)


def accumulate_redundant(rho_1d, icell, dx, dy, charge=1.0, corners=None):
    """Scatter CiC charge onto the redundant ``rho_1d[ncell][4]``.

    Each particle writes one contiguous 4-element row — the
    vectorizable lower variant of Fig. 2.  No periodic wrap is needed
    here; the fold to grid points happens in
    :meth:`~repro.grid.fields.RedundantFields.reduce_rho_to_grid`.
    ``corners`` restricts the deposit to those columns
    (:func:`deposit_rows`).
    """
    deposit_rows(
        rho_1d, icell,
        lambda sl: corner_weights(dx[sl], dy[sl], corners) * charge,
        corners,
    )


# ----------------------------------------------------------------------
# Field interpolation (the gather side of update-velocities)
# ----------------------------------------------------------------------
def interpolate_standard(ex, ey, ix, iy, dx, dy):
    """Gather E at particle positions from the point-based arrays.

    Four corner reads per particle per component, periodic wrap —
    the non-contiguous access pattern the redundant layout removes.
    Returns ``(ex_p, ey_p)``.
    """
    ncx, ncy = ex.shape
    n = len(dx)
    ex_p = np.zeros(n)
    ey_p = np.zeros(n)
    for sl in blocks(n):
        w = corner_weights(dx[sl], dy[sl])
        for c, (jx, jy) in enumerate(_wrapped_corners(ix[sl], iy[sl], ncx, ncy)):
            ex_p[sl] += w[:, c] * ex[jx, jy]
            ey_p[sl] += w[:, c] * ey[jx, jy]
    return ex_p, ey_p


def interpolate_redundant(e_1d, icell, dx, dy, out=None):
    """Gather E at particle positions from the redundant layout.

    One contiguous 8-value row per particle (a single cache line in
    the paper's machines).  Returns ``(ex_p, ey_p)`` — freshly
    allocated, or the pair of arrays passed as ``out`` (the ``numpy-mp``
    worker hands in its slice of the shared scratch).

    The 4-corner reduction is written as explicit sequential adds (a
    left fold in corner order) rather than ``einsum``: einsum's SIMD/FMA
    contraction has an unspecified association, which makes the result
    impossible to reproduce with scalar arithmetic.  The fold keeps the
    kernel bitwise-mirrorable by the scalar reference stepper
    (:class:`repro.core.reference.ReferenceStepper`), which the
    differential-verification subsystem uses as its baseline.
    """
    n = len(icell)
    ex_p, ey_p = out if out is not None else (np.empty(n), np.empty(n))
    for sl in blocks(n):
        rows = e_1d[np.asarray(icell[sl], dtype=np.int64)]  # (B, 8)
        w = corner_weights(dx[sl], dy[sl])  # (B, 4)
        ex_b, ey_b = ex_p[sl], ey_p[sl]
        np.multiply(w[:, 0], rows[:, 0], out=ex_b)
        np.multiply(w[:, 0], rows[:, 4], out=ey_b)
        for c in range(1, 4):
            ex_b += w[:, c] * rows[:, c]
            ey_b += w[:, c] * rows[:, 4 + c]
    return ex_p, ey_p


def row_kernels(ndim):
    """``(interpolate, accumulate)`` over the redundant rows of an
    ``ndim``-dimensional grid — called as ``f(rows, icell, *offsets,
    ...)``.  The 3D pair lives in :mod:`repro.pic3d.kernels3d`, which
    imports this module, hence the call-time import."""
    if ndim == 2:
        return interpolate_redundant, accumulate_redundant
    from repro.pic3d.kernels3d import accumulate_redundant_3d, interpolate_redundant_3d

    return interpolate_redundant_3d, accumulate_redundant_3d


# ----------------------------------------------------------------------
# Velocity update (Fig. 1 line 9)
# ----------------------------------------------------------------------
def kick(v, e_p, coef, out=None):
    """``v + coef * e_p`` into ``out`` (default: in place, into ``v``);
    multiply-free for the scalar 1.0."""
    if np.ndim(coef) != 0 or coef != 1.0:
        e_p = coef * e_p
    np.add(v, e_p, out=v if out is None else out)


def update_velocities(vx, vy, ex_p, ey_p, coef_x=1.0, coef_y=1.0):
    """``v += coef * E_p`` in place.

    With hoisting the field arrives pre-scaled and ``coef`` is 1.0 —
    the loop body is a bare fused add; without hoisting ``coef`` is
    ``q*dt/m`` (times ``dt/spacing`` when positions are advanced in
    grid units), multiplied per particle per step.  ``coef_*`` may be
    scalar or an array broadcastable against the velocities (per-
    particle charge-to-mass ratios); the multiply-free fast path only
    applies to the scalar 1.0.
    """
    kick(vx, ex_p, coef_x)
    kick(vy, ey_p, coef_y)


# ----------------------------------------------------------------------
# Position update (Fig. 1 line 10) — the three §IV-C variants.
# Each takes current (ix_or_none, dx, displacement) per axis and
# returns new (icoord, offset); `wrap_*` selects the periodic fold.
# ----------------------------------------------------------------------
def _axis_branch(x, nc):
    """Test-and-wrap: apply the float modulo only to escaped particles.

    This is the `if (x < 0 || x >= nc) x = modulo(x, nc)` version; the
    data-dependent branch is rendered as a mask + partial update, which
    is exactly what a predicated (non-vectorized) loop does.
    """
    outside = (x < 0.0) | (x >= nc)
    if np.any(outside):
        x = x.copy()
        x[outside] = np.mod(x[outside], nc)
    fx = np.floor(x)
    i = fx.astype(np.int64)
    # float modulo can round up to exactly nc: fold that particle home
    hit = i == nc
    if np.any(hit):
        i = np.where(hit, 0, i)
        fx = np.where(hit, 0.0, fx)
        x = np.where(hit, 0.0, x)
    return i, x - fx


def _axis_modulo(x, nc):
    """Unconditional modulo: ``i = mod(floor(x), nc)``, no branch.

    The modulo runs for every particle; profitable because it removes
    the misprediction and keeps the loop vectorizable (§IV-C2).
    """
    fx = np.floor(x)
    i = np.mod(fx, nc).astype(np.int64)
    return i, x - fx


def _axis_bitwise(x, nc):
    """Branchless, call-free: cast-based floor + bitwise-and wrap.

    ``floor(x) = (int)x - (x < 0)`` and, for power-of-two ``nc``,
    ``mod(i, nc) = i & (nc - 1)`` (§IV-C3).  Works for particles any
    number of periods outside the box, unlike the move-at-most-one-cell
    tricks the paper rejects.
    """
    if nc & (nc - 1):
        raise ValueError(f"bitwise wrap requires power-of-two extent, got {nc}")
    fx = x.astype(np.int64) - (x < 0.0)
    return fx & (nc - 1), x - fx


def push_blocked(src, dst, extents, ordering, axis_fn, scales):
    """The one position-update body: advance, wrap, re-derive cells.

    ``src`` maps ``icell``, ``d<a>``, ``v<a>`` (and ``i<a>`` when cell
    coordinates are stored; otherwise they are decoded from ``icell``)
    to arrays, for each axis ``a`` of ``"xyz"[:len(extents)]``; ``dst``
    maps ``icell``, ``d<a>`` (and ``i<a>``) to the arrays written.  A
    :class:`~repro.particles.storage.ParticleStorage` is such a
    mapping.  Passing the same one twice updates in place (the
    backends); the ``numpy-mp`` worker passes slices of the back
    buffer as ``dst`` so a crash mid-write leaves the inputs intact.

    ``ordering`` supplies the coordinates <-> icell bijection,
    ``axis_fn(x, nc) -> (icoord, offset)`` the periodic fold and
    ``scales`` the stored-velocity -> grid-displacement factor per axis
    (1.0 under hoisting).  In-place use is safe: an axis reads only
    its own arrays, and ``icell`` and the coordinates — the inputs
    every axis shares — are written last.
    """
    axes = "xyz"[: len(extents)]
    for sl in blocks(len(src["icell"])):
        if "ix" in src:
            old = [src["i" + a][sl] for a in axes]
        else:
            # row-major family: recompute coords from icell in one op each
            old = ordering.decode(src["icell"][sl])
        new = []
        for a, i_old, nc, scale in zip(axes, old, extents, scales):
            x = i_old + src["d" + a][sl] + scale * src["v" + a][sl]
            i_new, offset = axis_fn(np.asarray(x), nc)
            dst["d" + a][sl] = offset
            new.append(i_new)
        dst["icell"][sl] = ordering.encode(*new)
        if "ix" in dst:
            for a, i_new in zip(axes, new):
                dst["i" + a][sl] = i_new


def fused_sweep(arrs, gather, extents, ordering, axis_fn, coefs, scales):
    """Interpolate -> kick -> push, one block at a time, in place.

    The NumPy rendering of the paper's single-pass loop: a block's
    record is gathered, kicked and pushed while it is hot, then the
    next block.  ``arrs`` is the :func:`push_blocked` mapping;
    ``gather(block)`` returns the field at the block's particles, one
    array per axis (the block is a mapping of slice views, so any
    blocked interpolation kernel runs it as a single iteration).
    Every operation is elementwise per particle and is the split
    kernels' own code, so the sweep is bitwise identical to the three
    split passes at any population and block size; the deposit follows
    separately, over the whole population.
    """
    axes = "xyz"[: len(extents)]
    for sl in blocks(len(arrs["icell"])):
        block = {k: v[sl] for k, v in arrs.items()}
        for a, e_p, coef in zip(axes, gather(block), coefs):
            kick(block["v" + a], e_p, coef)
        push_blocked(block, block, extents, ordering, axis_fn, scales)


def _push(particles, ncx, ncy, ordering, axis_fn, scale_x=1.0, scale_y=1.0):
    """In-place 2D push of a :class:`~repro.particles.storage.ParticleStorage`."""
    push_blocked(
        particles, particles, (ncx, ncy), ordering, axis_fn, (scale_x, scale_y)
    )


def push_positions_branch(particles, ncx, ncy, ordering, scale_x=1.0, scale_y=1.0):
    """Position update with the test-and-wrap (`if`) formulation."""
    _push(particles, ncx, ncy, ordering, _axis_branch, scale_x, scale_y)


def push_positions_modulo(particles, ncx, ncy, ordering, scale_x=1.0, scale_y=1.0):
    """Position update with the unconditional-modulo formulation."""
    _push(particles, ncx, ncy, ordering, _axis_modulo, scale_x, scale_y)


def push_positions_bitwise(particles, ncx, ncy, ordering, scale_x=1.0, scale_y=1.0):
    """Position update with the cast-floor + bitwise-and formulation."""
    _push(particles, ncx, ncy, ordering, _axis_bitwise, scale_x, scale_y)


#: Dispatch table used by the stepper, keyed by config.position_update.
POSITION_UPDATE_KERNELS = {
    "branch": push_positions_branch,
    "modulo": push_positions_modulo,
    "bitwise": push_positions_bitwise,
}

#: Per-axis wrap kernels, keyed the same way — the building blocks the
#: backend layer (:mod:`repro.core.backends`) composes with the shared
#: push driver, so every backend agrees on the cell bookkeeping.
AXIS_KERNELS = {
    "branch": _axis_branch,
    "modulo": _axis_modulo,
    "bitwise": _axis_bitwise,
}
