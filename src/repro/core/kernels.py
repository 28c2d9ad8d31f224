"""Vectorized kernels: accumulate, interpolate, push, and the ρ fold
and field broadcast of the redundant layout.

These are the inner loops of Fig. 1, each in the code variants the
paper compares, plus the two per-cell loops the redundant layout adds
to every step (§II): :func:`reduce_rows` folds the deposited corner
charges onto grid points before the solve and :func:`broadcast_rows`
writes the solved field back into the corner rows after it.  All
kernels work in *grid units*: positions are ``ix + dx in [0, ncx)``,
and the stepper's velocities arrive pre-scaled to displacement per
step (loop hoisting, §IV-D), so its push passes scale 1.

Every deposit *writes* its target — ``rho = Σ``, not ``rho += Σ``: a
bincount sums from +0.0 and never yields −0.0, so adding it into a
zeroed array would give the same bits, and nothing has to zero ρ
first.

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

from repro.grid.fields import corner_offsets

__all__ = [
    "BLOCK",
    "blocks",
    "corner_weights",
    "deposit_rows",
    "accumulate_rows",
    "reduce_rows",
    "broadcast_rows",
    "interpolate_rows",
    "kick",
    "kinetic_terms",
    "push_blocked",
    "AXIS_KERNELS",
]


#: Particles per block of every kernel in this module, in either
#: dimension.  At 8192 a 2D gather block
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
# Cloud-in-Cell weights (Fig. 2) — the one statement, any dimension
# ----------------------------------------------------------------------
def _weight_tables(ndim):
    """Fig. 2's coefficient tables, ``(ndim, 2^ndim)`` each: the weight
    of corner ``c`` is the product over axes of ``c_a + s_a * d_a``,
    i.e. ``d`` along the axes whose corner bit is set and ``1 - d``
    along the others."""
    bit = corner_offsets(ndim).T.astype(np.float64)
    return 1.0 - bit, 2.0 * bit - 1.0


_WEIGHT_TABLES = {ndim: _weight_tables(ndim) for ndim in (2, 3)}


def corner_weights(offsets, corners=None) -> np.ndarray:
    """Cloud-in-Cell weights of the ``2^ndim`` corners for the per-axis
    offsets ``(dx, dy[, dz])`` in ``[0, 1)``.

    Returns an ``(N, 2^ndim)`` array; rows sum to 1 exactly in exact
    arithmetic (and to within rounding here), which is what makes the
    scheme charge-conserving.  Written in the ``c + s*d`` form of
    Fig. 2, multiplied left to right over the axes with axis 0 on the
    most significant corner bit — the order ``ckernels.c::weights``
    uses, so both renderings produce the same bits.  The memory behind
    the result is corner-major (each ``w[:, c]`` contiguous): NumPy's
    inner loop then runs over the particles instead of over the
    corners, which is ~7x faster, and the kernels consume the weights
    one corner column at a time anyway.  Elementwise, so the layout
    cannot change a bit of any weight — and neither can ``corners``, an
    index (list or slice) selecting which corner columns to compute:
    the ``numpy-mp`` deposit hands each worker a subset.
    """
    offsets = [np.asarray(d, dtype=np.float64) for d in offsets]
    sel = slice(None) if corners is None else corners
    c, s = (
        t[:, sel].reshape((len(offsets), -1) + (1,) * offsets[0].ndim)
        for t in _WEIGHT_TABLES[len(offsets)]
    )
    w = c[0] + s[0] * offsets[0]
    for axis in range(1, len(offsets)):
        # in place, the factor never bound to a name: it is freed before
        # the next one is made, so the allocator hands back the same,
        # cache-hot block (a named factor costs 25 % of this function)
        w *= c[axis] + s[axis] * offsets[axis]
    return np.moveaxis(w, 0, -1)


# ----------------------------------------------------------------------
# Charge accumulation (Fig. 1 line 11; Fig. 2's redundant variant)
# ----------------------------------------------------------------------
def deposit_rows(rho_1d, icell, block_weights, corners=None):
    """Blocked scatter onto redundant ``rho_1d[ncell][ncorner]`` rows.

    ``block_weights(sl)`` returns the ``(B, ncorner)`` charge-scaled
    weights of one block; they land in a corner-major ``(ncorner, N)``
    buffer, and one bincount per corner over the *whole* population
    becomes column ``c``.  Bin ``icell`` of that bincount receives
    exactly the terms flat bin ``ncorner*icell + c`` of a single fused
    bincount would, in the same (particle) order, so the result is
    bitwise independent of the block size — and of the 2D/3D corner
    count, which is why both deposits share this body.

    Each column is its own reduction, so any subset of them can be
    deposited alone: with ``corners`` (a list of column indices)
    ``block_weights`` returns only those columns' weights and only
    those columns of ``rho_1d`` are written — with the bits the full
    deposit puts there.  That is the ``numpy-mp`` engine's unit of
    ownership.
    """
    icell = np.ascontiguousarray(icell, dtype=np.int64)
    ncell = rho_1d.shape[0]
    cols = range(rho_1d.shape[1]) if corners is None else corners
    w = np.empty((len(cols), len(icell)))
    for sl in blocks(len(icell)):
        w[:, sl] = block_weights(sl).T
    for w_c, c in zip(w, cols):
        rho_1d[:, c] = np.bincount(icell, weights=w_c, minlength=ncell)


def accumulate_rows(rho_1d, icell, offsets, charge=1.0, corners=None):
    """Scatter CiC charge onto the redundant ``rho_1d[ncell][2^ndim]``.

    Each particle writes one contiguous ``2^ndim``-element row — the
    vectorizable lower variant of Fig. 2.  No periodic wrap is needed
    here; the fold to grid points is :func:`reduce_rows`.  ``corners``
    restricts the deposit to those columns (:func:`deposit_rows`).
    """
    deposit_rows(
        rho_1d, icell,
        lambda sl: corner_weights([d[sl] for d in offsets], corners) * charge,
        corners,
    )


# ----------------------------------------------------------------------
# The per-cell half of the step: ρ fold and field broadcast (§II)
# ----------------------------------------------------------------------
def reduce_rows(rho_1d, corner_cell):
    """Fold the redundant ``rho_1d[ncell][2^ndim]`` onto grid points.

    ``corner_cell[c]`` (grid-shaped) is, for every grid point, the row
    of the cell whose corner ``c`` the point is — the cell one corner
    offset behind it, periodically
    (:attr:`~repro.grid.fields.RedundantFields.corner_cell`).  Each
    point starts from +0.0 and adds its ``2^ndim`` corner entries in
    corner order; ``ckernels.c::reduce_rows`` is the same fold.
    """
    out = np.zeros(corner_cell.shape[1:])
    for c, cells in enumerate(corner_cell):
        out += rho_1d[cells, c]
    return out


def broadcast_rows(e_1d, corner_point, components, scales):
    """Write grid-point field components into the redundant rows.

    Row ``r`` of column group ``k`` gets ``components[k] * scales[k]``
    at its cell's corners: ``corner_point[r, c]`` is the flat grid
    point of corner ``c`` of the cell stored in row ``r``
    (:attr:`~repro.grid.fields.RedundantFields.corner_point`), or one
    past the grid for a padding row, which gets the zero appended
    here.  One gather per component, written row by row in memory
    order.
    """
    ncorner = corner_point.shape[1]
    for k, (comp, scale) in enumerate(zip(components, scales)):
        e_1d[:, k * ncorner:(k + 1) * ncorner] = np.append(
            np.asarray(comp, dtype=np.float64) * scale, 0.0
        )[corner_point]


# ----------------------------------------------------------------------
# Field interpolation (the gather side of update-velocities)
# ----------------------------------------------------------------------
def interpolate_rows(e_1d, icell, offsets):
    """Gather E at particle positions from the redundant layout.

    One contiguous ``ndim * 2^ndim``-value row per particle (in 2D a
    single cache line in the paper's machines).  Returns one freshly
    allocated array per axis.

    The corner reduction is written as explicit sequential adds (a
    left fold in corner order) rather than an ``einsum``, whose
    SIMD/FMA contraction has an unspecified association and cannot be
    reproduced with scalar arithmetic.  The fold is what
    ``ckernels.c::gather`` and the scalar reference stepper
    (:class:`repro.core.reference.ReferenceStepper`) compute, bit for
    bit, in either dimension.
    """
    n, ncorner = len(icell), 1 << len(offsets)
    e_p = tuple(np.empty(n) for _ in offsets)
    for sl in blocks(n):
        rows = e_1d[np.asarray(icell[sl], dtype=np.int64)]  # (B, ndim * ncorner)
        w = corner_weights([d[sl] for d in offsets])  # (B, ncorner)
        for axis, e_axis in enumerate(e_p):
            lo, e_b = axis * ncorner, e_axis[sl]
            np.multiply(w[:, 0], rows[:, lo], out=e_b)
            for c in range(1, ncorner):
                e_b += w[:, c] * rows[:, lo + c]
    return e_p


# ----------------------------------------------------------------------
# Velocity update (Fig. 1 line 9)
# ----------------------------------------------------------------------
def kick(v, e_p, coef):
    """``v += coef * e_p`` in place; multiply-free for the scalar 1.0."""
    if np.ndim(coef) != 0 or coef != 1.0:
        e_p = coef * e_p
    np.add(v, e_p, out=v)


# ----------------------------------------------------------------------
# Kinetic-energy terms (the diagnostics' one particle pass)
# ----------------------------------------------------------------------
def kinetic_terms(vs, scales, out):
    """``out = Σ_a (v_a * s_a)²`` per particle, a left fold over the
    axes, formed block by block without N-sized temporaries; returns
    ``out``."""
    for sl in blocks(len(out)):
        np.square(vs[0][sl] * scales[0], out=out[sl])
        for v, scale in zip(vs[1:], scales[1:]):
            out[sl] += np.square(v[sl] * scale)
    return out


# ----------------------------------------------------------------------
# Position update (Fig. 1 line 10) — the three §IV-C variants.
# Each takes current (ix_or_none, dx, displacement) per axis and
# returns new (icoord, offset); `wrap_*` selects the periodic fold.
# ----------------------------------------------------------------------
_INT64_MIN = np.iinfo(np.int64).min


def _to_int64(x):
    """``x`` truncated toward zero as int64, defined on every input:
    NaN, ±inf and ``|x| >= 2^63`` become ``INT64_MIN`` — the value
    ``ckernels.c::to_int64`` returns (and x86's conversion produces),
    where a bare ``astype`` is undefined and warns.  One reduction
    guards the plain cast (NaN fails the comparison); only a block
    that holds such a value pays for the masked path, and a non-finite
    position still comes back as a non-finite offset for the
    supervisor's guard to see."""
    if x.size == 0 or np.abs(x).max() < 2.0**63:
        return x.astype(np.int64)
    ok = np.abs(x) < 2.0**63
    return np.where(ok, np.where(ok, x, 0.0).astype(np.int64), _INT64_MIN)


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
    i = _to_int64(fx)
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
    i = _to_int64(np.mod(fx, nc))
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
    fx = _to_int64(x) - (x < 0.0)
    return fx & (nc - 1), x - fx


def push_blocked(particles, extents, ordering, axis_fn, scales):
    """The one position-update body: advance, wrap, re-derive cells, in
    place.

    ``particles`` maps ``icell``, ``d<a>``, ``v<a>`` (and ``i<a>`` when
    cell coordinates are stored; otherwise they are decoded from
    ``icell``) to arrays, for each axis ``a`` of
    ``"xyz"[:len(extents)]``; a
    :class:`~repro.particles.storage.ParticleStorage` is such a mapping.
    ``icell``, the offsets and the stored coordinates are overwritten.

    ``ordering`` supplies the coordinates <-> icell bijection,
    ``axis_fn(x, nc) -> (icoord, offset)`` the periodic fold and
    ``scales`` the stored-velocity -> grid-displacement factor per axis
    (1.0 in the stepper's hoisted units).  An axis reads only its own arrays, and
    ``icell`` and the coordinates — the inputs every axis shares — are
    written last.
    """
    p = particles
    axes = "xyz"[: len(extents)]
    for sl in blocks(len(p["icell"])):
        if "ix" in p:
            old = [p["i" + a][sl] for a in axes]
        else:
            # row-major family: recompute coords from icell in one op each
            old = ordering.decode(p["icell"][sl])
        new = []
        for a, i_old, nc, scale in zip(axes, old, extents, scales):
            x = i_old + p["d" + a][sl] + scale * p["v" + a][sl]
            i_new, offset = axis_fn(np.asarray(x), nc)
            p["d" + a][sl] = offset
            new.append(i_new)
        p["icell"][sl] = ordering.encode(*new)
        if "ix" in p:
            for a, i_new in zip(axes, new):
                p["i" + a][sl] = i_new


#: Per-axis wrap kernels, keyed the same way — the building blocks the
#: backend layer (:mod:`repro.core.backends`) composes with the shared
#: push driver, so every backend agrees on the cell bookkeeping.
AXIS_KERNELS = {
    "branch": _axis_branch,
    "modulo": _axis_modulo,
    "bitwise": _axis_bitwise,
}
