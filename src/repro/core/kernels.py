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

from typing import NamedTuple

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
    "Drive",
    "drive_kick",
    "sum_squares",
    "push_blocked",
    "wrap_for",
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
# Velocity update (Fig. 1 line 9) and the scenario zoo's stages of it
# ----------------------------------------------------------------------
def kick(v, e_p, coef):
    """``v += coef * e_p`` in place; multiply-free for the scalar 1.0."""
    if np.ndim(coef) != 0 or coef != 1.0:
        e_p = coef * e_p
    np.add(v, e_p, out=v)


class Drive(NamedTuple):
    """The scenario zoo's stages of a 2D update-v, in stored units.

    ``field`` is a uniform external field per axis, added to the
    gathered one before any kick; ``None`` adds nothing (not ``+ 0.0``,
    which turns a −0.0 field into +0.0).  ``rotation`` is Boris's
    ``(t, s)`` for a uniform out-of-plane magnetic field, with
    ``scales`` the stored -> physical velocity factors of the two axes:
    half kick, exact rotation of the physical velocities, half kick.
    Without a rotation the field takes one full kick.
    """

    field: tuple | None = None
    rotation: tuple | None = None
    scales: tuple = (1.0, 1.0)


def drive_kick(vs, e_p, drive):
    """Update-v's kick of the gathered field ``e_p`` through ``drive``'s
    stages, in place: :func:`kick` with coefficient 1, or, with a
    rotation, half kick, rotation and half kick block by block — the
    operations, in their order, that ``ckernels.c::update_v_loop``
    runs."""
    if drive.field is not None:
        e_p = [e + g for e, g in zip(e_p, drive.field)]
    if drive.rotation is None:
        for v, e in zip(vs, e_p):
            kick(v, e, 1.0)
        return
    (t, s), (svx, svy) = drive.rotation, drive.scales
    vx, vy = vs
    for sl in blocks(len(vx)):
        h = [0.5 * e[sl] for e in e_p]
        vx_ph = (vx[sl] + h[0]) * svx
        vy_ph = (vy[sl] + h[1]) * svy
        vpx = vx_ph + vy_ph * t
        vpy = vy_ph - vx_ph * t
        vx[sl] = (vx_ph + vpy * s) / svx + h[0]
        vy[sl] = (vy_ph - vpx * s) / svy + h[1]


# ----------------------------------------------------------------------
# The energies' sum of squares (the diagnostics' one pass)
# ----------------------------------------------------------------------
#: NumPy's float64 pairwise sum (``np.sum``) adds up to this many terms
#: without splitting them
PAIRWISE_LEAF = 128


def sum_squares(columns, scales):
    """``Σ_k Σ_a (c_a[k] * s_a)²`` over the columns (any shape, read in
    C order): per term a left fold over the columns, over the terms
    NumPy's pairwise fold — the bits of ``np.sum`` over an array of the
    terms, without the N-sized array.

    NumPy's pairwise sum splits more than :data:`PAIRWISE_LEAF` terms
    at ``n / 2`` rounded down to a multiple of 8 and adds the two
    halves' sums; this follows those splits down to subtrees of at most
    :data:`BLOCK` terms and sums each with ``np.sum``, so every
    temporary is block-sized.
    """
    cols = [np.ravel(np.asarray(c, dtype=np.float64)) for c in columns]

    def tree(lo, n):
        if n <= max(BLOCK, PAIRWISE_LEAF):
            sl = slice(lo, lo + n)
            terms = np.square(cols[0][sl] * scales[0])
            for c, scale in zip(cols[1:], scales[1:]):
                terms += np.square(c[sl] * scale)
            return np.sum(terms)
        half = n // 2 - n // 2 % 8
        return tree(lo, half) + tree(lo + half, n - half)

    return float(tree(0, len(cols[0])))


# ----------------------------------------------------------------------
# Position update (Fig. 1 line 10) — the two executed §IV-C wraps and
# the reflecting wall.  Each takes one axis' advanced positions and
# returns new (icoord, offset), the wall also the velocity factor;
# wrap_for selects which one runs.
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


def _axis_reflect(x, nc):
    """Mirror fold into ``[0, nc]`` between reflecting walls (§VI
    outlook), no branch: the mirrored extension of ``[0, L]`` is
    periodic in ``2L``, so ``x_f = L - |mod(x, 2L) - L|``, and the
    velocity flips (returned factor −1.0, else 1.0) where the fold took
    the descending half, after an odd number of bounces.  A position
    parked on the far wall (``x_f == nc``) lands in the last cell at
    offset 1.0.  Works any number of box widths outside.
    """
    over = np.mod(x, 2.0 * nc) - nc
    folded = nc - np.abs(over)
    flip = np.where(over > 0.0, -1.0, 1.0)
    fx = np.floor(folded)
    i = _to_int64(fx)
    hit = i >= nc
    return np.where(hit, nc - 1, i), np.where(hit, 1.0, folded - fx), flip


_AXIS_WRAPS = {"modulo": _axis_modulo, "bitwise": _axis_bitwise,
               "reflect": _axis_reflect}


def wrap_for(extents, boundary="periodic") -> str:
    """The wrap a grid of ``extents`` runs, by name — the one place it
    is decided, for every backend and the scalar reference.

    ``"reflect"`` between reflecting walls (``boundary="reflecting"``,
    the scenario zoo's wall case; :func:`_axis_reflect`).  On a
    periodic grid, ``"bitwise"`` (§IV-C3) when every extent is a power
    of two: the only wrap free of branches and calls, so the only one
    the C push vectorizes.  ``"modulo"`` (§IV-C2) otherwise, the one of
    the two that runs on such a grid.  Both land every finite position
    in the same cell at the same offset, except an exact negative
    integer, where the bitwise floor leaves the offset 1.0 one cell
    down.  The paper's starting point, test-and-wrap (§IV-C1), is
    priced by :mod:`repro.model` (``ModelConfig.position_update``) and
    executed nowhere.
    """
    if boundary == "reflecting":
        return "reflect"
    return "bitwise" if all(nc & (nc - 1) == 0 for nc in extents) else "modulo"


def push_blocked(particles, extents, ordering, scales, wrap=None):
    """The one position-update body: advance, wrap, re-derive cells, in
    place.

    ``particles`` maps ``icell``, ``d<a>``, ``v<a>`` and ``i<a>`` to
    arrays, for each axis ``a`` of ``"xyz"[:len(extents)]``; a
    :class:`~repro.particles.storage.ParticleSoA` is such a mapping.
    ``icell``, the offsets and the coordinates are overwritten, and
    under the ``"reflect"`` wrap the velocity of every bounced axis.

    ``ordering`` supplies the coordinates -> icell map, ``wrap``
    names the fold (default: :func:`wrap_for` of the extents) and
    ``scales`` are the stored-velocity -> grid-displacement factors per
    axis (1.0 in the stepper's hoisted units).  An axis reads only its
    own arrays, and ``icell`` — the output every axis shares — is
    written last.
    """
    p = particles
    axes = "xyz"[: len(extents)]
    axis_fn = _AXIS_WRAPS[wrap or wrap_for(extents)]
    for sl in blocks(len(p["icell"])):
        new = []
        for a, nc, scale in zip(axes, extents, scales):
            v, i = p["v" + a], p["i" + a]
            x = i[sl] + p["d" + a][sl] + scale * v[sl]
            i_new, offset, *flip = axis_fn(np.asarray(x), nc)
            p["d" + a][sl] = offset
            if flip:
                v[sl] = v[sl] * flip[0]
            i[sl] = i_new
            new.append(i_new)
        p["icell"][sl] = ordering.encode(*new)
