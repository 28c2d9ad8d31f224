"""Numba ``@njit`` scalar-loop kernels for the ``"numba"`` backend.

This module imports :mod:`numba` at import time and is therefore only
imported by :class:`repro.core.backends.NumbaBackend` when that backend
is actually requested; NumPy-only installs never touch it.

Each function is the explicit per-particle loop the paper's C code
runs, written to match :mod:`repro.core.reference` arithmetic exactly
(same corner order, same wrap formulations) so the cross-backend
equivalence suite can hold every backend to the same oracle:

* gathers (interpolate) and per-axis position wraps are embarrassingly
  parallel and use ``prange``;
* the plain scatters (accumulate) race on the target array, so they
  run as serial loops — exactly the paper's single-thread inner loop;
* the *parallel* deposit resolves the race the paper's §V-B way —
  per-thread private ``rho[nthreads][ncell][4]`` copies + reduction —
  with cell ownership added so the result is bitwise identical to the
  serial deposit at any thread count
  (:func:`accumulate_redundant_parallel_njit`);
* the fused kernels (:func:`fused_redundant_njit`,
  :func:`fused_standard_njit`) run interpolate -> kick -> push in one
  ``prange`` pass, bitwise-matching the split kernels.

All kernels write into caller-allocated output arrays (the backend
wrapper owns allocation and dtype normalization).
"""

from __future__ import annotations

import numpy as np
from numba import get_num_threads, njit, prange

__all__ = [
    "accumulate_standard_njit",
    "accumulate_redundant_njit",
    "interpolate_standard_njit",
    "interpolate_redundant_njit",
    "update_velocities_njit",
    "axis_branch_njit",
    "axis_modulo_njit",
    "axis_bitwise_njit",
    "accumulate_redundant_3d_njit",
    "interpolate_redundant_3d_njit",
    "VARIANT_CODES",
    "fused_redundant_njit",
    "fused_standard_njit",
    "accumulate_redundant_parallel_njit",
    "counting_sort_permutation_njit",
    "fused_redundant_3d_njit",
    "accumulate_redundant_parallel_3d_njit",
]

# `cache=True` persists compiled machine code next to the source so the
# JIT cost is paid once per machine, not once per process.
_JIT = {"cache": True, "fastmath": False}


# ----------------------------------------------------------------------
# 2D accumulate (Fig. 2, both variants) — serial scatter
# ----------------------------------------------------------------------
@njit(**_JIT)
def accumulate_standard_njit(rho, ix, iy, dx, dy, charge):
    ncx, ncy = rho.shape
    for p in range(ix.size):
        i = ix[p]
        j = iy[p]
        fx = dx[p]
        fy = dy[p]
        ip = (i + 1) % ncx
        jp = (j + 1) % ncy
        rho[i, j] += charge * (1.0 - fx) * (1.0 - fy)
        rho[i, jp] += charge * (1.0 - fx) * fy
        rho[ip, j] += charge * fx * (1.0 - fy)
        rho[ip, jp] += charge * fx * fy


@njit(**_JIT)
def accumulate_redundant_njit(rho_1d, icell, dx, dy, charge):
    for p in range(icell.size):
        c = icell[p]
        fx = dx[p]
        fy = dy[p]
        rho_1d[c, 0] += charge * (1.0 - fx) * (1.0 - fy)
        rho_1d[c, 1] += charge * (1.0 - fx) * fy
        rho_1d[c, 2] += charge * fx * (1.0 - fy)
        rho_1d[c, 3] += charge * fx * fy


# ----------------------------------------------------------------------
# 2D interpolate — parallel gather
# ----------------------------------------------------------------------
@njit(parallel=True, **_JIT)
def interpolate_standard_njit(ex, ey, ix, iy, dx, dy, ex_p, ey_p):
    ncx, ncy = ex.shape
    for p in prange(ix.size):
        i = ix[p]
        j = iy[p]
        fx = dx[p]
        fy = dy[p]
        ip = (i + 1) % ncx
        jp = (j + 1) % ncy
        w00 = (1.0 - fx) * (1.0 - fy)
        w01 = (1.0 - fx) * fy
        w10 = fx * (1.0 - fy)
        w11 = fx * fy
        ex_p[p] = w00 * ex[i, j] + w01 * ex[i, jp] + w10 * ex[ip, j] + w11 * ex[ip, jp]
        ey_p[p] = w00 * ey[i, j] + w01 * ey[i, jp] + w10 * ey[ip, j] + w11 * ey[ip, jp]


@njit(parallel=True, **_JIT)
def interpolate_redundant_njit(e_1d, icell, dx, dy, ex_p, ey_p):
    for p in prange(icell.size):
        c = icell[p]
        fx = dx[p]
        fy = dy[p]
        w00 = (1.0 - fx) * (1.0 - fy)
        w01 = (1.0 - fx) * fy
        w10 = fx * (1.0 - fy)
        w11 = fx * fy
        ex_p[p] = (
            w00 * e_1d[c, 0] + w01 * e_1d[c, 1] + w10 * e_1d[c, 2] + w11 * e_1d[c, 3]
        )
        ey_p[p] = (
            w00 * e_1d[c, 4] + w01 * e_1d[c, 5] + w10 * e_1d[c, 6] + w11 * e_1d[c, 7]
        )


# ----------------------------------------------------------------------
# Velocity update (Fig. 1 line 9) — parallel fused add
# ----------------------------------------------------------------------
@njit(parallel=True, **_JIT)
def update_velocities_njit(v, e_p, coef):
    if coef == 1.0:
        for p in prange(v.size):
            v[p] += e_p[p]
    else:
        for p in prange(v.size):
            v[p] += coef * e_p[p]


# ----------------------------------------------------------------------
# Per-axis position wraps (§IV-C) — parallel
# ----------------------------------------------------------------------
@njit(parallel=True, **_JIT)
def axis_branch_njit(x, nc, i_out, d_out):
    for p in prange(x.size):
        xv = x[p]
        if xv < 0.0 or xv >= nc:
            xv = xv % nc
        fx = np.floor(xv)
        i = np.int64(fx)
        if i == nc:  # float modulo can round up to exactly nc
            i = 0
            fx = 0.0
            xv = 0.0
        i_out[p] = i
        d_out[p] = xv - fx


@njit(parallel=True, **_JIT)
def axis_modulo_njit(x, nc, i_out, d_out):
    for p in prange(x.size):
        fx = np.floor(x[p])
        i_out[p] = np.int64(fx) % nc
        d_out[p] = x[p] - fx


@njit(parallel=True, **_JIT)
def axis_bitwise_njit(x, nc, i_out, d_out):
    mask = nc - 1
    for p in prange(x.size):
        xv = x[p]
        fx = np.int64(xv)  # cast truncates toward zero
        if xv < 0.0:
            fx -= 1
        i_out[p] = fx & mask
        d_out[p] = xv - fx


# ----------------------------------------------------------------------
# Fused single-pass loop (interpolate -> kick -> push)
#
# The paper's §IV-B *splits* the loops so a C compiler can vectorize
# each one; under a JIT the economics invert — three split passes
# re-stream the particle arrays from DRAM, while one fused pass reads
# and writes every particle record exactly once and keeps ex_p/ey_p in
# registers instead of N-sized temporaries.  Arithmetic order matches
# the split NumPy kernels term for term (weights as w*...*charge-last
# products, sums left-associated, the same three §IV-C wrap
# formulations), so the fused path is bitwise-identical to running the
# split path — the equivalence suite holds it to that standard.
# ----------------------------------------------------------------------

#: position-update variant -> integer code understood by the fused
#: kernels (numba specializes the branch away after inlining)
VARIANT_CODES = {"branch": 0, "modulo": 1, "bitwise": 2}


@njit(**_JIT)
def _wrap_axis(xv, nc, variant):
    """One coordinate through the §IV-C wrap selected by ``variant``.

    Scalar twin of the ``axis_*_njit`` kernels above (and of the NumPy
    ``AXIS_KERNELS``); returns ``(icoord, offset)``.
    """
    if variant == 0:  # branch: test-and-wrap
        if xv < 0.0 or xv >= nc:
            xv = xv % nc
        fx = np.floor(xv)
        i = np.int64(fx)
        if i == nc:  # float modulo can round up to exactly nc
            return np.int64(0), 0.0
        return i, xv - fx
    elif variant == 1:  # modulo: unconditional
        fx = np.floor(xv)
        return np.int64(fx) % nc, xv - fx
    else:  # bitwise: cast-floor + and-mask (power-of-two nc)
        fx = np.int64(xv)  # cast truncates toward zero
        if xv < 0.0:
            fx -= 1
        return fx & (nc - 1), xv - fx


@njit(parallel=True, **_JIT)
def fused_redundant_njit(
    e_1d, icell, ix_old, iy_old, dx, dy, vx, vy,
    coef_x, coef_y, scale_x, scale_y, ncx, ncy, variant, ix_out, iy_out,
):
    """Interpolate + kick + push, one pass, redundant field layout.

    Reads the 8-value field row, kicks the velocity, advances and wraps
    the position — all while the particle record is hot.  Writes the
    new offsets/velocities in place and the new integer coordinates to
    ``ix_out``/``iy_out``; the caller re-encodes ``icell`` (the curve
    encode is vectorized Python and must stay outside ``@njit``).
    """
    for p in prange(icell.size):
        c = icell[p]
        fx = dx[p]
        fy = dy[p]
        w00 = (1.0 - fx) * (1.0 - fy)
        w01 = (1.0 - fx) * fy
        w10 = fx * (1.0 - fy)
        w11 = fx * fy
        ex_p = (
            w00 * e_1d[c, 0] + w01 * e_1d[c, 1] + w10 * e_1d[c, 2] + w11 * e_1d[c, 3]
        )
        ey_p = (
            w00 * e_1d[c, 4] + w01 * e_1d[c, 5] + w10 * e_1d[c, 6] + w11 * e_1d[c, 7]
        )
        if coef_x == 1.0:
            v_x = vx[p] + ex_p
        else:
            v_x = vx[p] + coef_x * ex_p
        if coef_y == 1.0:
            v_y = vy[p] + ey_p
        else:
            v_y = vy[p] + coef_y * ey_p
        vx[p] = v_x
        vy[p] = v_y
        x = ix_old[p] + fx + scale_x * v_x
        y = iy_old[p] + fy + scale_y * v_y
        i, d = _wrap_axis(x, ncx, variant)
        j, e = _wrap_axis(y, ncy, variant)
        ix_out[p] = i
        iy_out[p] = j
        dx[p] = d
        dy[p] = e


@njit(parallel=True, **_JIT)
def fused_standard_njit(
    ex, ey, ix_old, iy_old, dx, dy, vx, vy,
    coef_x, coef_y, scale_x, scale_y, variant, ix_out, iy_out,
):
    """Fused pass over the point-based field layout (wrapped gathers)."""
    ncx, ncy = ex.shape
    for p in prange(ix_old.size):
        i0 = ix_old[p]
        j0 = iy_old[p]
        fx = dx[p]
        fy = dy[p]
        ip = (i0 + 1) % ncx
        jp = (j0 + 1) % ncy
        w00 = (1.0 - fx) * (1.0 - fy)
        w01 = (1.0 - fx) * fy
        w10 = fx * (1.0 - fy)
        w11 = fx * fy
        ex_p = (
            w00 * ex[i0, j0] + w01 * ex[i0, jp] + w10 * ex[ip, j0] + w11 * ex[ip, jp]
        )
        ey_p = (
            w00 * ey[i0, j0] + w01 * ey[i0, jp] + w10 * ey[ip, j0] + w11 * ey[ip, jp]
        )
        if coef_x == 1.0:
            v_x = vx[p] + ex_p
        else:
            v_x = vx[p] + coef_x * ex_p
        if coef_y == 1.0:
            v_y = vy[p] + ey_p
        else:
            v_y = vy[p] + coef_y * ey_p
        vx[p] = v_x
        vy[p] = v_y
        x = i0 + fx + scale_x * v_x
        y = j0 + fy + scale_y * v_y
        i, d = _wrap_axis(x, ncx, variant)
        j, e = _wrap_axis(y, ncy, variant)
        ix_out[p] = i
        iy_out[p] = j
        dx[p] = d
        dy[p] = e


# ----------------------------------------------------------------------
# Thread-parallel deposit — §V-B private copies + reduction, made
# bitwise-deterministic by cell ownership
# ----------------------------------------------------------------------
@njit(parallel=True, **_JIT)
def accumulate_redundant_parallel_njit(rho_1d, icell, dx, dy, charge):
    """Parallel CiC scatter via private ``rho[nthreads][ncell][4]`` copies.

    §V-B's racing-free scheme with one twist that buys bitwise
    determinism: instead of splitting the *particles* (whose reduction
    re-associates each bin's sum at thread boundaries), every thread
    owns a contiguous *cell* range, scans the whole particle array, and
    deposits only the particles it owns into its private copy.  Within
    a bin the contributions then arrive in particle order — the order
    the serial deposit sums them — and the reduction touches disjoint
    rows, so the result is bitwise equal to the serial NumPy deposit
    and invariant to the thread count.  The price is ``nthreads``
    concurrent read passes over ``icell``; the weight arithmetic
    (``w * charge``, products left-associated) matches
    :func:`repro.core.kernels.accumulate_redundant` exactly.
    """
    nthreads = get_num_threads()
    ncell = rho_1d.shape[0]
    priv = np.zeros((nthreads, ncell, 4), dtype=np.float64)
    for t in prange(nthreads):
        lo = t * ncell // nthreads
        hi = (t + 1) * ncell // nthreads
        for p in range(icell.size):
            c = icell[p]
            if lo <= c < hi:
                fx = dx[p]
                fy = dy[p]
                priv[t, c, 0] += ((1.0 - fx) * (1.0 - fy)) * charge
                priv[t, c, 1] += ((1.0 - fx) * fy) * charge
                priv[t, c, 2] += (fx * (1.0 - fy)) * charge
                priv[t, c, 3] += (fx * fy) * charge
        # reduce this thread's owned rows — disjoint across threads, so
        # the reduction needs no ordering and stays inside the region
        for c in range(lo, hi):
            for k in range(4):
                rho_1d[c, k] += priv[t, c, k]


# ----------------------------------------------------------------------
# §IV-E counting sort — the O(N + C) cursor loop, compiled
# ----------------------------------------------------------------------
@njit(**_JIT)
def counting_sort_permutation_njit(keys, ncells):
    """Histogram + exclusive prefix sum + stable scatter, O(N + C).

    Compiled twin of
    :func:`repro.particles.sorting.counting_sort_permutation_reference`;
    produces the identical (stable) permutation, so backends can swap
    it in for the SciPy scatter without changing results.
    """
    counts = np.zeros(ncells, dtype=np.int64)
    for p in range(keys.size):
        counts[keys[p]] += 1
    cursor = np.empty(ncells, dtype=np.int64)
    acc = np.int64(0)
    for c in range(ncells):
        cursor[c] = acc
        acc += counts[c]
    perm = np.empty(keys.size, dtype=np.int64)
    for p in range(keys.size):
        k = keys[p]
        perm[cursor[k]] = p
        cursor[k] += 1
    return perm


# ----------------------------------------------------------------------
# 3D kernels — trilinear 8-corner forms
# ----------------------------------------------------------------------
@njit(**_JIT)
def accumulate_redundant_3d_njit(rho_1d, icell, dx, dy, dz, charge):
    for p in range(icell.size):
        c = icell[p]
        fx = dx[p]
        fy = dy[p]
        fz = dz[p]
        # corner bits (b2 b1 b0) = (x y z); bit set -> factor d, else 1-d
        for corner in range(8):
            wx = fx if corner & 4 else 1.0 - fx
            wy = fy if corner & 2 else 1.0 - fy
            wz = fz if corner & 1 else 1.0 - fz
            rho_1d[c, corner] += charge * wx * wy * wz


@njit(parallel=True, **_JIT)
def interpolate_redundant_3d_njit(e_1d, icell, dx, dy, dz, ex, ey, ez):
    for p in prange(icell.size):
        c = icell[p]
        fx = dx[p]
        fy = dy[p]
        fz = dz[p]
        sx = 0.0
        sy = 0.0
        sz = 0.0
        for corner in range(8):
            wx = fx if corner & 4 else 1.0 - fx
            wy = fy if corner & 2 else 1.0 - fy
            wz = fz if corner & 1 else 1.0 - fz
            w = wx * wy * wz
            sx += w * e_1d[c, corner]
            sy += w * e_1d[c, 8 + corner]
            sz += w * e_1d[c, 16 + corner]
        ex[p] = sx
        ey[p] = sy
        ez[p] = sz


@njit(parallel=True, **_JIT)
def fused_redundant_3d_njit(
    e_1d, icell, ix_old, iy_old, iz_old, dx, dy, dz, vx, vy, vz,
    coef_x, coef_y, coef_z, scale_x, scale_y, scale_z,
    ncx, ncy, ncz, variant, ix_out, iy_out, iz_out,
):
    """3D interpolate + kick + push, one ``prange`` pass.

    Straight generalization of :func:`fused_redundant_njit`: read the
    24-value field row, kick the three velocity components, advance and
    wrap each axis with the §IV-C ``variant`` wrap.  Writes the new
    offsets/velocities in place and the integer coordinates to the
    ``*_out`` arrays; the caller re-encodes ``icell`` (the space-filling
    curve encode stays outside ``@njit``).  The gather accumulates
    corner terms in the same order as
    :func:`interpolate_redundant_3d_njit`, so fused-vs-split on *this*
    backend is bitwise; versus the NumPy einsum gather it is
    tolerance-class, like the 2D fused kernels.
    """
    for p in prange(icell.size):
        c = icell[p]
        fx = dx[p]
        fy = dy[p]
        fz = dz[p]
        sx = 0.0
        sy = 0.0
        sz = 0.0
        for corner in range(8):
            wx = fx if corner & 4 else 1.0 - fx
            wy = fy if corner & 2 else 1.0 - fy
            wz = fz if corner & 1 else 1.0 - fz
            w = wx * wy * wz
            sx += w * e_1d[c, corner]
            sy += w * e_1d[c, 8 + corner]
            sz += w * e_1d[c, 16 + corner]
        if coef_x == 1.0:
            v_x = vx[p] + sx
        else:
            v_x = vx[p] + coef_x * sx
        if coef_y == 1.0:
            v_y = vy[p] + sy
        else:
            v_y = vy[p] + coef_y * sy
        if coef_z == 1.0:
            v_z = vz[p] + sz
        else:
            v_z = vz[p] + coef_z * sz
        vx[p] = v_x
        vy[p] = v_y
        vz[p] = v_z
        x = ix_old[p] + fx + scale_x * v_x
        y = iy_old[p] + fy + scale_y * v_y
        z = iz_old[p] + fz + scale_z * v_z
        i, d = _wrap_axis(x, ncx, variant)
        j, e = _wrap_axis(y, ncy, variant)
        k, f = _wrap_axis(z, ncz, variant)
        ix_out[p] = i
        iy_out[p] = j
        iz_out[p] = k
        dx[p] = d
        dy[p] = e
        dz[p] = f


@njit(parallel=True, **_JIT)
def accumulate_redundant_parallel_3d_njit(rho_1d, icell, dx, dy, dz, charge):
    """Cell-ownership parallel trilinear scatter (8-column rows).

    Same §V-B private-copies + disjoint-row reduction scheme as
    :func:`accumulate_redundant_parallel_njit`; the per-corner weight
    arithmetic (``charge * wx * wy * wz``) matches
    :func:`accumulate_redundant_3d_njit` term for term, so tiled /
    parallel deposits on the numba backend are bitwise equal to its own
    serial 3D deposit at any thread count.
    """
    nthreads = get_num_threads()
    ncell = rho_1d.shape[0]
    priv = np.zeros((nthreads, ncell, 8), dtype=np.float64)
    for t in prange(nthreads):
        lo = t * ncell // nthreads
        hi = (t + 1) * ncell // nthreads
        for p in range(icell.size):
            c = icell[p]
            if lo <= c < hi:
                fx = dx[p]
                fy = dy[p]
                fz = dz[p]
                for corner in range(8):
                    wx = fx if corner & 4 else 1.0 - fx
                    wy = fy if corner & 2 else 1.0 - fy
                    wz = fz if corner & 1 else 1.0 - fz
                    priv[t, c, corner] += charge * wx * wy * wz
        for c in range(lo, hi):
            for k in range(8):
                rho_1d[c, k] += priv[t, c, k]
