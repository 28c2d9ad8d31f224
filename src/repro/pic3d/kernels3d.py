"""3D particle kernels: trilinear deposit/gather.

The straight generalization of the 2D kernels: 8 corners with weights
``prod(c_i + s_i * d_i)``, one contiguous row per particle for both the
deposit and the gather.  Cache-blocked like the 2D kernels, through the
same block loop and deposit body of :mod:`repro.core.kernels`; the
§IV-C3 bitwise push is the dimension-generic
:func:`repro.core.kernels.push_blocked`, reached through
``KernelBackend.push_positions_3d``.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import blocks, deposit_rows

__all__ = [
    "corner_weights_3d",
    "accumulate_redundant_3d",
    "interpolate_redundant_3d",
]

# weight(corner c) = (cx + sx*dx)(cy + sy*dy)(cz + sz*dz), with the
# corner bit choosing between (1 - d) and d per axis
_C = np.array([[1.0 - ((c >> b) & 1) for c in range(8)] for b in (2, 1, 0)])
_S = np.array([[2.0 * ((c >> b) & 1) - 1.0 for c in range(8)] for b in (2, 1, 0)])


def corner_weights_3d(dx, dy, dz, corners=None) -> np.ndarray:
    """Trilinear CiC weights, ``(N, 8)``; rows sum to 1.  Corner-major
    in memory and restrictable to a ``corners`` subset, like
    :func:`repro.grid.fields.corner_weights`."""
    dx = np.asarray(dx, dtype=np.float64)
    dy = np.asarray(dy, dtype=np.float64)
    dz = np.asarray(dz, dtype=np.float64)
    sel = slice(None) if corners is None else corners
    c = _C[:, sel].reshape((3, -1) + (1,) * dx.ndim)
    s = _S[:, sel].reshape((3, -1) + (1,) * dx.ndim)
    w = (c[0] + s[0] * dx) * (c[1] + s[1] * dy) * (c[2] + s[2] * dz)
    return np.moveaxis(w, 0, -1)


def accumulate_redundant_3d(rho_1d, icell, dx, dy, dz, charge=1.0, corners=None) -> None:
    """Scatter CiC charge onto the 8-corner redundant rows (all of
    them, or only the ``corners`` columns)."""
    deposit_rows(
        rho_1d, icell,
        lambda sl: corner_weights_3d(dx[sl], dy[sl], dz[sl], corners) * charge,
        corners,
    )


def interpolate_redundant_3d(e_1d, icell, dx, dy, dz, out=None):
    """Gather (Ex, Ey, Ez) at particles from the 24-column rows, into
    fresh arrays or the triple passed as ``out``."""
    n = len(icell)
    ex, ey, ez = out if out is not None else (np.empty(n), np.empty(n), np.empty(n))
    for sl in blocks(n):
        rows = e_1d[np.asarray(icell[sl], dtype=np.int64)]  # (B, 24)
        # einsum picks its association from the operand strides: a
        # row-major (B, 8) copy keeps the bits of the original kernel
        w = np.ascontiguousarray(corner_weights_3d(dx[sl], dy[sl], dz[sl]))
        np.einsum("nc,nc->n", rows[:, 0:8], w, out=ex[sl])
        np.einsum("nc,nc->n", rows[:, 8:16], w, out=ey[sl])
        np.einsum("nc,nc->n", rows[:, 16:24], w, out=ez[sl])
    return ex, ey, ez

