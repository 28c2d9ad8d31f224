"""Morton (Z-order, Lebesgue) ordering via dilated integers, in 2D and 3D.

Implements the constant-time dilation/undilation of Raman & Wise,
"Converting to and from Dilated Integers" (IEEE Trans. Computers 57(4),
2008) — the paper selects their Algorithm 5 (shift-and-mask, no lookup
table) precisely because the lookup-table variant creates an
indirection that defeats vectorization (§IV-B).  The shift-and-mask
form below is branch-free and fully vectorized over numpy arrays.

§VI notes that "formulas also exist for space-filling curves in three
dimensions": dilation is one formula for any number of axes, with one
shift-and-mask schedule per axis count — the table
``ckernels.c::dilate`` holds too.

Axis 0 (x) is the most significant of the interleaved bits and the last
axis the least, so that, like row-major, small moves along the last
axis perturb the index least.  For rectangular power-of-two grids the
low ``min(log2 extent)`` bits of every axis are interleaved and the
surplus high bits of the longer axes are appended above them, axis by
axis, preserving bijectivity onto ``[0, ncells)``.
"""

from __future__ import annotations

import numpy as np

from repro.curves.base import CellOrdering, register_ordering, require_power_of_two

__all__ = ["dilate", "undilate", "MortonOrdering"]

#: per number of axes: the unsigned type the dilated value lives in and
#: the ``(shift, mask)`` of every round.  16 bits an axis: a 2D value
#: dilates into 32 bits in four rounds, a 3D one into 48 in five.
_SCHEDULES = {
    2: (np.uint32, ((8, 0x00FF00FF), (4, 0x0F0F0F0F), (2, 0x33333333),
                    (1, 0x55555555))),
    3: (np.uint64, ((32, 0xFFFF00000000FFFF), (16, 0x00FF0000FF0000FF),
                    (8, 0xF00F00F00F00F00F), (4, 0x30C30C30C30C30C3),
                    (2, 0x9249249249249249))),
}


def dilate(x, ndim: int = 2) -> np.ndarray:
    """Insert ``ndim - 1`` zero bits above every bit of a 16-bit integer.

    ``abc`` (bits) becomes ``0a0b0c`` in 2D and ``00a00b00c`` in 3D.
    Vectorized shift-and-mask (Raman & Wise Alg. 5 family); accepts any
    integer array, uses only the low 16 bits.
    """
    u, rounds = _SCHEDULES[ndim]
    x = np.asarray(x).astype(u) & u(0xFFFF)
    for shift, mask in rounds:
        x = (x | (x << u(shift))) & u(mask)
    return x


def undilate(x, ndim: int = 2) -> np.ndarray:
    """Inverse of :func:`dilate`: keep every ``ndim``-th bit, compact them."""
    u, rounds = _SCHEDULES[ndim]
    x = np.asarray(x).astype(u) & u(rounds[-1][1])
    # the rounds backwards, each masking with its predecessor's mask
    masks = [mask for _shift, mask in rounds[-2::-1]] + [0xFFFF]
    for (shift, _mask), mask in zip(rounds[::-1], masks):
        x = (x | (x >> u(shift))) & u(mask)
    return x


class MortonOrdering(CellOrdering):
    """Z-order layout of a power-of-two grid, 2D or 3D.

    The update-velocities and accumulate loops become *cache-oblivious*
    under this order (paper §IV-B): unlike L4D there is no tile-size
    parameter to tune against the cache geometry.
    """

    name = "morton"

    def __init__(self, *extents: int):
        super().__init__(*extents)
        self.logs = tuple(
            require_power_of_two(n, "nc" + a) for a, n in zip("xyz", self.shape)
        )
        #: Number of interleaved low bits per coordinate.
        self.shared_bits = min(self.logs)
        if max(self.logs) > 16:
            raise ValueError("MortonOrdering supports up to 2**16 cells per side")

    def encode(self, *coords):
        coords = [np.asarray(c, dtype=np.int64) for c in coords]
        nd, k = self.ndim, self.shared_bits
        u = _SCHEDULES[nd][0]
        mask = (1 << k) - 1
        # every axis masked first, then folded from the last axis up:
        # the order of these N-sized temporaries decides whether the
        # particle storage freed after them can be trimmed from the heap
        # before numpy-mp forks its workers (another order left
        # dense2d_mp2's peak RSS up to 37 % higher)
        low = [c & mask for c in coords]
        code = dilate(low[-1], nd)
        for a in range(nd - 2, -1, -1):
            code = code | (dilate(low[a], nd) << u(nd - 1 - a))
        code = code.astype(np.int64)
        # Surplus high bits of the longer axes sit above the nd*k
        # interleaved bits, keeping the map bijective on boxes.
        shift = nd * k
        for c, log in zip(coords, self.logs):
            if log > k:
                code = code | ((c >> k) << shift)
                shift += log - k
        return code

    def decode(self, icell):
        icell = np.asarray(icell, dtype=np.int64)
        nd, k = self.ndim, self.shared_bits
        u = _SCHEDULES[nd][0]
        low = (icell & ((1 << (nd * k)) - 1)).astype(u)
        coords = [
            undilate(low >> u(nd - 1 - a), nd).astype(np.int64) for a in range(nd)
        ]
        shift = nd * k
        for a, log in enumerate(self.logs):
            if log > k:
                high = (icell >> shift) & ((1 << (log - k)) - 1)
                coords[a] = coords[a] | (high << k)
                shift += log - k
        return tuple(coords)


register_ordering("morton", MortonOrdering)
