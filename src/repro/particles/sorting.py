"""Counting sort of particles by cell index.

The paper sorts the particle array by ``icell`` every 20–50 iterations
(§II, §IV-E) so that particles contiguous in memory touch the same
field/charge cells.  Because the number of cells is much smaller than
the number of particles, a counting (bucket) sort is linear in N.

The paper applies the permutation out of place (§V-B1: a second
buffer, twice the memory, measured twice as fast as in place).  What
runs here is two steps: the counting sort builds an N-sized
permutation, then the store gathers every column through it
(:meth:`~repro.particles.storage.ParticleStorage.reorder`), one column
at a time into a spare column whose binding it then takes — out of
place, at one column's extra memory per dtype.  The in-place cycle
walk is priced by :mod:`repro.model` only.

Every function in this module is a pure function of its array inputs;
none keeps global mutable state, so all are thread-safe to call
concurrently.

The permutation itself (:func:`counting_sort_permutation`) is an LSD
radix sort over 16-bit digits of the cell index, each pass one stable
``np.argsort`` of a ``uint16`` digit, which NumPy runs as a counting
sort: one pass up to 2**16 cells, one more per further 16 bits of
``ncells - 1``.  The ``c`` backend runs the cursor loop itself
(``sort_permutation`` in ``ckernels.c``).

Per call, min of 9 (NumPy 2.4, one core of a 2-CPU x86-64 AVX-512
host), SciPy's COO→CSR scatter it replaced → these passes, in ms:
4,000 keys over 512 cells 0.10 → 0.027; 1M over 16,384 21.4 → 17.1
random, 12.3 → 9.8 nearly sorted (one key in ten moved by a cell);
two passes, 262,144 over 262,144 5.4 → 8.0, and the worst case, 1M
over 262,144 nearly sorted, 13.9 → 20.7 (only ``numpy`` runs it).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "counting_sort_permutation",
    "counting_sort_permutation_reference",
]


def counting_sort_permutation(keys: np.ndarray, ncells: int) -> np.ndarray:
    """Stable permutation sorting ``keys`` ascending — radix passes.

    One stable 16-bit argsort per digit of ``ncells - 1``, least
    significant first (the module docstring); O(N) per pass.

    Returns ``perm`` such that ``keys[perm]`` is sorted.

    Equivalence promise: stability makes the permutation *unique*, so
    every implementation in the repo (these passes, the Python
    reference, the C cursor loop) returns the bitwise-identical
    index array.  Thread-safety: a pure
    function of ``keys`` — no module state is touched, concurrent calls
    are safe.
    """
    keys = np.asarray(keys)
    n = keys.size
    if n and (keys.min() < 0 or keys.max() >= ncells):
        raise ValueError("keys out of range [0, ncells)")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    perm = np.argsort(keys.astype(np.uint16), kind="stable")
    for shift in range(16, (int(ncells) - 1).bit_length(), 16):
        digit = (keys[perm] >> shift).astype(np.uint16)
        perm = perm[np.argsort(digit, kind="stable")]
    return perm.astype(np.int64, copy=False)


def counting_sort_permutation_reference(keys: np.ndarray, ncells: int) -> np.ndarray:
    """Literal counting sort (histogram + prefix sum + scatter), Python loop.

    O(N + ncells); used as the oracle in tests and kept runnable for
    small N only.  Returns the permutation bitwise-identical to
    :func:`counting_sort_permutation` (stability fixes it uniquely).
    Thread-safety: pure function, safe to call concurrently.
    """
    keys = np.asarray(keys)
    counts = np.bincount(keys, minlength=ncells)
    starts = np.zeros(ncells, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    perm = np.empty(len(keys), dtype=np.int64)
    cursor = starts.copy()
    for p, k in enumerate(keys):
        perm[cursor[k]] = p
        cursor[k] += 1
    return perm

