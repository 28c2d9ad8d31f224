"""Measured data movement of the parallel deposit.

The cache/cost models of :mod:`repro.model` *predict* paper-machine
behaviour; this module is the oclude-style **measured** accounting of
what the ``numpy-mp`` deposit actually moves on the host:

* :func:`deposit_movement` — for one set of cell cuts + per-cell
  histogram, the per-range traffic ledger: particles owned, cell rows
  owned, bytes touched (key scan + attribute reads + slab traffic),
  and — when the active curve ordering is supplied — the spatial
  compactness of each range's rho region (bounding-box span and pairwise
  bounding-box overlap, the quantities Walker & Skjellum's SFC-segment
  argument is about).
* :func:`rusage_sample` — a :mod:`resource` counter snapshot (page
  faults, context switches, peak RSS) for parent and worker processes,
  so the ledger can be joined with OS-level movement evidence.

Everything here *observes*; nothing feeds back into kernel execution,
so recording data movement can never change the physics — the deposit
stays bitwise-identical with the ledger on or off.
"""

from __future__ import annotations

import numpy as np

__all__ = ["deposit_movement", "rusage_sample"]

_FLOAT = 8  # bytes per float64 / int64 element


def deposit_movement(
    cell_ranges,
    histogram,
    *,
    ordering=None,
    ndim: int = 2,
) -> dict:
    """Per-range bytes-touched / span / overlap ledger for one deposit.

    ``cell_ranges`` are the deposit's cell cuts (slices over the
    allocated cell rows), ``histogram`` the per-cell particle counts
    of the step.  Each range is served by one task per corner column,
    and the ledger (one ``per_worker`` entry per range — the name
    predates corner ownership) prices their real traffic: with more
    than one range, a full key scan per task to select its particles;
    the owned particles' key, ``ndim`` offset reads and weight
    write+read; and the slab-column write plus the parent-side
    reduction of its cells.  With
    ``ordering`` given (a 2D :class:`repro.curves.base.CellOrdering`
    or a 3D ordering), each range's occupied cells are decoded to grid
    coordinates and summarized as a bounding box (``[lo, hi]`` per
    axis, flattened): ``span_ratio`` (bbox volume / occupied
    cells, 1.0 = perfectly compact) and the total pairwise bbox
    ``overlap_cells`` across ranges — small, compact, disjoint
    regions are exactly what curve-segment partitioning buys.

    Pure measurement: deterministic in its inputs, touches no shared
    state, and never mutates the arrays it reads — so it is safe to
    call concurrently from any thread or process, and the deposit it
    describes stays bitwise-identical whether or not the ledger runs.
    """
    hist = np.asarray(histogram, dtype=np.int64)
    nalloc = int(hist.shape[0])
    prefix = np.concatenate([[0], np.cumsum(hist)])
    n_total = int(prefix[-1])
    per_worker: dict[str, dict] = {}
    boxes = []
    total_bytes = 0
    for w, sl in enumerate(cell_ranges):
        lo, hi = max(0, sl.start), min(nalloc, sl.stop)
        owned = int(prefix[hi] - prefix[lo]) if hi > lo else 0
        cells = max(0, hi - lo)
        bytes_touched = 2**ndim * _FLOAT * (  # one column task per corner
            (n_total if len(cell_ranges) > 1 else 0)  # selection key scan
            + owned * (3 + ndim)  # key, offset reads; weight write + read
            + cells * 4  # slab write; reduction: slab read, rho read+write
        )
        total_bytes += bytes_touched
        rec = {
            "particles": owned,
            "cells": cells,
            "bytes": int(bytes_touched),
        }
        if ordering is not None and cells:
            occ = lo + np.flatnonzero(hist[lo:hi])
            if occ.size:
                box = [(int(c.min()), int(c.max())) for c in ordering.decode(occ)]
                rec["bbox"] = [edge for side in box for edge in side]
                rec["span_ratio"] = (
                    int(np.prod([hi_ - lo_ + 1 for lo_, hi_ in box])) / occ.size
                )
                boxes.append(box)
        per_worker[f"worker{w}"] = rec
    overlap = 0
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            shared = [
                min(a[1], b[1]) - max(a[0], b[0]) + 1
                for a, b in zip(boxes[i], boxes[j])
            ]
            if min(shared) > 0:
                overlap += int(np.prod(shared))
    from repro.parallel.partition import balance_ratio

    out = {
        "particles": n_total,
        "balance_ratio": balance_ratio(cell_ranges, hist),
        "total_bytes": int(total_bytes),
        "per_worker": per_worker,
    }
    if ordering is not None:
        out["bbox_overlap_cells"] = int(overlap)
    return out


def rusage_sample() -> dict | None:
    """Snapshot of :mod:`resource` counters for this process + children.

    Returns ``{"self": {...}, "children": {...}}`` with minor/major
    page faults, voluntary/involuntary context switches and peak RSS —
    the ``children`` row aggregates reaped ``numpy-mp`` worker
    processes, so deltas across a run bound the engine's real paging
    and scheduling traffic.  Returns ``None`` where :mod:`resource` is
    unavailable (non-POSIX hosts) so callers can gate on it.  A pure
    read of kernel counters: deterministic in what it reports (the
    counters themselves, not a model), mutates nothing, and is safe to
    call concurrently from any thread.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None

    def _row(who):
        ru = resource.getrusage(who)
        return {
            "minflt": int(ru.ru_minflt),
            "majflt": int(ru.ru_majflt),
            "nvcsw": int(ru.ru_nvcsw),
            "nivcsw": int(ru.ru_nivcsw),
            "maxrss_kb": int(ru.ru_maxrss),
        }

    return {
        "self": _row(resource.RUSAGE_SELF),
        "children": _row(resource.RUSAGE_CHILDREN),
    }
