"""Measured data movement of the parallel deposit + costmodel calibration.

The cache/cost models in this package *predict* paper-machine
behaviour; this module complements them with oclude-style **measured**
accounting of what the ``numpy-mp`` deposit actually moves on the
host, and a fitting routine that pulls the cost model's free stall
parameters toward real wall-clock measurements:

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
* :func:`fit_stall_overlap` — calibrate
  :class:`repro.perf.costmodel.LoopCostModel` against a measured
  ``--timings-json`` record: a deterministic grid search over
  ``stall_overlap`` with a closed-form least-squares host frequency
  scale, so the same record always produces the identical calibration
  (the property ``repro calibrate`` exposes).

Everything here *observes*; nothing feeds back into kernel execution,
so recording data movement can never change the physics — the deposit
stays bitwise-identical with the ledger on or off.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_CALIBRATION_MISSES",
    "deposit_movement",
    "rusage_sample",
    "fit_stall_overlap",
]

#: Per-loop per-particle miss counts assumed by the calibration when
#: the caller supplies none (the Table II-shaped defaults the sort
#: autotuner also uses).  Keys are :class:`~repro.perf.costmodel.
#: LoopKind` values.
DEFAULT_CALIBRATION_MISSES = {
    "update_v": {"L1": 1.1, "L2": 0.11, "L3": 0.03},
    "update_x": {"L1": 0.9},
    "accumulate": {"L1": 0.76, "L2": 0.06, "L3": 0.02},
}

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


def fit_stall_overlap(
    record: dict,
    machine=None,
    config=None,
    misses: dict | None = None,
    grid_points: int = 101,
) -> dict:
    """Fit the cost model's stall parameters to measured phase seconds.

    ``record`` is a ``--timings-json`` document — either the
    :meth:`repro.perf.instrument.Instrumentation.as_record` shape
    (phase seconds under ``"cumulative"``) or a bare
    :meth:`repro.perf.instrument.StepTimings.as_record`.  The model
    says a loop's run time is ``(instr + stall_overlap * raw_stall)
    * particle_steps / freq``; this routine grid-searches
    ``stall_overlap`` over ``[0, 1]`` (``grid_points`` samples) and,
    for each candidate, solves the least-squares host ``freq_scale``
    in closed form over the three particle loops, keeping the
    candidate with the smallest residual.  Deterministic by
    construction — no randomness, no wall clock — so the same record,
    machine and misses always yield the bit-identical calibration
    (``repro calibrate`` run twice writes equivalent documents).
    Thread-safety: pure function of its arguments (builds private
    model objects, shares nothing), safe to call concurrently from
    any thread or process.
    """
    from repro.core.config import OptimizationConfig
    from repro.perf.costmodel import LoopCostModel, LoopKind
    from repro.perf.machine import MachineSpec

    if machine is None:
        machine = MachineSpec.haswell()
    if config is None:
        config = OptimizationConfig.fully_optimized()
    misses = misses if misses is not None else DEFAULT_CALIBRATION_MISSES
    cum = record.get("cumulative", record)
    particle_steps = int(cum.get("particle_steps", 0))
    if particle_steps <= 0:
        raise ValueError("record carries no particle_steps to calibrate on")
    measured = {
        kind.value: float(cum.get(kind.value, 0.0)) for kind in LoopKind
    }
    if all(v <= 0.0 for v in measured.values()):
        raise ValueError("record carries no particle-loop seconds")

    # decompose each loop into its overlap-independent and
    # overlap-linear second terms (stall_overlap enters linearly)
    hz = machine.freq_ghz * 1e9
    base_model = LoopCostModel(machine, stall_overlap=0.0)
    full_model = LoopCostModel(machine, stall_overlap=1.0)
    instr_s, stall_s = {}, {}
    for kind in LoopKind:
        m = misses.get(kind.value)
        instr_s[kind.value] = (
            base_model.loop_costs(kind, config, m).cycles_per_particle
            * particle_steps / hz
        )
        stall_s[kind.value] = (
            full_model.loop_costs(kind, config, m).stall_cycles
            * particle_steps / hz
        )

    best = None
    for s in np.linspace(0.0, 1.0, int(grid_points)):
        model = {k: instr_s[k] + s * stall_s[k] for k in measured}
        num = sum(measured[k] * model[k] for k in measured)
        den = sum(model[k] ** 2 for k in measured)
        scale = num / den if den > 0 else 0.0
        resid = sum((measured[k] - scale * model[k]) ** 2 for k in measured)
        if best is None or resid < best[0]:
            best = (resid, float(s), float(scale), model)
    resid, stall_overlap, freq_scale, model = best
    return {
        "stall_overlap": stall_overlap,
        "freq_scale": freq_scale,
        "residual_rms_s": float(np.sqrt(resid / len(measured))),
        "machine": machine.name,
        "particle_steps": particle_steps,
        "steps": int(cum.get("steps", 0)),
        "loops": {
            k: {
                "measured_s": measured[k],
                "modeled_s": freq_scale * model[k],
                "instr_s": instr_s[k],
                "stall_s_at_full_overlap": stall_s[k],
            }
            for k in sorted(measured)
        },
        "misses_assumed": {k: dict(v) for k, v in sorted(misses.items())},
    }
