#!/usr/bin/env python
"""Performance gates: fused must not lose to splitting; balanced cuts must not lose.

Two executable performance claims, checked in one run:

**Fused gate** — the backend's single sweep over the particle arrays
against three split passes.  The claim is that fusing costs nothing
beyond noise: on ``numpy`` both paths run the same cache-blocked
kernels in a different order; on the compiled ``c`` backend the sweep
saves the split passes' re-streaming of the arrays and the
per-particle field, but these scalar loops are compute-bound here and
the saving measured within noise of zero (:data:`COMPILED_FUSED_FLOOR`):

* measure split vs fused on the preferred available backend (``c``,
  else numpy) via
  :func:`benchmarks.bench_simulation_throughput.measure_loop_modes`,
  ``--repeats`` fresh pairs of runs, the two modes stepped
  *alternately* for ``--steps`` steps; each side's **fastest step** is
  compared.  (This host's speed wanders by ±20 % within seconds: the
  previous protocol — one window per mode, min of the run means — read
  0.97–1.28 over eight trials of an unchanged build; this one reads
  1.04–1.15, EXPERIMENTS.md.)
* **fail** (exit 1) if the fused/split kernel speedup is below the
  floor: :data:`COMPILED_FUSED_FLOOR` on a compiled backend,
  :data:`NUMPY_FUSED_FLOOR` on numpy (``--min-speedup`` overrides
  either);
* report the deposit+interpolate phase speedup against the paper-scale
  target (``--target-speedup``, default 1.5) on a compiled backend — a
  warning, not a failure, since it depends on core count and memory
  bandwidth.

Every backend has a fused sweep, so this gate always runs.

**Partition gate** — on a skewed plasma the histogram-balanced curve
cuts (:mod:`repro.parallel.partition`) must not lose to the flat
equal-cell split on the deposit's critical path:

* build a 90%-clumped particle population, cut the cell rows both ways
  (``partition_cells`` without and with the histogram), and time each
  shard's deposit; the *max* shard time is the critical path a worker
  pool would wait on, min-of-``--repeats`` windows (min-of-k is the
  only robust statistic on a noisy box — a single window routinely
  reads 1.5x on a true 1.1x);
* **fail** (exit 1) if the balanced critical path exceeds
  ``--max-partition-ratio`` (default 1.10) times the flat one, or if
  the balanced cuts do not strictly improve the max/mean particle
  balance ratio — the quantity the whole subsystem exists to shrink.

This gate always runs: it needs only the pure-numpy backend.

Wired into ``make bench-gate`` (and ``make check``, whose closing
summary replays the ``gate-status:`` line each gate prints — ``ran`` or
``skipped(<reason>)``).  Pass ``--update-baseline`` to refresh
``BENCH_baseline.json`` with the measured numbers.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Fused-gate floor on the pure-NumPy backends, where fused and split
#: run the same blocked kernels: "not slower beyond min-of-k noise".
#: Ten consecutive runs on the 2-core reference host read 0.86-1.06,
#: median 0.92 (EXPERIMENTS.md, "bench-gate on numpy"): 0.80 passes
#: 10/10 there and still trips on a rendering that costs a quarter more
#: (the deleted stepper-level chunk loop read 0.5 on sparse cells).
NUMPY_FUSED_FLOOR = 0.80
#: The same floor on a compiled backend.  It was 1.0 ("fused must
#: win"), which an unchanged tree failed on about half the runs: ten
#: consecutive runs on ``c`` on the 2-core reference host read
#: 0.95-1.04, median 0.975 (EXPERIMENTS.md, "The fused gate on `c`:
#: ten runs").  0.90 passes all
#: ten and still trips on a sweep that costs a tenth more than split.
COMPILED_FUSED_FLOOR = 0.90
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))


def _skewed_partition_times(backend_name, n, nworkers, repeats):
    """Deposit critical path (max shard time), flat vs balanced cuts.

    Builds a 90%-clumped population on a 4096-cell curve, cuts the
    cell rows with ``partition_cells`` both ways, and times each
    shard's deposit on the frozen arrays.  The max shard time per
    window is what a fork-join pool would wait on; min-of-``repeats``
    windows is compared.  Particles are pre-sorted by cell so shard
    selection is a pair of ``searchsorted`` probes — the timing
    isolates the deposit itself, the quantity the cuts redistribute.
    """
    import time

    import numpy as np

    from repro.core.backends import get_backend
    from repro.parallel.partition import balance_ratio, partition_cells

    backend = get_backend(backend_name)
    rng = np.random.default_rng(2026)
    ncells = 4096
    n_hot = int(0.9 * n)
    icell = np.sort(np.concatenate([
        rng.integers(0, ncells // 16, size=n_hot),
        rng.integers(0, ncells, size=n - n_hot),
    ]).astype(np.int64))
    dx, dy = rng.random(n), rng.random(n)
    hist = np.bincount(icell, minlength=ncells)
    rho = np.zeros((ncells, 4))

    def critical_path(ranges):
        best = float("inf")
        for _ in range(repeats):
            rho[:] = 0.0
            worst = 0.0
            for sl in ranges:
                if sl.stop <= sl.start:
                    continue
                lo, hi = np.searchsorted(icell, (sl.start, sl.stop))
                if hi <= lo:
                    continue
                t0 = time.perf_counter()
                backend.accumulate_rows(
                    rho[sl.start:sl.stop], icell[lo:hi] - sl.start,
                    (dx[lo:hi], dy[lo:hi]), 1.0,
                )
                worst = max(worst, time.perf_counter() - t0)
            best = min(best, worst)
        return best

    flat = partition_cells(ncells, nworkers)
    balanced = partition_cells(ncells, nworkers, hist)
    return {
        "particles": int(n),
        "cells": ncells,
        "workers": int(nworkers),
        "flat_critical_s": critical_path(flat),
        "balanced_critical_s": critical_path(balanced),
        "flat_balance_ratio": balance_ratio(flat, hist),
        "balanced_balance_ratio": balance_ratio(balanced, hist),
    }


def main(argv=None):
    from bench_simulation_throughput import measure_loop_modes

    from repro.core.backends import NumpyBackend, available_backends, get_backend

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--particles", type=int, default=1_000_000,
                    help="population for the gate run (default: 1M)")
    ap.add_argument("--steps", type=int, default=8)
    ap.add_argument("--warmup-steps", type=int, default=1)
    ap.add_argument("--backend", default=None,
                    help="backend to gate (default: best available)")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="hard gate: split/fused kernel-time ratio floor "
                         f"(default: {COMPILED_FUSED_FLOOR} on a compiled "
                         f"backend, {NUMPY_FUSED_FLOOR} on numpy)")
    ap.add_argument("--target-speedup", type=float, default=1.5,
                    help="soft target on the deposit+interpolate phases")
    ap.add_argument("--repeats", type=int, default=5,
                    help="measurements per side in both gates; "
                         "min-of-k is compared (default 5)")
    ap.add_argument("--max-partition-ratio", type=float, default=1.10,
                    help="hard gate: on the skewed workload the "
                         "histogram-balanced deposit critical path may "
                         "cost at most this factor of the equal-cell "
                         "split's (default 1.10)")
    ap.add_argument("--partition-workers", type=int, default=4,
                    help="shard count for the partition gate (default 4)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="write the measurements into BENCH_baseline.json")
    args = ap.parse_args(argv)

    measured: dict[str, dict] = {}

    def measure(backend):
        if backend not in measured:
            print(f"bench-gate: measuring split vs fused on "
                  f"{backend!r} (n={args.particles}, steps={args.steps}, "
                  f"min of {args.repeats})", flush=True)
            runs = [
                measure_loop_modes(
                    backend, args.particles, args.steps, args.warmup_steps
                )
                for _ in range(args.repeats)
            ]
            measured[backend] = {
                mode: min(
                    (run[mode] for run in runs),
                    key=lambda rec: rec["best_kernel_seconds"],
                )
                for mode in runs[0]
            }
        return measured[backend]

    failures = []

    # -- gate 1: fused vs split on the preferred available backend ---
    if args.backend and args.backend not in available_backends():
        print(f"bench-gate: FAIL — backend {args.backend!r} is not "
              f"available here (available: {available_backends()})")
        return 1
    fused_backend = args.backend or max(
        available_backends(), key=lambda b: get_backend(b).priority
    )
    # numpy and numpy-mp fuse by re-ordering their own kernels; a
    # backend that overrides the sweep brings a compiled one
    compiled = (
        type(get_backend(fused_backend)).fused_rows
        is not NumpyBackend.fused_rows
    )
    if not compiled:
        print("gate-status: bench-gate/fused-compiled skipped(no cc)")
    min_speedup = args.min_speedup
    if min_speedup is None:
        min_speedup = COMPILED_FUSED_FLOOR if compiled else NUMPY_FUSED_FLOOR

    print("gate-status: bench-gate/fused ran")
    rec = measure(fused_backend)
    split, fused = rec["split"], rec["fused"]

    kernel_speedup = (
        split["best_kernel_seconds"] / fused["best_kernel_seconds"]
        if fused["best_kernel_seconds"] > 0 else float("inf")
    )
    # deposit+interpolate: the phases the paper's §V-B numbers
    # isolate.  Split renders interpolation inside update_v; fused
    # folds it into the single-pass kernel — either way deposit
    # rides along.
    split_di = (split["phase_seconds"]["update_v"]
                + split["phase_seconds"]["accumulate"])
    fused_di = (fused["phase_seconds"]["fused"]
                + fused["phase_seconds"]["accumulate"])
    di_speedup = split_di / fused_di if fused_di > 0 else float("inf")

    for mode, r in (("split", split), ("fused", fused)):
        print(f"  {mode:6s}: {r['best_kernel_seconds'] * 1e3:8.2f} "
              f"ms kernels in the fastest step, "
              f"{r['particles_per_second'] / 1e6:7.2f} "
              f"M particle-steps/s  (paths: {r['loop_paths']})")
    print(f"  fused kernel speedup:              {kernel_speedup:5.2f}x "
          f"(gate: >= {min_speedup:.2f}x)")
    if compiled:
        print(f"  deposit+interpolate phase speedup: {di_speedup:5.2f}x "
              f"(target: >= {args.target_speedup:.2f}x)")

    if kernel_speedup < min_speedup:
        failures.append(
            f"fused path is slower than split on {fused_backend!r} "
            f"({kernel_speedup:.2f}x < {min_speedup:.2f}x)"
        )
    elif compiled and di_speedup < args.target_speedup:
        print(f"  (warning: deposit+interpolate speedup "
              f"{di_speedup:.2f}x below the {args.target_speedup:.2f}x "
              f"target on this machine)")

    # -- gate 2: balanced cuts must not lose on a skewed plasma -------
    print("gate-status: bench-gate/partition ran")
    part_backend = max(
        available_backends(), key=lambda b: get_backend(b).priority
    )
    part = _skewed_partition_times(
        part_backend, args.particles, args.partition_workers, args.repeats
    )
    part_ratio = (
        part["balanced_critical_s"] / part["flat_critical_s"]
        if part["flat_critical_s"] > 0 else 1.0
    )
    print(f"  partition gate on {part_backend!r} "
          f"({part['workers']} shards, 90% skew): critical path "
          f"balanced {part['balanced_critical_s'] * 1e3:.2f} ms vs flat "
          f"{part['flat_critical_s'] * 1e3:.2f} ms (min of "
          f"{args.repeats}) — ratio {part_ratio:.2f}x "
          f"(gate: <= {args.max_partition_ratio:.2f}x); balance "
          f"{part['balanced_balance_ratio']:.2f} vs "
          f"{part['flat_balance_ratio']:.2f} max/mean")
    if part_ratio > args.max_partition_ratio:
        failures.append(
            f"histogram-balanced deposit critical path costs "
            f"{part_ratio:.2f}x the flat split on the skewed workload "
            f"(> {args.max_partition_ratio:.2f}x)"
        )
    if part["balanced_balance_ratio"] >= part["flat_balance_ratio"]:
        failures.append(
            f"histogram-balanced cuts do not improve the balance ratio "
            f"({part['balanced_balance_ratio']:.2f} >= "
            f"{part['flat_balance_ratio']:.2f})"
        )

    if args.update_baseline:
        path = ROOT / "BENCH_baseline.json"
        doc = json.loads(path.read_text()) if path.exists() else {
            "meta": {}, "results": {},
        }
        for backend, rec in measured.items():
            doc["results"][backend] = rec
        doc["results"]["partition-gate"] = dict(part, backend=part_backend)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"  updated {path}")

    if failures:
        for f in failures:
            print(f"bench-gate: FAIL — {f}")
        return 1
    print("bench-gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
