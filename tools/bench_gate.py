#!/usr/bin/env python
"""Performance gate: histogram-balanced cuts must not lose to equal cells.

On a skewed plasma the histogram-balanced curve cuts
(:mod:`repro.parallel.partition`) must not lose to the flat equal-cell
split on the deposit's critical path:

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

The gate always runs: it needs only the pure-numpy backend.

Wired into ``make bench-gate`` (and ``make check``, whose closing
summary replays the ``gate-status:`` line the gate prints).  Pass
``--update-baseline`` to refresh the ``partition-gate`` row of
``BENCH_baseline.json`` with the measured numbers.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(ROOT / "src"))


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
    from repro.core.backends import available_backends, get_backend

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--particles", type=int, default=1_000_000,
                    help="population for the gate run (default: 1M)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="measurements per side; min-of-k is compared "
                         "(default 5)")
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

    failures = []
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
