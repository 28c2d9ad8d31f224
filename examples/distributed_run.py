#!/usr/bin/env python
"""Distributed PIC on simulated MPI — §V-A's scheme, executed for real.

Runs the same Landau-damping problem on 1, 2, and 4 simulated MPI
ranks (thread-backed, real allreduce over numpy buffers) and shows the
field-energy histories are bitwise identical: no domain decomposition,
no particle migration, one collective per step.  Then prints the
modeled weak-scaling behaviour at Curie scale (Fig. 7's story).

Run:  python examples/distributed_run.py
"""

import numpy as np

from repro.core import OptimizationConfig
from repro.model.hybrid import run_distributed_landau
from repro.model.scaling import weak_scaling_series


def main():
    print("--- executed runs (simulated MPI, 12k particles, 30 steps) ---")
    results = {}
    for nranks in (1, 2, 4):
        results[nranks] = run_distributed_landau(nranks, 12_000, 30)
        fe = results[nranks]["field_energy"]
        print(f"{nranks} rank(s): FE[0]={fe[0]:.6e}  FE[15]={fe[15]:.6e}  "
              f"FE[29]={fe[29]:.6e}")

    base = results[1]["field_energy"]
    for nranks in (2, 4):
        diff = np.max(np.abs(results[nranks]["field_energy"] - base) / base)
        print(f"max relative deviation {nranks} ranks vs serial: {diff:.2e} "
              "(allreduce sums in rank order -> deterministic)")

    print("\n--- modeled weak scaling at Curie scale "
          "(50M particles/core, 128x128 grid, 100 iterations) ---")
    cfg = OptimizationConfig.fully_optimized().with_(sort_period=50)
    cores = [2**k for k in range(0, 14)]
    grid_bytes = 128 * 128 * 8
    pure = weak_scaling_series(cores, 50_000_000, grid_bytes, 100,
                               threads_per_rank=1, config=cfg)
    hybrid = weak_scaling_series([c for c in cores if c >= 8], 50_000_000,
                                 grid_bytes, 100, threads_per_rank=8, config=cfg)
    hyb_by_cores = {p.cores: p for p in hybrid}
    print(f"{'cores':>6s} {'pure exec':>10s} {'pure comm%':>11s} "
          f"{'hybrid exec':>12s} {'hybrid comm%':>13s}")
    for p in pure:
        h = hyb_by_cores.get(p.cores)
        hyb_txt = (f"{h.exec_seconds:11.1f}s {100 * h.comm_fraction:12.1f}%"
                   if h else f"{'—':>12s} {'—':>13s}")
        print(f"{p.cores:6d} {p.exec_seconds:9.1f}s {100 * p.comm_fraction:10.1f}% {hyb_txt}")
    print("\nThe pure-MPI allreduce dominates past ~2k cores while the hybrid "
          "scheme (one rank per socket, 16x fewer ranks) stays usable — "
          "the paper's Fig. 7.")


if __name__ == "__main__":
    main()
