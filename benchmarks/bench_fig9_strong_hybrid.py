"""Fig. 9: hybrid strong scaling, 800M particles, 1-64 nodes.

Paper: 256x256 grid, 800M particles (the maximum that fits one node's
memory), 100 iterations, sort every 20, hybrid MPI+OpenMP on Curie.
Speedup vs 1 node is near-ideal early, then falls away: at 64 nodes
(1024 cores, only 6.25M particles per process) communication is 32% of
the total and the speedup is far from the ideal 64.
"""

from repro.model.config import ModelConfig
from repro.model.scaling import strong_scaling_hybrid

from conftest import run_once, write_result

NODES = (1, 2, 4, 8, 16, 32, 64)
N_TOTAL = 800_000_000
GRID_BYTES = 256 * 256 * 8


def test_fig9_strong_scaling(benchmark, resident_miss_data):
    cfg = ModelConfig.fully_optimized().with_(sort_period=20)
    misses = resident_miss_data

    def series():
        return strong_scaling_hybrid(
            NODES, N_TOTAL, GRID_BYTES, 100, config=cfg, misses=misses
        )

    points = run_once(benchmark, series)

    t1 = points[0].exec_seconds
    lines = [
        "Fig. 9 — hybrid strong scaling (modeled Curie), 800M particles, "
        "256x256 grid, 100 iterations",
        "",
        f"{'nodes':>6s} {'cores':>6s} {'Mp/rank':>8s} {'time':>9s} "
        f"{'speedup':>8s} {'ideal':>6s} {'comm%':>6s}",
    ]
    for nodes, p in zip(NODES, points):
        lines.append(
            f"{nodes:6d} {p.cores:6d} {p.particles_per_rank / 1e6:8.2f} "
            f"{p.exec_seconds:8.2f}s {t1 / p.exec_seconds:8.2f} {nodes:6d} "
            f"{100 * p.comm_fraction:5.1f}%"
        )
    write_result("fig9_strong_hybrid", "\n".join(lines))

    speedups = [t1 / p.exec_seconds for p in points]
    # near-ideal at 2 and 4 nodes
    assert speedups[1] > 1.9
    assert speedups[2] > 3.7
    # clearly sub-ideal at 64 nodes (paper: far from ideal, comm 32%)
    assert speedups[-1] < 0.95 * 64
    # comm fraction grows with node count and is material at 64 nodes
    fracs = [p.comm_fraction for p in points]
    assert fracs == sorted(fracs)
    assert fracs[-1] > 0.10
    # the last timing is a few seconds, like the paper's < 5 s
    assert points[-1].exec_seconds < 10.0
