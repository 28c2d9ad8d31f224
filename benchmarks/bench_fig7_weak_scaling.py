"""Fig. 7: weak scaling to 8192 cores, hybrid vs pure MPI.

Paper: 50M particles per core, 128x128 grid, 100 iterations, sort
every 50, on Curie.  Execution time is flat for both schemes until the
allreduce bites; the annotated communication percentages are

    pure MPI : 1 1 1 1 5 6 8 11 25 37 56   (1 .. 8192 cores, pow2)
    hybrid   : 1 1 1 3 7 10 18 28          (64 .. 8192 cores)

Shapes: both comm fractions grow monotonically; pure MPI crosses 50%
by 8192 cores; the hybrid scheme (one rank per socket = 16x fewer
ranks at equal cores) stays far lower and its execution time stays
near-flat — half a trillion particles at 8192 cores remain practical.
"""

from repro.model.config import ModelConfig
from repro.model.scaling import weak_scaling_series

from conftest import PAPER_N, run_once, write_result

GRID_BYTES = 128 * 128 * 8
CORES = [2**k for k in range(14)]  # 1 .. 8192


def test_fig7_weak_scaling(benchmark, resident_miss_data):
    cfg = ModelConfig.fully_optimized().with_(sort_period=50)
    misses = resident_miss_data

    def series():
        pure = weak_scaling_series(
            CORES, PAPER_N, GRID_BYTES, 100, threads_per_rank=1,
            config=cfg, misses=misses,
        )
        hybrid = weak_scaling_series(
            [c for c in CORES if c >= 8], PAPER_N, GRID_BYTES, 100,
            threads_per_rank=8, config=cfg, misses=misses,
        )
        return pure, hybrid

    pure, hybrid = run_once(benchmark, series)

    hyb = {p.cores: p for p in hybrid}
    lines = [
        "Fig. 7 — weak scaling on the modeled Curie "
        f"({PAPER_N // 10**6}M particles/core, 128x128 grid, 100 iters)",
        "",
        f"{'cores':>6s} | {'pure exec':>10s} {'comm%':>6s} | "
        f"{'hybrid exec':>11s} {'comm%':>6s}",
    ]
    for p in pure:
        h = hyb.get(p.cores)
        right = (
            f"{h.exec_seconds:10.1f}s {100 * h.comm_fraction:5.1f}%"
            if h
            else f"{'—':>11s} {'—':>6s}"
        )
        lines.append(
            f"{p.cores:6d} | {p.exec_seconds:9.1f}s {100 * p.comm_fraction:5.1f}% | {right}"
        )
    total_particles = PAPER_N * CORES[-1]
    lines.append("")
    lines.append(
        f"largest run: {total_particles / 1e12:.2f} trillion particles on "
        f"{CORES[-1]} cores (paper: 0.4 trillion)"
    )
    write_result("fig7_weak_scaling", "\n".join(lines))

    # comm fractions grow monotonically for both schemes
    for pts in (pure, hybrid):
        fracs = [p.comm_fraction for p in pts]
        assert fracs == sorted(fracs)
    # pure MPI crosses 50% comm by 8192 cores (paper: 56%)
    assert pure[-1].comm_fraction > 0.5
    # hybrid stays far lower at the same core count (paper: 28%)
    assert hyb[8192].comm_fraction < 0.6 * pure[-1].comm_fraction
    # small-scale comm is negligible (paper: 1%)
    assert pure[3].comm_fraction < 0.05
    # hybrid execution time stays within 2x of its flat baseline
    assert hybrid[-1].exec_seconds < 2.0 * hybrid[0].exec_seconds
