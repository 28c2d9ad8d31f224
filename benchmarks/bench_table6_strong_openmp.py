"""Table VI: pure-OpenMP strong scaling on one Curie socket.

Paper (128x128 grid, 50M particles, 100 iters, sort every 50):

    cores                  1      2      4      8
    Mparticles/s          45.8   89.9   170    266
    ideal                 45.8   91.6   183    366

Shape: near-ideal to 4 threads, a clear knee at 8 — the socket's 4
memory channels saturate (the paper's §V-B/Fig. 8 explanation, which
is exactly the roofline this model implements).
"""

from repro.model.config import ModelConfig
from repro.model.machine import MachineSpec
from repro.model.scaling import strong_scaling_threads

from conftest import PAPER_N, run_once, write_result

PAPER_MPS = {1: 45.8, 2: 89.9, 4: 170.0, 8: 266.0}


def test_table6_strong_scaling_threads(benchmark, resident_miss_data):
    misses = resident_miss_data
    cfg = ModelConfig.fully_optimized().with_(sort_period=50)

    def table():
        rows = strong_scaling_threads(
            [1, 2, 4, 8], PAPER_N, 100, MachineSpec.sandybridge(), cfg, misses
        )
        lines = [
            "Table VI — strong scaling on one Curie socket (pure OpenMP, modeled)",
            f"{PAPER_N // 10**6}M particles, sort every 50, SandyBridge roofline",
            "",
            f"{'cores':>6s} {'Mp/s':>8s} {'ideal':>8s} {'paper':>8s}",
        ]
        base = rows[0][1]
        for p, mps in rows:
            lines.append(f"{p:6d} {mps:8.1f} {base * p:8.1f} {PAPER_MPS[p]:8.1f}")
        return lines, dict(rows)

    lines, rows = run_once(benchmark, table)
    write_result("table6_strong_openmp", "\n".join(lines))

    # near-ideal scaling to 4 threads
    assert rows[2] / rows[1] > 1.85
    assert rows[4] / rows[1] > 3.4
    # the knee: 8 threads clearly below ideal (paper: 266/366 = 73%)
    assert rows[8] / (8 * rows[1]) < 0.95
    # but still faster than 4 threads
    assert rows[8] > rows[4]
    # single-core magnitude within ~2x of the paper's 45.8 Mp/s
    assert 23.0 < rows[1] < 92.0
