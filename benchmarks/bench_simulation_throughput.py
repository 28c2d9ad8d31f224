"""End-to-end Python-engine throughput: particle-steps per second.

The analogue of the paper's headline "65M particles/s per core" for
*this* engine: full leap-frog steps (interpolate, push, deposit,
Poisson solve, periodic sort) on the baseline and fully-optimized
configurations.  The optimized configuration must not be slower — in
numpy the structural wins (SoA views, contiguous redundant rows,
branchless wraps) are smaller than under a vectorizing C compiler, but
they point the same way.
"""

import numpy as np

import pytest

from repro.core import OptimizationConfig, Simulation
from repro.grid import GridSpec
from repro.model.config import ModelConfig
from repro.particles import LandauDamping

N = 100_000
STEPS = 5


def _make_sim(config, n=N):
    grid = GridSpec(64, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    return Simulation(
        grid, LandauDamping(alpha=0.05), n, config, dt=0.1, quiet=True, seed=None
    )


@pytest.mark.parametrize(
    "label,config",
    [
        ("baseline", ModelConfig.baseline()),
        ("optimized", OptimizationConfig()),
    ],
)
def test_simulation_throughput(benchmark, label, config):
    sim = _make_sim(config)

    def steps():
        sim.run(STEPS)

    benchmark.pedantic(steps, rounds=3, iterations=1)
    assert sim.history.energy_drift() < 1e-2


def test_optimized_not_slower_than_baseline():
    import time

    times = {}
    for label, config in (
        ("baseline", ModelConfig.baseline()),
        ("optimized", OptimizationConfig()),
    ):
        sim = _make_sim(config)
        t0 = time.perf_counter()
        sim.run(10)
        times[label] = time.perf_counter() - t0
    # allow noise, but the optimized path must be at least competitive
    assert times["optimized"] < 1.35 * times["baseline"]


def test_supervision_overhead_under_ten_percent():
    """Guards + a checkpoint every 50 steps must cost < 10% wall-clock.

    The supervisor's promise is "resilience for almost nothing": the
    per-step additions are read-only guard scans, and the checkpoint
    write amortizes over its 50-step window.  Min-of-3 on both sides
    to keep scheduler noise out of the ratio.
    """
    import time

    from repro.resilience import SupervisedRun

    steps = 60  # one rotation checkpoint fires mid-run at iteration 50

    def plain_run():
        sim = _make_sim(OptimizationConfig())
        t0 = time.perf_counter()
        sim.run(steps)
        elapsed = time.perf_counter() - t0
        sim.close()
        return elapsed

    def supervised_run():
        sim = _make_sim(OptimizationConfig())
        with SupervisedRun(sim, checkpoint_every=50, guards="default") as sup:
            t0 = time.perf_counter()
            sup.run(steps)
            elapsed = time.perf_counter() - t0
            assert sup.report.checkpoints_written >= 2  # initial + step 50
            assert not sup.report.failures
        return elapsed

    plain = min(plain_run() for _ in range(3))
    supervised = min(supervised_run() for _ in range(3))
    assert supervised < 1.10 * plain, (
        f"supervision overhead {supervised / plain - 1:.1%} exceeds 10% "
        f"({supervised:.3f}s vs {plain:.3f}s)"
    )

