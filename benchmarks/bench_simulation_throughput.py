"""End-to-end Python-engine throughput: particle-steps per second.

The analogue of the paper's headline "65M particles/s per core" for
*this* engine: full leap-frog steps (interpolate, push, deposit,
Poisson solve, periodic sort) on the baseline and fully-optimized
configurations.  The optimized configuration must not be slower — in
numpy the structural wins (SoA views, contiguous redundant rows,
branchless wraps) are smaller than under a vectorizing C compiler, but
they point the same way.

Run as a script to record the machine baseline::

    PYTHONPATH=src python benchmarks/bench_simulation_throughput.py \
        --output BENCH_baseline.json

which measures the split vs fused loop structure on every available
backend (:func:`measure_loop_modes`) — the numbers
``tools/bench_gate.py`` gates against.
"""

import argparse
import json
import platform
import sys
import time

import numpy as np

import pytest

from repro.core import OptimizationConfig, Simulation
from repro.grid import GridSpec
from repro.particles import LandauDamping
from repro.perf.instrument import PARTICLE_PHASES, PHASES

N = 100_000
STEPS = 5


def _make_sim(config, n=N):
    grid = GridSpec(64, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    return Simulation(
        grid, LandauDamping(alpha=0.05), n, config, dt=0.1, quiet=True, seed=None
    )


#: the per-mode config deltas of :func:`measure_loop_modes`
_MODE_OVERRIDES = {
    "split": dict(loop_mode="split"),
    "fused": dict(loop_mode="fused"),
}


def measure_loop_modes(backend="numpy", n=N, steps=STEPS, warmup_steps=1):
    """Split vs fused on one backend: seconds and rates.

    Both modes get a fresh simulation, and the two are stepped
    *alternately* — a split step, a fused step, ... — so that each pair
    of steps sees the same host (this one's speed wanders by ±20 %
    over seconds, which two windows run one after the other read as a
    difference between the modes).  ``warmup_steps`` throwaway steps
    absorb first-touch page faults before the measured window.
    Returns ``{mode: record}`` with per-phase windowed seconds,
    particle-steps/s for the particle phases, the kernel seconds of the
    window's fastest step, and the loop path(s) the stepper actually
    took — JSON-ready.
    """
    sims = {}
    try:
        for mode, overrides in _MODE_OVERRIDES.items():
            cfg = OptimizationConfig.fully_optimized().with_(
                backend=backend, **overrides
            )
            sims[mode] = _make_sim(cfg, n)
            sims[mode].run(warmup_steps)
        counters = (*PHASES, "total", "kernel_total")
        before = {
            mode: {c: getattr(sim.timings, c) for c in counters}
            for mode, sim in sims.items()
        }
        wall = dict.fromkeys(sims, 0.0)
        for _ in range(steps):
            for mode, sim in sims.items():
                wall0 = time.perf_counter()
                sim.run(1)
                wall[mode] += time.perf_counter() - wall0
        out = {}
        for mode, sim in sims.items():
            t = sim.timings
            since = {c: getattr(t, c) - before[mode][c] for c in counters}
            phase_seconds = {p: since[p] for p in PHASES}
            window = sim.stepper.instrumentation.per_step[-steps:]
            out[mode] = {
                "backend": backend,
                "mode": mode,
                "particles": n,
                "steps": steps,
                "wall_seconds": wall[mode],
                "seconds_per_step": since["total"] / steps,
                "kernel_seconds_per_step": since["kernel_total"] / steps,
                # the fastest step of the window: what the kernels cost
                # when the host left them alone
                "best_kernel_seconds": min(
                    sum(rec[p] for p in PHASES) for rec in window
                ),
                "particles_per_second": n * steps / wall[mode],
                "phase_seconds": phase_seconds,
                "phase_particles_per_second": {
                    p: (n * steps / s if (s := phase_seconds[p]) > 0 else 0.0)
                    for p in PARTICLE_PHASES
                },
                "loop_paths": dict(t.loop_paths),
            }
        return out
    finally:
        for sim in sims.values():
            sim.close()


def main(argv=None):
    """Record split-vs-fused throughput for every available backend."""
    from repro.core.backends import available_backends

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--particles", type=int, default=200_000)
    ap.add_argument("--steps", type=int, default=4)
    ap.add_argument("--warmup-steps", type=int, default=1)
    ap.add_argument("--backends", nargs="*", default=None,
                    help="backend names (default: all available)")
    ap.add_argument("--output", default="BENCH_baseline.json")
    args = ap.parse_args(argv)

    backends = args.backends or [
        b for b in available_backends() if b != "numpy-mp"
    ]
    results = {}
    for backend in backends:
        print(f"measuring {backend} (split vs fused, "
              f"n={args.particles}, steps={args.steps}) ...", flush=True)
        results[backend] = measure_loop_modes(
            backend, args.particles, args.steps, args.warmup_steps
        )
        for mode, rec in results[backend].items():
            print(f"  {mode:6s}: {rec['particles_per_second'] / 1e6:7.2f} M "
                  f"particle-steps/s  (paths: {rec['loop_paths']})")

    doc = {
        "meta": {
            "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "grid": [64, 16],
            "particles": args.particles,
            "steps": args.steps,
        },
        "results": results,
    }
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


@pytest.mark.parametrize(
    "label,config",
    [
        ("baseline", OptimizationConfig.baseline()),
        ("optimized", OptimizationConfig.fully_optimized()),
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
        ("baseline", OptimizationConfig.baseline()),
        ("optimized", OptimizationConfig.fully_optimized()),
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
        sim = _make_sim(OptimizationConfig.fully_optimized())
        t0 = time.perf_counter()
        sim.run(steps)
        elapsed = time.perf_counter() - t0
        sim.close()
        return elapsed

    def supervised_run():
        sim = _make_sim(OptimizationConfig.fully_optimized())
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


if __name__ == "__main__":
    sys.exit(main())
