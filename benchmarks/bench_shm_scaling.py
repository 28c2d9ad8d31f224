"""Strong scaling of the real shared-memory engine (numpy-mp backend).

The §V-B claim is that the three particle loops scale with threads
because each thread owns a private charge slab and the loops carry no
other shared writes.  This benchmark measures that for *real* worker
processes: the same Landau-damping run at 1..ncpu workers, throughput
per worker count, against the serial numpy backend and against the
:class:`~repro.parallel.openmp.ThreadScalingModel` roofline prediction
(which prices an ideal paper-machine thread team, so it is the upper
envelope, not a fit).

Every worker count must reproduce the serial ``rho`` checksum exactly
(the bitwise cell-ownership promise under the engine's
histogram-balanced cuts, :mod:`repro.parallel.partition`).  The
``shm-partition`` rows in ``BENCH_baseline.json`` are the historical
flat / curve / curve-balanced comparison that retired the first two
modes (PR 12); nothing regenerates them.

Output: ``benchmarks/results/BENCH_shm_scaling.json`` with one entry
per worker count plus the serial baseline.  Also runnable standalone:

    PYTHONPATH=src python benchmarks/bench_shm_scaling.py \
        [--smoke] [--workers N]
"""

from __future__ import annotations

import json
import os
import platform
import sys

import numpy as np

from repro.core import OptimizationConfig, Simulation
from repro.grid import GridSpec
from repro.parallel.executor import MultiprocessBackend
from repro.parallel.openmp import ThreadScalingModel
from repro.particles import LandauDamping
from repro.perf.experiments import default_scaled_machine

GRID_SIDE = 32
N_PARTICLES = 60_000
N_STEPS = 10
SMOKE_PARTICLES = 8_000
SMOKE_STEPS = 4


def _config(backend: str, workers: int | None = None) -> OptimizationConfig:
    return OptimizationConfig.fully_optimized().with_(
        backend=backend, workers=workers, sort_period=5
    )


def _run(backend: str, workers: int | None, n_particles: int, n_steps: int) -> dict:
    grid = GridSpec(GRID_SIDE, GRID_SIDE, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    cfg = _config(backend, workers)
    with Simulation(
        grid, LandauDamping(0.05), n_particles, cfg, dt=0.1, quiet=True, seed=3
    ) as sim:
        sim.run(n_steps)
        t = sim.timings
        return {
            "backend": backend,
            "workers": workers,
            "kernel_seconds": t.kernel_total,
            "total_seconds": t.total,
            "particles_per_second": t.particles_per_second(),
            "fallbacks": t.fallbacks,
            "rho_checksum": float(np.sum(np.abs(sim.stepper.rho_grid))),
        }


def _model_prediction(worker_counts: list[int], n_particles: int) -> dict:
    """Roofline-model speedups for the same loop mix (paper machine)."""
    model = ThreadScalingModel(default_scaled_machine())
    cfg = _config("numpy")
    totals = {
        p: sum(model.iteration_seconds(cfg, n_particles, p).values())
        for p in worker_counts
    }
    base = totals[worker_counts[0]]
    return {str(p): base / totals[p] for p in worker_counts}


def measure_scaling(n_particles: int, n_steps: int, max_workers: int) -> dict:
    worker_counts = list(range(1, max_workers + 1))
    serial = _run("numpy", None, n_particles, n_steps)
    series = [_run("numpy-mp", p, n_particles, n_steps) for p in worker_counts]
    for entry in series:
        # correctness guard: the engine must agree with serial numpy
        assert entry["rho_checksum"] == serial["rho_checksum"], (
            "numpy-mp diverged from numpy at %d workers" % entry["workers"]
        )
        entry["speedup_vs_serial"] = (
            serial["kernel_seconds"] / entry["kernel_seconds"]
            if entry["kernel_seconds"] > 0
            else 0.0
        )
    return {
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "case": {
            "grid": [GRID_SIDE, GRID_SIDE],
            "particles": n_particles,
            "steps": n_steps,
        },
        "serial_numpy": serial,
        "numpy_mp": series,
        "model_speedup": _model_prediction(worker_counts, n_particles),
    }


def _write(result: dict) -> str:
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "BENCH_shm_scaling.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2)
    return path


def _report(result: dict) -> str:
    lines = ["workers  particles/s  speedup  model"]
    base = result["serial_numpy"]["particles_per_second"]
    lines.append(f" serial  {base:11.0f}     1.00      -")
    for entry in result["numpy_mp"]:
        p = entry["workers"]
        model = result["model_speedup"].get(str(p), float("nan"))
        lines.append(
            f"{p:7d}  {entry['particles_per_second']:11.0f}"
            f"  {entry['speedup_vs_serial']:7.2f}  {model:5.2f}"
        )
    return "\n".join(lines)


def test_shm_scaling(benchmark):
    """pytest-benchmark entry: full sweep, JSON emitted to results/."""
    import pytest

    from conftest import run_once

    if not MultiprocessBackend.is_available():
        pytest.skip("POSIX shared memory unavailable")
    ncpu = os.cpu_count() or 1
    result = run_once(
        benchmark, lambda: measure_scaling(N_PARTICLES, N_STEPS, max(2, ncpu))
    )
    path = _write(result)
    print(f"\n{_report(result)}\n[written to {path}]")
    # every worker count must complete without serial fallbacks
    assert all(e["fallbacks"] == 0 for e in result["numpy_mp"])
    if ncpu >= 4:
        by_workers = {e["workers"]: e for e in result["numpy_mp"]}
        assert by_workers[4]["speedup_vs_serial"] >= 1.8, (
            "expected >= 1.8x at 4 workers on a >= 4-core host"
        )


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    max_workers = os.cpu_count() or 1
    if "--workers" in argv:
        max_workers = int(argv[argv.index("--workers") + 1])
    n = SMOKE_PARTICLES if smoke else N_PARTICLES
    steps = SMOKE_STEPS if smoke else N_STEPS
    result = measure_scaling(n, steps, max_workers)
    path = _write(result)
    print(_report(result))
    print(f"[written to {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
