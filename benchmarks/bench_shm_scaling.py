"""Where the shared-memory engine starts to pay: numpy-mp vs serial over N.

The §V-B claim is that the three particle loops scale with threads
because each thread owns a private charge slab and the loops carry no
other shared writes.  This benchmark measures that for *real* worker
processes and answers ROADMAP's question — "find the crossover N": the
same Landau-damping run at N in {10k, 100k, 1M} particles, serially on
the kernel body numpy-mp's workers run (``c`` wherever it builds, else
``numpy``; the body ``"auto"`` resolves to) and on numpy-mp at 1 and 2
workers (this host has two cores), as seconds per step.  A serial
``numpy`` row rides along for comparison with the runs from before the
workers had compiled kernels.  Each configuration is built once, warmed
up, and timed over ``repeats`` windows of ``steps`` steps; the fastest
window counts (min-of-k: host noise only ever adds time).  The
crossover is the smallest swept N at which a numpy-mp row beats the
serial body.  The :class:`~repro.model.openmp.ThreadScalingModel`
roofline prediction rides along (it prices an ideal paper-machine
thread team, so it is the upper envelope, not a fit).

Every run must reproduce the serial ``rho`` checksum exactly (the
bitwise corner-ownership promise; ``c`` and ``numpy`` share their bits)
with zero serial fallbacks.

Output: ``benchmarks/results/BENCH_shm_scaling.json``.  Standalone:

    PYTHONPATH=src python benchmarks/bench_shm_scaling.py [--smoke]

``--smoke`` (what ``make bench-scaling`` runs) sweeps 10k and 100k with
short windows and leaves the committed JSON alone.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

import numpy as np
import pytest

from repro.core import OptimizationConfig, Simulation
from repro.core.backends import get_backend
from repro.grid import GridSpec
from repro.model.config import ModelConfig
from repro.model.experiments import default_scaled_machine
from repro.model.openmp import ThreadScalingModel
from repro.parallel.executor import MultiprocessBackend
from repro.particles import LandauDamping

from conftest import run_once

GRID_SIDE = 64
SIZES = (10_000, 100_000, 1_000_000)
WORKERS = (1, 2)
STEPS, REPEATS = 8, 5
SMOKE_SIZES = (10_000, 100_000)
SMOKE_STEPS, SMOKE_REPEATS = 4, 2


def _config(backend: str, workers: int | None = None) -> OptimizationConfig:
    return OptimizationConfig(backend=backend, workers=workers, sort_period=20)


def _run(backend, workers, n_particles, steps, repeats) -> dict:
    grid = GridSpec(GRID_SIDE, GRID_SIDE, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    with Simulation(
        grid, LandauDamping(0.05), n_particles, _config(backend, workers),
        dt=0.1, quiet=True, seed=3,
    ) as sim:
        sim.run(2)  # warm-up: page in the arrays, attach the workers
        windows = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            sim.run(steps)
            windows.append((time.perf_counter() - t0) / steps)
        return {
            "backend": backend,
            "workers": workers,
            "step_seconds": min(windows),
            "step_seconds_windows": windows,
            "fallbacks": sim.timings.fallbacks,
            "rho_checksum": float(np.sum(np.abs(sim.stepper.rho_grid))),
        }


def _model_prediction(n_particles: int) -> dict:
    """Roofline-model speedups for the same loop mix (paper machine)."""
    model = ThreadScalingModel(default_scaled_machine())
    cfg = ModelConfig(sort_period=20)
    totals = {
        p: sum(model.iteration_seconds(cfg, n_particles, p).values())
        for p in WORKERS
    }
    return {str(p): totals[WORKERS[0]] / totals[p] for p in WORKERS}


def measure_scaling(sizes=SIZES, steps=STEPS, repeats=REPEATS) -> dict:
    body = get_backend("auto").name
    rows = []
    for n in sizes:
        serial_numpy = _run("numpy", None, n, steps, repeats)
        serial = serial_numpy if body == "numpy" else _run(body, None, n, steps, repeats)
        series = [_run("numpy-mp", p, n, steps, repeats) for p in WORKERS]
        for entry in (serial, *series):
            # correctness guard: every run must agree with serial numpy
            assert entry["rho_checksum"] == serial_numpy["rho_checksum"], (
                f"{entry['backend']} diverged from numpy "
                f"(workers: {entry['workers']})"
            )
        for entry in series:
            entry["speedup_vs_serial"] = serial["step_seconds"] / entry["step_seconds"]
            entry["speedup_vs_numpy"] = (
                serial_numpy["step_seconds"] / entry["step_seconds"]
            )
        rows.append({
            "particles": n,
            "serial_numpy": serial_numpy,
            "serial_body": serial,
            "numpy_mp": series,
            "model_speedup": _model_prediction(n),
        })
    winners = [
        r["particles"] for r in rows
        if max(e["speedup_vs_serial"] for e in r["numpy_mp"]) > 1.0
    ]
    return {
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "case": {
            "grid": [GRID_SIDE, GRID_SIDE],
            "steps_per_window": steps,
            "windows": repeats,
            "timing": "min over windows of seconds per step, after 2 warm-up steps",
        },
        #: the kernels numpy-mp's workers run, and the serial_body rows
        "workers_body": body,
        "rows": rows,
        #: smallest swept N at which numpy-mp beats the serial body
        #: (None: never)
        "crossover_particles": min(winners) if winners else None,
    }


def _write(result: dict) -> str:
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "BENCH_shm_scaling.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2)
    return path


def _report(result: dict) -> str:
    body = result["workers_body"]
    lines = [f"particles  run       ms/step  vs {body:5s}  vs numpy  model"]
    for row in result["rows"]:
        n = row["particles"]
        base = row["serial_body"]["step_seconds"]
        numpy_s = row["serial_numpy"]["step_seconds"]
        lines.append(f"{n:9d}  numpy     {1e3 * numpy_s:7.2f}  "
                     f"{base / numpy_s:8.2f}      1.00      -")
        if body != "numpy":
            lines.append(f"{n:9d}  {body:8s}  {1e3 * base:7.2f}      1.00"
                         f"  {numpy_s / base:8.2f}      -")
        for entry in row["numpy_mp"]:
            p = entry["workers"]
            lines.append(
                f"{n:9d}  mp {p} wkr  {1e3 * entry['step_seconds']:7.2f}"
                f"  {entry['speedup_vs_serial']:8.2f}"
                f"  {entry['speedup_vs_numpy']:8.2f}"
                f"  {row['model_speedup'][str(p)]:5.2f}"
            )
    lines.append(
        f"crossover: numpy-mp ({body} workers) first beats serial {body} "
        f"at N = {result['crossover_particles']} (of the swept sizes)"
    )
    return "\n".join(lines)


def test_shm_scaling(benchmark):
    """pytest-benchmark entry: full sweep, JSON emitted to results/."""
    if not MultiprocessBackend.is_available():
        pytest.skip("POSIX shared memory unavailable")
    result = run_once(benchmark, measure_scaling)
    path = _write(result)
    print(f"\n{_report(result)}\n[written to {path}]")
    # every run must complete without serial fallbacks
    assert all(
        e["fallbacks"] == 0 for row in result["rows"] for e in row["numpy_mp"]
    )
    if (os.cpu_count() or 1) >= 2:
        big = result["rows"][-1]["numpy_mp"][-1]
        assert big["speedup_vs_numpy"] > 1.0, (
            "numpy-mp at 2 workers must beat serial numpy at 1M particles"
        )


def main(argv: list[str]) -> int:
    if not MultiprocessBackend.is_available():
        print("gate-status: bench-scaling skipped(no POSIX shared memory)")
        return 0
    if "--smoke" in argv:
        result = measure_scaling(SMOKE_SIZES, SMOKE_STEPS, SMOKE_REPEATS)
        print(_report(result))
    else:
        result = measure_scaling()
        print(_report(result))
        print(f"[written to {_write(result)}]")
    print("gate-status: bench-scaling ran")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
