"""Backend comparison: NumPy whole-array vs compiled C scalar loops.

The paper's Table III/IV story is "the same loops, executed better" —
this benchmark replays it on the host machine across the kernel
*backends* of :mod:`repro.core.backends`: every registered, available
backend runs the same simulation and the same standalone kernels, and
the comparison lands in ``benchmarks/results/backend_comparison.json``
(machine-readable, one entry per backend) so the perf trajectory files
record NumPy-vs-C numbers over time.

Without a C compiler only the numpy entries are emitted and the JSON
notes the missing backend — the comparison degrades, it does not
fail.
"""

from __future__ import annotations

import json
import platform

import numpy as np
import pytest

from conftest import RESULTS_DIR, run_once

from repro.core import OptimizationConfig, Simulation
from repro.core.backends import (
    available_backends,
    get_backend,
    known_backend_names,
    resolve_backend_name,
)
from repro.curves import get_ordering
from repro.grid import GridSpec, RedundantFields
from repro.particles import LandauDamping

GRID_SIDE = 32
N_PARTICLES = 50_000
N_STEPS = 10
KERNEL_N = 200_000


def _simulation_entry(backend_name: str) -> dict:
    """Full-simulation wall-clock for one backend, per-phase."""
    grid = GridSpec(GRID_SIDE, GRID_SIDE, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    cfg = OptimizationConfig(backend=backend_name)
    sim = Simulation(
        grid, LandauDamping(0.05), N_PARTICLES, cfg, dt=0.1, quiet=True, seed=None
    )
    sim.run(N_STEPS)
    t = sim.timings
    return {
        "backend": sim.stepper.backend.name,
        "simulation": t.as_record(),
        "energy_drift": sim.history.energy_drift(),
    }


def _kernel_entry(backend_name: str) -> dict:
    """Standalone kernel wall-clock (3 repeats, best) for one backend."""
    import time

    rng = np.random.default_rng(7)
    ordering = get_ordering("morton", GRID_SIDE, GRID_SIDE)
    grid = GridSpec(GRID_SIDE, GRID_SIDE, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    fields = RedundantFields(grid, ordering)
    fields.load_field_from_grid(
        rng.random((GRID_SIDE, GRID_SIDE)), rng.random((GRID_SIDE, GRID_SIDE))
    )
    ix = rng.integers(0, GRID_SIDE, KERNEL_N)
    iy = rng.integers(0, GRID_SIDE, KERNEL_N)
    icell = np.sort(ordering.encode(ix, iy))
    dx, dy = rng.random(KERNEL_N), rng.random(KERNEL_N)
    backend = get_backend(backend_name)

    def best_of(fn, repeats=3):
        # warm-up run first so JIT compilation never lands in the timing
        fn()
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    rho = np.zeros_like(fields.rho_1d)
    out = {
        "accumulate_redundant": best_of(
            lambda: backend.accumulate_rows(rho, icell, (dx, dy))
        ),
        "interpolate_redundant": best_of(
            lambda: backend.interpolate_rows(fields.e_1d, icell, (dx, dy))
        ),
    }
    return {k: {"seconds": v, "particles_per_second": KERNEL_N / v}
            for k, v in out.items()}


def test_backend_comparison(benchmark):
    """Run every available backend through the same workload; emit JSON."""

    def run() -> dict:
        report = {
            "grid": [GRID_SIDE, GRID_SIDE],
            "n_particles": N_PARTICLES,
            "n_steps": N_STEPS,
            "kernel_n": KERNEL_N,
            "python": platform.python_version(),
            "known_backends": list(known_backend_names()),
            "available_backends": list(available_backends()),
            "auto_selects": resolve_backend_name(),
            "backends": {},
        }
        for name in available_backends():
            entry = _simulation_entry(name)
            entry["kernels"] = _kernel_entry(name)
            report["backends"][name] = entry
        missing = set(known_backend_names()) - set(available_backends())
        if missing:
            report["missing_backends"] = sorted(missing)
        return report

    report = run_once(benchmark, run)

    # every available backend must have produced sane physics
    for name, entry in report["backends"].items():
        assert entry["energy_drift"] < 1e-2, (name, entry["energy_drift"])
        assert entry["simulation"]["steps"] == N_STEPS

    # all backends must agree on the physics they computed (same quiet
    # start, same steps -> drift within float tolerance of each other)
    drifts = [e["energy_drift"] for e in report["backends"].values()]
    assert max(drifts) - min(drifts) < 1e-6

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "backend_comparison.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nbackends compared: {sorted(report['backends'])} "
          f"(auto -> {report['auto_selects']})\n[written to {path}]")


@pytest.mark.parametrize("name", sorted(available_backends()))
def test_backend_simulation_wallclock(benchmark, name):
    """Per-backend pytest-benchmark entry (for --benchmark-compare)."""
    grid = GridSpec(GRID_SIDE, GRID_SIDE, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    cfg = OptimizationConfig(backend=name)

    def run():
        sim = Simulation(
            grid, LandauDamping(0.05), 20_000, cfg, dt=0.1, quiet=True, seed=None
        )
        sim.run(5)
        return sim

    sim = benchmark.pedantic(run, rounds=1, iterations=1)
    assert sim.timings.steps == 5
