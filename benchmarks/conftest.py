"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper and

* runs under ``pytest benchmarks/ --benchmark-only`` (each experiment
  is wrapped in ``benchmark.pedantic(..., rounds=1)`` — these are
  experiments, not microbenchmarks, so one round is the point), and
* writes its reproduced table/series to ``benchmarks/results/<name>.txt``
  (also echoed to stdout for ``-s`` runs) so EXPERIMENTS.md can quote it.

The cache-miss measurements are expensive (a pure-Python LRU simulator
replaying millions of addresses), so they are computed once per session
in the fixtures below and shared by every table that needs them.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.grid import GridSpec
from repro.model.config import ModelConfig
from repro.model.costmodel import LoopKind
from repro.model.experiments import MissExperiment, default_scaled_machine

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: the scaled stand-in for Table I's test case (paper: 128x128 grid,
#: 50M particles, 100 iterations, sort every 20 — see DESIGN.md §6)
BENCH_GRID = GridSpec(64, 64, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
BENCH_PARTICLES = 40_000
BENCH_ITERATIONS = 20
BENCH_SORT_PERIOD = 10

#: paper-scale numbers used when projecting model times (Table I)
PAPER_N = 50_000_000
PAPER_ITERS = 100

ORDERINGS = ("row-major", "l4d", "morton", "hilbert")


def ordering_config(name: str) -> ModelConfig:
    """Fully-optimized config for one ordering (L4D gets SIZE=8)."""
    if name == "l4d":
        cfg = ModelConfig.fully_optimized("l4d", size=8)
    else:
        cfg = ModelConfig.fully_optimized(name)
    return cfg.with_(sort_period=BENCH_SORT_PERIOD)


def write_result(name: str, text: str) -> None:
    """Persist a reproduced table and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text)
    print(f"\n{text}\n[written to {path}]")


def run_once(benchmark, fn):
    """Run an experiment exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def scaled_machine():
    return default_scaled_machine()


@pytest.fixture(scope="session")
def ordering_miss_series(scaled_machine):
    """MissSeries per ordering for the update-v/update-x/accumulate loops.

    This is the Fig. 5/6 + Table II measurement, shared by Table III.
    """
    out = {}
    for name in ORDERINGS:
        exp = MissExperiment(
            ordering_config(name),
            BENCH_GRID,
            BENCH_PARTICLES,
            BENCH_ITERATIONS,
            machine=scaled_machine,
            loops=tuple(LoopKind),
        )
        out[name] = exp.run()
    return out


@pytest.fixture(scope="session")
def resident_miss_data():
    """Split-loop misses of the fully-optimized (Morton) config on the
    resident-L3 machine — the paper-regime stall input for Tables V/VI
    and Figs. 7/8/9."""
    machine = default_scaled_machine(16, 16)
    cfg = ModelConfig.fully_optimized().with_(sort_period=BENCH_SORT_PERIOD)
    exp = MissExperiment(
        cfg, BENCH_GRID, 100_000, 6, machine=machine, loops=tuple(LoopKind)
    )
    return exp.run().misses_per_particle()


@pytest.fixture(scope="session")
def table7_miss_data():
    """Misses for the four Table VII variants (AoS/SoA x fused/split),
    each traced with its own layout; fused variants use the fused-loop
    trace.  Row-major ordering (no stored coords) keeps the particle
    record at the paper's five fields."""
    machine = default_scaled_machine(16, 16)
    out = {}
    for pl in ("aos", "soa"):
        for lm in ("fused", "split"):
            cfg = ModelConfig.fully_optimized("row-major").with_(
                particle_layout=pl, loop_mode=lm, sort_period=BENCH_SORT_PERIOD
            )
            exp = MissExperiment(
                cfg, BENCH_GRID, 100_000, 6, machine=machine,
                loops=tuple(LoopKind), trace_fused=(lm == "fused"),
            )
            out[(pl, lm)] = exp.run().misses_per_particle()
    return out


@pytest.fixture(scope="session")
def table4_miss_data():
    """Per-config miss data for the seven Table IV rows.

    Uses a *resident-L3* machine (L1/L2 scaled by 16, L3 only by 16 so
    the redundant arrays fit it, as they fit the paper's 25 MiB L3) and
    a higher-density population — Table IV compares layouts whose
    footprints differ 4x, so the L3 regime must match the paper's.
    Fused rows are traced through the fused single loop.
    """
    machine = default_scaled_machine(16, 16)
    out = []
    for label, cfg in ModelConfig.table4_stack():
        cfg = cfg.with_(sort_period=BENCH_SORT_PERIOD)
        exp = MissExperiment(
            cfg,
            BENCH_GRID,
            100_000,
            6,
            machine=machine,
            loops=tuple(LoopKind),
            trace_fused=(cfg.loop_mode == "fused"),
        )
        out.append((label, cfg, exp.run().misses_per_particle()))
    return out
