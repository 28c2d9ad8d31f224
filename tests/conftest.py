"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from repro.curves import get_ordering
from repro.grid import GridSpec


def pytest_terminal_summary(terminalreporter):
    """A host without a C compiler skips every test of the ``c``
    backend; say so in the words ``make check`` replays, so that the
    run does not read as all-green."""
    from repro.core.backends import CBackend

    if not CBackend.is_available():
        terminalreporter.write_line("gate-status: tests/c skipped(no cc)")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_grid():
    """A 16x16 grid on [0, 4pi)^2 — small enough for scalar oracles."""
    return GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)


@pytest.fixture(params=["row-major", "column-major", "l4d", "morton", "hilbert"])
def any_ordering(request):
    """Each registered ordering on a 16x16 grid."""
    return get_ordering(request.param, 16, 16)


def random_particle_arrays(rng, n, ncx, ncy):
    """Plain attribute arrays for n random in-bounds particles."""
    ix = rng.integers(0, ncx, n)
    iy = rng.integers(0, ncy, n)
    dx = rng.random(n)
    dy = rng.random(n)
    vx = rng.normal(0, 1, n)
    vy = rng.normal(0, 1, n)
    return ix, iy, dx, dy, vx, vy


def load_tool(name: str):
    """``tools/<name>.py`` as a module (the tools are scripts, not a
    package)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


#: the ``OptimizationConfig`` keys PR 12 (six) and PR 13 (``chunk_size``)
#: retired, as an older archive carries them (``curve`` no longer names
#: anything at all)
RETIRED_CONFIG = {
    "chunk_size": 8192,
    "block_size": 64,
    "deposit_thresholds": [0.0, 0.0],
    "deposit_threads": 2,
    "partition": "curve",
    "repartition_every": 3,
    "rebalance_threshold": 1.1,
}


def rewrite_saved_config(path, extra):
    """Re-save the archive at ``path`` with ``extra`` keys merged into
    its stored config (what an older or foreign writer would leave)."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "_meta"}
        meta = json.loads(str(data["_meta"]))
    meta["config"] = json.dumps({**json.loads(meta["config"]), **extra})
    np.savez(path, _meta=json.dumps(meta), **arrays)
