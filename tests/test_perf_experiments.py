"""Miss-experiment harness tests (small, fast configurations)."""

import numpy as np
import pytest

from repro.grid import GridSpec
from repro.model.config import ModelConfig
from repro.model.costmodel import LoopKind
from repro.model.experiments import MissExperiment, default_scaled_machine
from repro.model.machine import MachineSpec


@pytest.fixture(scope="module")
def tiny_setup():
    grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    machine = MachineSpec.haswell().scaled(64)
    return grid, machine


def run_experiment(grid, machine, cfg, n=2000, iters=4, **kw):
    return MissExperiment(cfg, grid, n, iters, machine=machine, **kw).run()


class TestDefaultScaledMachine:
    def test_l12_and_l3_scales(self):
        m = default_scaled_machine(16, 64)
        assert m.levels[0].capacity_bytes == 2048
        assert m.levels[1].capacity_bytes == 16 * 1024
        assert m.levels[2].capacity_bytes == pytest.approx(
            25 * 1024 * 1024 // 64, rel=0.01
        )

    def test_geometry_valid(self):
        m = default_scaled_machine()
        for lv in m.levels:
            assert lv.capacity_bytes % (lv.line_bytes * lv.associativity) == 0


class TestMissSeries:
    def test_series_length(self, tiny_setup):
        grid, machine = tiny_setup
        s = run_experiment(grid, machine, ModelConfig.fully_optimized())
        assert len(s.per_iteration) == 4
        assert len(s.misses_per_iteration("L2")) == 4

    def test_totals_cover_requested_loops(self, tiny_setup):
        grid, machine = tiny_setup
        s = run_experiment(grid, machine, ModelConfig.fully_optimized())
        assert set(s.totals) == {LoopKind.UPDATE_V, LoopKind.ACCUMULATE}

    def test_all_loops_mode(self, tiny_setup):
        grid, machine = tiny_setup
        s = run_experiment(
            grid, machine, ModelConfig.fully_optimized(),
            loops=tuple(LoopKind),
        )
        assert set(s.totals) == set(LoopKind)

    def test_misses_per_particle_normalization(self, tiny_setup):
        grid, machine = tiny_setup
        s = run_experiment(grid, machine, ModelConfig.fully_optimized())
        mpp = s.misses_per_particle()
        total = s.totals[LoopKind.UPDATE_V].misses_by_name()["L1"]
        assert mpp[LoopKind.UPDATE_V]["L1"] == pytest.approx(total / (2000 * 4))

    def test_average_misses(self, tiny_setup):
        grid, machine = tiny_setup
        s = run_experiment(grid, machine, ModelConfig.fully_optimized())
        series = s.misses_per_iteration("L1")
        assert s.average_misses("L1") == pytest.approx(series.mean())

    def test_fused_mode(self, tiny_setup):
        grid, machine = tiny_setup
        s = run_experiment(
            grid, machine,
            ModelConfig.baseline(),
            trace_fused=True,
        )
        assert set(s.totals) == set(LoopKind)
        assert len(s.per_iteration) == 4
        assert s.per_iteration[0].misses_by_name()["L1"] > 0

    def test_physics_advances_during_experiment(self, tiny_setup):
        grid, machine = tiny_setup
        exp = MissExperiment(
            ModelConfig.fully_optimized(), grid, 2000, 3, machine=machine
        )
        before = np.asarray(exp.stepper.particles.dx).copy()
        exp.run()
        assert not np.allclose(before, np.asarray(exp.stepper.particles.dx))
        assert exp.stepper.iteration == 3


class TestOrderingEffect:
    """The headline Table II result at miniature scale."""

    @pytest.mark.slow
    def test_row_major_worse_than_morton_at_l2(self):
        grid = GridSpec(32, 32, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        machine = default_scaled_machine(32, 256)
        results = {}
        for name in ("row-major", "morton"):
            cfg = ModelConfig.fully_optimized(name).with_(sort_period=6)
            s = MissExperiment(cfg, grid, 8000, 12, machine=machine).run()
            results[name] = s.average_misses("L2")
        assert results["morton"] < results["row-major"]

    @pytest.mark.slow
    def test_sort_produces_sawtooth(self):
        grid = GridSpec(32, 32, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        machine = default_scaled_machine(32, 256)
        cfg = ModelConfig.fully_optimized("row-major").with_(sort_period=6)
        s = MissExperiment(cfg, grid, 8000, 13, machine=machine).run()
        l2 = s.misses_per_iteration("L2").astype(float)
        # misses grow during a sort period ...
        assert l2[5] > l2[1]
        # ... and drop right after the sort at iteration 6
        assert l2[7] < l2[5]
