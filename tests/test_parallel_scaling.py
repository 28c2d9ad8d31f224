"""Scaling-series tests: the qualitative content of Figs. 7/9, Table VI."""

import pytest

from repro.model.config import ModelConfig
from repro.model.mpi import CollectiveCostModel
from repro.model.scaling import (
    strong_scaling_hybrid,
    strong_scaling_threads,
    weak_scaling_series,
)

CFG = ModelConfig.fully_optimized().with_(sort_period=50)
GRID_BYTES = 128 * 128 * 8


class TestWeakScaling:
    @pytest.fixture(scope="class")
    def pure(self):
        cores = [2**k for k in range(14)]
        return weak_scaling_series(
            cores, 1_000_000, GRID_BYTES, 100, threads_per_rank=1, config=CFG
        )

    @pytest.fixture(scope="class")
    def hybrid(self):
        cores = [2**k for k in range(3, 14)]
        return weak_scaling_series(
            cores, 1_000_000, GRID_BYTES, 100, threads_per_rank=8, config=CFG
        )

    def test_comm_fraction_monotone(self, pure):
        fracs = [p.comm_fraction for p in pure]
        assert fracs == sorted(fracs)

    def test_pure_mpi_comm_explodes(self, pure):
        # Fig. 7: >50% of execution time at 8192 cores
        assert pure[-1].comm_fraction > 0.5
        assert pure[0].comm_fraction < 0.01

    def test_hybrid_beats_pure_at_same_cores(self, pure, hybrid):
        pure_by_cores = {p.cores: p for p in pure}
        for h in hybrid:
            p = pure_by_cores[h.cores]
            assert h.comm_seconds < p.comm_seconds, h.cores

    def test_hybrid_stays_moderate(self, hybrid):
        # Fig. 7: hybrid comm ~28% at 8192 cores
        assert hybrid[-1].comm_fraction < 0.5

    def test_compute_time_flat(self, pure):
        # weak scaling: per-rank compute is constant by construction
        c0 = pure[0].compute_seconds
        assert all(p.compute_seconds == pytest.approx(c0) for p in pure)

    def test_rank_accounting(self, hybrid):
        for h in hybrid:
            assert h.ranks * h.threads_per_rank == h.cores
            assert h.particles_per_rank == 8_000_000

    def test_rejects_indivisible_cores(self):
        with pytest.raises(ValueError):
            weak_scaling_series([4], 1000, GRID_BYTES, 10, threads_per_rank=8)


class TestStrongScalingHybrid:
    @pytest.fixture(scope="class")
    def points(self):
        return strong_scaling_hybrid(
            [1, 2, 4, 8, 16, 32, 64],
            800_000_000,
            256 * 256 * 8,
            100,
            config=ModelConfig.fully_optimized().with_(sort_period=20),
        )

    def test_near_ideal_at_small_node_counts(self, points):
        t1 = points[0].exec_seconds
        assert t1 / points[1].exec_seconds == pytest.approx(2.0, rel=0.05)
        assert t1 / points[2].exec_seconds == pytest.approx(4.0, rel=0.08)

    def test_speedup_degrades_at_scale(self, points):
        # Fig. 9: far from ideal at 64 nodes
        t1 = points[0].exec_seconds
        speedup64 = t1 / points[-1].exec_seconds
        assert speedup64 < 0.95 * 64

    def test_comm_fraction_grows(self, points):
        fracs = [p.comm_fraction for p in points]
        assert fracs == sorted(fracs)
        assert fracs[-1] > 0.1  # paper: 32% at 64 nodes

    def test_particles_divided(self, points):
        assert points[0].particles_per_rank == 400_000_000
        assert points[-1].particles_per_rank == 6_250_000


class TestStrongScalingThreads:
    def test_monotone_throughput(self):
        rows = strong_scaling_threads([1, 2, 4, 8], 1_000_000, 10, config=CFG)
        tps = [mps for _, mps in rows]
        assert tps == sorted(tps)

    def test_custom_comm_model_respected(self):
        cheap = CollectiveCostModel(latency_s=0.0, bandwidth_gbs=1e9, imbalance_coeff=0.0)
        pts = weak_scaling_series(
            [1, 1024], 1_000_000, GRID_BYTES, 100,
            comm_model=cheap, threads_per_rank=1, config=CFG,
        )
        assert pts[-1].comm_seconds == pytest.approx(0.0, abs=1e-6)
