"""The roofline thread-scaling model and the Table VI/VII shapes it
prices."""

import pytest

from repro.model.config import ModelConfig
from repro.model.costmodel import LoopKind
from repro.model.machine import MachineSpec
from repro.model.openmp import ThreadScalingModel

OPT = ModelConfig.fully_optimized()


class TestThreadScalingModel:
    @pytest.fixture
    def model(self):
        return ThreadScalingModel(MachineSpec.sandybridge())

    def test_compute_bound_scales_linearly(self, model):
        # accumulate is compute-bound at low threads
        t1 = model.loop_seconds(LoopKind.ACCUMULATE, OPT, 10_000_000, 1)
        t2 = model.loop_seconds(LoopKind.ACCUMULATE, OPT, 10_000_000, 2)
        assert t1 / t2 == pytest.approx(2.0, rel=0.1)

    def test_update_x_saturates_at_channels(self, model):
        # Fig. 8: update-positions hits the bandwidth roof
        t4 = model.loop_seconds(LoopKind.UPDATE_X, OPT, 50_000_000, 4)
        t8 = model.loop_seconds(LoopKind.UPDATE_X, OPT, 50_000_000, 8)
        assert t4 / t8 < 1.3  # far from the ideal 2x

    def test_update_x_reaches_stream_bandwidth(self, model):
        # Fig. 8: update-positions achieves STREAM-level bandwidth on 8
        # threads while the irregular loops sit below it
        bw_x = model.loop_bandwidth_gbs(LoopKind.UPDATE_X, OPT, 50_000_000, 8)
        assert bw_x == pytest.approx(model.bw.bandwidth_gbs(8), rel=0.1)

    def test_update_v_below_peak_bandwidth(self, model):
        miss = {"L2": 0.5, "L3": 0.3}
        bw_v = model.loop_bandwidth_gbs(LoopKind.UPDATE_V, OPT, 50_000_000, 8, miss)
        assert bw_v < 0.8 * model.bw.bandwidth_gbs(8)

    def test_iteration_keys_split(self, model):
        out = model.iteration_seconds(OPT, 1_000_000, 4)
        assert {"update_v", "update_x", "accumulate", "sort", "total"} <= set(out)

    def test_iteration_keys_fused(self, model):
        out = model.iteration_seconds(OPT.with_(loop_mode="fused"), 1_000_000, 4)
        assert "particle_loops" in out
        assert out["total"] >= out["particle_loops"]

    def test_sort_parallelizes(self, model):
        t1 = model.sort_seconds(OPT, 10_000_000, 1)
        t4 = model.sort_seconds(OPT, 10_000_000, 4)
        assert t4 < t1

    def test_miss_bytes_increase_memory_time(self, model):
        t0 = model.loop_seconds(LoopKind.UPDATE_V, OPT, 50_000_000, 8)
        t1 = model.loop_seconds(
            LoopKind.UPDATE_V, OPT, 50_000_000, 8, {"L3": 1.0}
        )
        assert t1 > t0


class TestTable6And7Shapes:
    """The thread-scaling tables' qualitative content."""

    def test_table6_knee_at_eight_threads(self):
        from repro.model.scaling import strong_scaling_threads

        rows = dict(
            strong_scaling_threads(
                [1, 2, 4, 8], 50_000_000, 100,
                MachineSpec.sandybridge(),
                OPT.with_(sort_period=50),
            )
        )
        # near-ideal to 4 threads (paper: 45.8 -> 89.9 -> 170)
        assert rows[2] / rows[1] > 1.9
        assert rows[4] / rows[1] > 3.4
        # clear knee at 8 (paper: 266 vs ideal 366)
        assert rows[8] / rows[1] < 7.0

    def test_table7_ordering(self):
        """Table VII: SoA-3loops < {SoA-1loop, AoS-3loops} < AoS-1loop."""
        model = ThreadScalingModel(MachineSpec.sandybridge())
        misses = {
            k: {"L2": 0.3, "L3": 0.25} for k in LoopKind
        }
        fused_misses = {k: {"L2": 0.45, "L3": 0.4} for k in LoopKind}

        def total(pl, lm):
            cfg = OPT.with_(particle_layout=pl, loop_mode=lm, sort_period=50)
            m = fused_misses if lm == "fused" else misses
            return model.iteration_seconds(cfg, 50_000_000, 8, m)["total"]

        soa3 = total("soa", "split")
        soa1 = total("soa", "fused")
        aos3 = total("aos", "split")
        aos1 = total("aos", "fused")
        assert soa3 < soa1
        assert soa3 < aos3
        assert aos1 >= soa1 * 0.95  # AoS never wins
