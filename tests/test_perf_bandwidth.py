"""Bandwidth-model tests: saturation curve, STREAM, traffic accounting."""

import pytest

from repro.model.bandwidth import (
    BandwidthModel,
    loop_bytes_per_particle,
    stream_triad_time,
)
from repro.model.machine import MachineSpec


@pytest.fixture
def sb():
    return BandwidthModel(MachineSpec.sandybridge())


class TestSaturationCurve:
    def test_single_thread_near_core_bw(self, sb):
        assert sb.bandwidth_gbs(1) == pytest.approx(13.0, rel=0.02)

    def test_two_threads_nearly_double(self, sb):
        # Fig. 8 STREAM annotation: x2 at 2 threads
        assert sb.stream_speedup(2) == pytest.approx(2.0, rel=0.02)

    def test_four_threads_near_saturation(self, sb):
        # Fig. 8: x3.9 at 4 threads
        assert sb.stream_speedup(4) == pytest.approx(3.9, rel=0.1)

    def test_eight_threads_capped_at_peak(self, sb):
        # Fig. 8: x4 at 8 threads — the 4 channels are full
        assert sb.bandwidth_gbs(8) <= 51.2
        assert sb.stream_speedup(8) == pytest.approx(4.0, rel=0.05)

    def test_monotone_in_threads(self, sb):
        bws = [sb.bandwidth_gbs(p) for p in range(1, 17)]
        assert bws == sorted(bws)

    def test_rejects_nonpositive_threads(self, sb):
        with pytest.raises(ValueError):
            sb.bandwidth_gbs(0)

    def test_memory_time_inverse_bw(self, sb):
        t1 = sb.memory_time(1e9, 1)
        t4 = sb.memory_time(1e9, 4)
        assert t1 / t4 == pytest.approx(sb.stream_speedup(4))


class TestStreamTriad:
    def test_bytes_accounting(self):
        m = MachineSpec.sandybridge()
        t = stream_triad_time(1_000_000, m, 1)
        bw = BandwidthModel(m).bandwidth_gbs(1)
        assert t == pytest.approx(32e6 / (bw * 1e9))

    def test_faster_with_threads(self):
        m = MachineSpec.sandybridge()
        assert stream_triad_time(1 << 20, m, 4) < stream_triad_time(1 << 20, m, 1)


class TestLoopBytes:
    def test_update_x_heaviest_particle_loop(self):
        bx = loop_bytes_per_particle("update_x")
        bv = loop_bytes_per_particle("update_v")
        ba = loop_bytes_per_particle("accumulate")
        assert bx > bv > ba

    def test_coords_add_traffic(self):
        with_c = loop_bytes_per_particle("update_x", store_coords=True)
        without = loop_bytes_per_particle("update_x", store_coords=False)
        assert with_c > without

    def test_aos_streams_whole_record(self):
        aos = loop_bytes_per_particle("accumulate", particle_layout="aos")
        soa = loop_bytes_per_particle("accumulate", particle_layout="soa")
        # accumulate reads 3 of 7 attributes: AoS drags all 7 through
        assert aos > soa

    def test_miss_bytes_added(self):
        base = loop_bytes_per_particle("update_v")
        plus = loop_bytes_per_particle("update_v", miss_bytes_per_particle=64.0)
        assert plus == pytest.approx(base + 64.0)

    def test_sort_traffic(self):
        assert loop_bytes_per_particle("sort") > 0

    def test_unknown_loop_raises(self):
        with pytest.raises(ValueError):
            loop_bytes_per_particle("solve")
