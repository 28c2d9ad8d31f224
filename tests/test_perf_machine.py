"""MachineSpec / CacheLevelSpec tests."""

import pytest

from repro.model.machine import CacheLevelSpec, MachineSpec, OpCosts


class TestCacheLevelSpec:
    def test_geometry_derivation(self):
        lv = CacheLevelSpec("L1", 32 * 1024, 64, 8, 10.0)
        assert lv.n_lines == 512
        assert lv.n_sets == 64

    def test_rejects_non_pow2_line(self):
        with pytest.raises(ValueError):
            CacheLevelSpec("L1", 1024, 48, 2, 1.0)

    def test_rejects_indivisible_capacity(self):
        with pytest.raises(ValueError):
            CacheLevelSpec("L1", 1000, 64, 4, 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CacheLevelSpec("L1", 0, 64, 4, 1.0)


class TestMachineSpec:
    def test_presets_construct(self):
        for spec in (MachineSpec.haswell(), MachineSpec.sandybridge(), MachineSpec.tiny_test()):
            assert spec.line_bytes == 64
            assert spec.freq_ghz > 0

    def test_haswell_matches_paper(self):
        m = MachineSpec.haswell()
        assert m.freq_ghz == pytest.approx(2.3)
        assert m.cores_per_socket == 10
        assert m.mem_channels == 2
        assert m.levels[0].capacity_bytes == 32 * 1024

    def test_sandybridge_matches_paper(self):
        m = MachineSpec.sandybridge()
        assert m.freq_ghz == pytest.approx(2.7)
        assert m.cores_per_socket == 8
        assert m.mem_channels == 4
        assert m.peak_bandwidth_gbs == pytest.approx(51.2)

    def test_levels_must_share_line_size(self):
        with pytest.raises(ValueError):
            MachineSpec(
                "bad", 1.0, 4, 2.0, 2.0,
                (
                    CacheLevelSpec("L1", 1024, 64, 2, 1.0),
                    CacheLevelSpec("L2", 4096, 128, 2, 1.0),
                ),
                1, 1, 1.0, 1.0,
            )

    def test_levels_must_grow(self):
        with pytest.raises(ValueError):
            MachineSpec(
                "bad", 1.0, 4, 2.0, 2.0,
                (
                    CacheLevelSpec("L1", 4096, 64, 2, 1.0),
                    CacheLevelSpec("L2", 1024, 64, 2, 1.0),
                ),
                1, 1, 1.0, 1.0,
            )


class TestScaling:
    def test_scaled_divides_capacities(self):
        m = MachineSpec.haswell().scaled(8)
        assert m.levels[0].capacity_bytes == 4 * 1024
        assert m.levels[1].capacity_bytes == 32 * 1024
        # geometry preserved
        assert m.levels[0].associativity == 8
        assert m.line_bytes == 64

    def test_scaled_name_suffix(self):
        assert MachineSpec.haswell().scaled(4).name == "haswell/4"
        assert MachineSpec.haswell().scaled(4, "-test").name == "haswell-test"

    def test_scaled_rejects_too_small(self):
        with pytest.raises(ValueError):
            MachineSpec.tiny_test().scaled(64)

    def test_scaled_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            MachineSpec.haswell().scaled(0)

    def test_scale_one_identity_capacities(self):
        m = MachineSpec.haswell().scaled(1)
        assert [l.capacity_bytes for l in m.levels] == [
            l.capacity_bytes for l in MachineSpec.haswell().levels
        ]


class TestOpCosts:
    def test_defaults_ordering(self):
        ops = OpCosts()
        # structural cost ratios the model depends on
        assert ops.int_div > ops.float_floor_call > ops.float_floor_inline
        assert ops.branch_miss > ops.branch
        assert ops.gather_element > ops.load_store
