"""Trace-generator tests: address maps and per-loop access sets."""

import numpy as np
import pytest

from repro.curves import get_ordering
from repro.model.config import ModelConfig
from repro.model.trace import (
    MemoryLayoutMap,
    trace_accumulate,
    trace_fused_loop,
    trace_update_positions,
    trace_update_velocities,
)
from repro.particles import ParticleSoA
from tests.conftest import random_particle_arrays

NCX = NCY = 16


@pytest.fixture
def ordering():
    return get_ordering("morton", NCX, NCY)


def particles_for(rng, n=64, ordering=None):
    ix, iy, dx, dy, vx, vy = random_particle_arrays(rng, n, NCX, NCY)
    s = ParticleSoA(n)
    s.set_state(ordering.encode(ix, iy), dx, dy, vx, vy, ix, iy)
    return s


class TestMemoryLayoutMap:
    def test_soa_bases_distinct_and_spaced(self):
        m = MemoryLayoutMap(1000, "soa", True, "redundant", 256, NCX, NCY)
        idx = np.array([0])
        bases = {
            a: int(m.particle_attr_addrs(a, idx)[0])
            for a in ("icell", "dx", "vx", "iy")
        }
        vals = sorted(bases.values())
        assert all(b - a >= 4 * 1024 * 1024 for a, b in zip(vals, vals[1:]))

    def test_soa_attr_stride_8(self):
        m = MemoryLayoutMap(100, "soa", True, "redundant", 256, NCX, NCY)
        a = m.particle_attr_addrs("dx", np.array([0, 1, 2]))
        np.testing.assert_array_equal(np.diff(a), [8, 8])

    def test_aos_attr_stride_record(self):
        m = MemoryLayoutMap(100, "aos", True, "redundant", 256, NCX, NCY)
        a = m.particle_attr_addrs("dx", np.array([0, 1]))
        assert a[1] - a[0] == 56
        b = m.particle_attr_addrs("dy", np.array([0]))
        assert b[0] - a[0] == 8  # dy sits one field after dx in the record

    def test_e_row_64_bytes(self):
        m = MemoryLayoutMap(10, "soa", True, "redundant", 256, NCX, NCY)
        a = m.e_row_addrs(np.array([0, 1, 5]))
        np.testing.assert_array_equal(np.diff(a), [64, 256])

    def test_rho_row_32_bytes(self):
        m = MemoryLayoutMap(10, "soa", True, "redundant", 256, NCX, NCY)
        a = m.rho_row_addrs(np.array([0, 1]))
        assert a[1] - a[0] == 32

    def test_grid_point_addrs_row_major(self):
        m = MemoryLayoutMap(10, "soa", True, "standard", 0, NCX, NCY)
        a = m.grid_point_addrs("ex", np.array([1]), np.array([2]))
        b = m.grid_point_addrs("ex", np.array([0]), np.array([0]))
        assert a[0] - b[0] == 8 * (NCY + 2)

    def test_for_config(self, ordering):
        cfg = ModelConfig.fully_optimized()
        m = MemoryLayoutMap.for_config(cfg, ordering, 500)
        assert m.field_layout == "redundant"
        assert m.ncells_allocated == ordering.ncells_allocated


class TestTraceShapes:
    def test_update_v_redundant_addresses_per_particle(self, rng, ordering):
        p = particles_for(rng, ordering=ordering)
        m = MemoryLayoutMap(p.n, "soa", True, "redundant", 256, NCX, NCY)
        t = trace_update_velocities(p, m)
        assert len(t) == p.n * 6  # icell,dx,dy + E row + vx,vy

    def test_update_v_standard_addresses_per_particle(self, rng, ordering):
        p = particles_for(rng, ordering=ordering)
        m = MemoryLayoutMap(p.n, "soa", True, "standard", 0, NCX, NCY)
        t = trace_update_velocities(p, m)
        assert len(t) == p.n * (3 + 8 + 2)

    def test_update_x_sequential_only(self, rng, ordering):
        p = particles_for(rng, ordering=ordering)
        m = MemoryLayoutMap(p.n, "soa", True, "redundant", 256, NCX, NCY)
        t = trace_update_positions(p, m)
        assert len(t) == p.n * 7
        # strictly per-particle interleaved: every 7-address block is
        # one particle's attributes, each 8 bytes past the previous
        blocks = t.reshape(p.n, 7)
        np.testing.assert_array_equal(np.diff(blocks, axis=0), 8)

    def test_accumulate_redundant(self, rng, ordering):
        p = particles_for(rng, ordering=ordering)
        m = MemoryLayoutMap(p.n, "soa", True, "redundant", 256, NCX, NCY)
        t = trace_accumulate(p, m)
        assert len(t) == p.n * 4

    def test_accumulate_standard_corners(self, rng, ordering):
        p = particles_for(rng, ordering=ordering)
        m = MemoryLayoutMap(p.n, "soa", True, "standard", 0, NCX, NCY)
        t = trace_accumulate(p, m)
        assert len(t) == p.n * (3 + 4)

    def test_fused_superset_of_split(self, rng, ordering):
        p = particles_for(rng, ordering=ordering)
        m = MemoryLayoutMap(p.n, "soa", True, "redundant", 256, NCX, NCY)
        fused = set(trace_fused_loop(p, m).tolist())
        for tracer in (trace_update_velocities, trace_accumulate):
            assert set(tracer(p, m).tolist()) <= fused

    def test_field_addresses_follow_icell(self, rng, ordering):
        p = particles_for(rng, ordering=ordering)
        m = MemoryLayoutMap(p.n, "soa", True, "redundant", 256, NCX, NCY)
        t = trace_update_velocities(p, m).reshape(p.n, 6)
        expected = m.e_row_addrs(np.asarray(p.icell))
        np.testing.assert_array_equal(t[:, 3], expected)

    def test_standard_wraps_corner_addresses(self, ordering):
        # a particle in the last cell must touch grid point (0, 0)
        s = ParticleSoA(1)
        s.set_state(
            ordering.encode(np.array([NCX - 1]), np.array([NCY - 1])),
            np.array([0.5]), np.array([0.5]), np.zeros(1), np.zeros(1),
            np.array([NCX - 1]), np.array([NCY - 1]),
        )
        m = MemoryLayoutMap(1, "soa", True, "standard", 0, NCX, NCY)
        t = trace_accumulate(s, m)
        origin = int(m.grid_point_addrs("rho", np.array([0]), np.array([0]))[0])
        assert origin in t.tolist()

    def test_aos_trace_uses_record_addresses(self, rng, ordering):
        # the addresses are the map's: the values it traces sit in the
        # one executed store, SoA
        p = particles_for(rng, ordering=ordering)
        m = MemoryLayoutMap(p.n, "aos", True, "redundant", 256, NCX, NCY)
        t = trace_update_positions(p, m).reshape(p.n, 7)
        # all 7 attributes of one particle live within one 56-byte record
        spread = t.max(axis=1) - t.min(axis=1)
        assert spread.max() < 56
