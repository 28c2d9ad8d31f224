"""Tests for the 3D space-filling curves (paper §VI outlook)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.curves.curves3d import (
    dilate3_16,
    morton_decode_3d,
    morton_encode_3d,
    undilate3_16,
)


class TestDilation3:
    def test_small_values(self):
        # 0b111 -> 0b001001001
        assert int(dilate3_16(np.array([0b111]))[0]) == 0b001001001

    def test_full_16bit(self):
        # every third bit set, 16 of them, lowest at position 0
        v = int(dilate3_16(np.array([0xFFFF]))[0])
        assert v == sum(1 << (3 * b) for b in range(16))
        assert bin(v).count("1") == 16

    def test_roundtrip(self, rng):
        x = rng.integers(0, 1 << 16, 2000)
        np.testing.assert_array_equal(
            undilate3_16(dilate3_16(x)), x.astype(np.uint64)
        )

    def test_zero_gaps(self):
        v = int(dilate3_16(np.array([0b1011]))[0])
        for b in range(16):
            assert ((v >> (3 * b + 1)) & 1) == 0
            assert ((v >> (3 * b + 2)) & 1) == 0


class TestMorton3D:
    def test_unit_cube_order(self):
        # z least significant: (0,0,0),(0,0,1),(0,1,0),(0,1,1),(1,0,0)...
        x = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        y = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        z = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        np.testing.assert_array_equal(morton_encode_3d(x, y, z), np.arange(8))

    def test_roundtrip_random(self, rng):
        x = rng.integers(0, 1 << 12, 3000)
        y = rng.integers(0, 1 << 12, 3000)
        z = rng.integers(0, 1 << 12, 3000)
        jx, jy, jz = morton_decode_3d(morton_encode_3d(x, y, z))
        np.testing.assert_array_equal(jx, x)
        np.testing.assert_array_equal(jy, y)
        np.testing.assert_array_equal(jz, z)

    def test_bijective_on_cube(self):
        n = 8
        g = np.arange(n)
        xs, ys, zs = np.meshgrid(g, g, g, indexing="ij")
        codes = morton_encode_3d(xs.ravel(), ys.ravel(), zs.ravel())
        assert len(np.unique(codes)) == n**3
        assert codes.min() == 0 and codes.max() == n**3 - 1

    def test_locality_of_z_moves(self):
        # half of +1 z-moves change the code by exactly 1
        n = 16
        g = np.arange(n)
        xs, ys, zs = np.meshgrid(g, g, g[:-1], indexing="ij")
        a = morton_encode_3d(xs.ravel(), ys.ravel(), zs.ravel())
        b = morton_encode_3d(xs.ravel(), ys.ravel(), zs.ravel() + 1)
        frac_unit = np.mean((b - a) == 1)
        assert frac_unit == pytest.approx(8 / 15, abs=0.01)


@given(
    x=st.integers(0, (1 << 16) - 1),
    y=st.integers(0, (1 << 16) - 1),
    z=st.integers(0, (1 << 16) - 1),
)
@settings(max_examples=200, deadline=None)
def test_morton3d_roundtrip_any_16bit(x, y, z):
    jx, jy, jz = morton_decode_3d(morton_encode_3d(x, y, z))
    assert (int(jx), int(jy), int(jz)) == (x, y, z)
