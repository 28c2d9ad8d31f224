"""Per-ordering unit tests: closed forms, layouts, known index maps.

The curves that serve both dimensions (dilated integers, Morton) are
tested once per ``ndim``; every registered ordering's index maps are
held byte for byte to ``tests/data/index_maps_pr27.npz``, recorded
before one class family replaced the separate 2D and 3D ones.
"""

import hashlib
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.curves import (
    ColumnMajorOrdering,
    HilbertOrdering,
    L4DOrdering,
    MortonOrdering,
    RowMajorOrdering,
    dilate,
    get_ordering,
    hilbert_decode_2d,
    hilbert_encode_2d,
    undilate,
)

#: ``<name>@<extents>[@size=<s>]`` -> the index map, or for maps over
#: 64 cells a side the SHA-256 of its int64 bytes
RECORDED = np.load(pathlib.Path(__file__).parent / "data" / "index_maps_pr27.npz")


@pytest.mark.parametrize("key", sorted(RECORDED.files))
def test_index_map_is_the_recorded_one(key):
    name, extents, *kwargs = key.split("@")
    kwargs = {k: int(v) for k, v in (kw.split("=") for kw in kwargs)}
    got = get_ordering(name, *map(int, extents.split("x")), **kwargs).index_map()
    want = RECORDED[key]
    assert got.dtype == np.int64
    if want.dtype.kind == "U":
        assert hashlib.sha256(got.tobytes()).hexdigest() == str(want)
    else:
        assert got.tobytes() == want.tobytes()


class TestRowMajor:
    def test_closed_form(self):
        o = RowMajorOrdering(8, 16)
        assert o.encode(3, 5) == 3 * 16 + 5

    def test_y_moves_are_unit_steps(self):
        o = RowMajorOrdering(8, 8)
        assert o.encode(2, 4) + 1 == o.encode(2, 5)

    def test_x_moves_jump_by_ncy(self):
        o = RowMajorOrdering(8, 16)
        assert o.encode(3, 5) + 16 == o.encode(4, 5)

    def test_rectangular(self):
        o = RowMajorOrdering(4, 32)
        m = o.index_map()
        assert m[0, 31] == 31 and m[1, 0] == 32


class TestColumnMajor:
    def test_closed_form(self):
        o = ColumnMajorOrdering(8, 16)
        assert o.encode(3, 5) == 5 * 8 + 3

    def test_transpose_of_row_major(self):
        rm = RowMajorOrdering(8, 8).index_map()
        cm = ColumnMajorOrdering(8, 8).index_map()
        np.testing.assert_array_equal(cm, rm.T)


class TestL4D:
    def test_paper_closed_form(self):
        # icell = SIZE*ix + mod(iy, SIZE) + ncx*SIZE*(iy/SIZE)  (§IV-B)
        o = L4DOrdering(128, 128, size=8)
        ix, iy = 13, 27
        expected = 8 * ix + (iy % 8) + 128 * 8 * (iy // 8)
        assert o.encode(ix, iy) == expected

    def test_figure4_corners(self):
        # Fig. 4: 128x128, SIZE=8 — first column segment is 0..7, the
        # second (ix=1) 8..15; cell (0,8) starts band 2 at 1024
        o = L4DOrdering(128, 128, size=8)
        assert o.encode(0, 0) == 0
        assert o.encode(0, 7) == 7
        assert o.encode(1, 0) == 8
        assert o.encode(127, 7) == 1023
        assert o.encode(0, 8) == 1024
        assert o.encode(127, 127) == 16383

    def test_size_ncy_is_row_major_permutation(self):
        # paper: SIZE=ncy corresponds to the row-major ordering
        l4d = L4DOrdering(8, 8, size=8).index_map()
        rm = RowMajorOrdering(8, 8).index_map()
        np.testing.assert_array_equal(l4d, rm)

    def test_size_one_is_column_major(self):
        l4d = L4DOrdering(8, 8, size=1).index_map()
        cm = ColumnMajorOrdering(8, 8).index_map()
        np.testing.assert_array_equal(l4d, cm)

    def test_vertical_moves_mostly_unit(self):
        o = L4DOrdering(16, 16, size=8)
        # within a band, +1 in iy moves the index by +1
        assert o.encode(3, 2) + 1 == o.encode(3, 3)
        # crossing the band boundary jumps
        assert o.encode(3, 8) - o.encode(3, 7) != 1

    def test_horizontal_moves_jump_by_size(self):
        o = L4DOrdering(16, 16, size=8)
        assert o.encode(4, 3) + 8 == o.encode(5, 3)

    def test_padding_when_size_does_not_divide(self):
        # paper: "a few allocated cells ... that will never be accessed"
        o = L4DOrdering(8, 10, size=4)
        assert o.nbands == 3
        assert o.ncells_allocated == 8 * 4 * 3  # 96 > 80 real cells
        m = o.index_map()
        assert len(np.unique(m)) == 80
        assert m.max() < o.ncells_allocated

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            L4DOrdering(8, 8, size=0)

    def test_decode_roundtrip_with_padding(self):
        o = L4DOrdering(8, 10, size=4)
        ix = np.arange(8).repeat(10)
        iy = np.tile(np.arange(10), 8)
        jx, jy = o.decode(o.encode(ix, iy))
        np.testing.assert_array_equal(ix, jx)
        np.testing.assert_array_equal(iy, jy)


@pytest.mark.parametrize("ndim", [2, 3])
class TestDilatedIntegers:
    def test_dilate_small_values(self, ndim):
        # 0b11 -> 0b0101 / 0b1001, 0b111 -> 0b010101 / 0b001001001
        assert int(dilate(np.array([0b11]), ndim)[0]) == 1 | 1 << ndim
        assert int(dilate(np.array([0b111]), ndim)[0]) == sum(
            1 << (ndim * b) for b in range(3)
        )

    def test_dilate_max_16bit(self, ndim):
        # every ndim-th bit set, 16 of them, lowest at position 0: 32
        # bits (0x55555555) in 2D, 48 in 3D
        v = dilate(np.array([0xFFFF]), ndim)
        assert v.dtype == (np.uint32 if ndim == 2 else np.uint64)
        assert int(v[0]) == sum(1 << (ndim * b) for b in range(16))

    def test_undilate_inverts_dilate(self, ndim, rng):
        x = rng.integers(0, 1 << 16, 2000)
        np.testing.assert_array_equal(undilate(dilate(x, ndim), ndim), x)

    def test_dilate_is_bit_interleave_zero(self, ndim):
        # dilated bits land in every ndim-th position only
        d = int(dilate(np.array([0b1011]), ndim)[0])
        for bit in range(16):
            for gap in range(1, ndim):
                assert ((d >> (ndim * bit + gap)) & 1) == 0


class TestMorton:
    def test_known_8x8_map(self):
        # Fig. 3's N-order: the four quadrants of a 4x4 block follow
        # the Z pattern
        o = MortonOrdering(8, 8)
        assert o.encode(0, 0) == 0
        assert o.encode(0, 1) == 1
        assert o.encode(1, 0) == 2
        assert o.encode(1, 1) == 3
        assert o.encode(0, 2) == 4
        assert o.encode(2, 0) == 8
        assert o.encode(7, 7) == 63

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_encode_decode_functions(self, ndim, rng):
        o = MortonOrdering(*(1 << 12,) * ndim)
        coords = [rng.integers(0, 1 << 12, 3000) for _ in range(ndim)]
        for got, want in zip(o.decode(o.encode(*coords)), coords):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_unit_cell_order(self, ndim):
        # the last axis least significant: (0,0,0), (0,0,1), (0,1,0), ...
        o = MortonOrdering(*(8,) * ndim)
        corners = np.indices((2,) * ndim).reshape(ndim, -1)
        np.testing.assert_array_equal(o.encode(*corners), np.arange(1 << ndim))

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_bijective_on_cube(self, ndim):
        m = MortonOrdering(*(8,) * ndim).index_map()
        np.testing.assert_array_equal(np.sort(m.ravel()), np.arange(8**ndim))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            MortonOrdering(12, 8)
        with pytest.raises(ValueError):
            MortonOrdering(8, 6, 8)

    def test_rectangular_wide(self):
        o = MortonOrdering(4, 16)
        m = o.index_map()
        assert len(np.unique(m)) == 64
        assert m.max() == 63

    def test_rectangular_tall(self):
        o = MortonOrdering(32, 4)
        m = o.index_map()
        assert len(np.unique(m)) == 128
        assert m.max() == 127

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_last_axis_moves_often_unit_index(self, ndim):
        # a +1 move along the last axis from an even coordinate flips
        # only the lowest bit: 8 of the 15 moves along 16 cells
        m = MortonOrdering(*(16,) * ndim).index_map()
        deltas = np.diff(m, axis=-1)
        assert np.all(deltas[..., 0::2] == 1)
        assert np.mean(deltas == 1) == pytest.approx(8 / 15)


@pytest.mark.parametrize("ndim", [2, 3])
@given(coords=st.lists(st.integers(0, (1 << 16) - 1), min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_morton_roundtrip_any_16bit(ndim, coords):
    o = MortonOrdering(*(1 << 16,) * ndim)
    coords = coords[:ndim]
    assert [int(c) for c in o.decode(o.encode(*coords))] == coords


class TestHilbert:
    def test_first_quadrant_order_4x4(self):
        # this implementation's 4x4 walk starts (0,0)->(1,0)->(1,1)->(0,1)
        # (the x-first reflection of the canonical curve)
        d = hilbert_encode_2d(2, np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1]))
        np.testing.assert_array_equal(d, [0, 1, 2, 3])

    def test_encode_decode_roundtrip(self, rng):
        order = 6
        ix = rng.integers(0, 64, 1000)
        iy = rng.integers(0, 64, 1000)
        jx, jy = hilbert_decode_2d(order, hilbert_encode_2d(order, ix, iy))
        np.testing.assert_array_equal(ix, jx)
        np.testing.assert_array_equal(iy, jy)

    def test_consecutive_indices_are_grid_neighbors(self):
        # the defining Hilbert property
        order = 4
        n = 1 << order
        d = np.arange(n * n)
        x, y = hilbert_decode_2d(order, d)
        step = np.abs(np.diff(x)) + np.abs(np.diff(y))
        np.testing.assert_array_equal(step, np.ones(n * n - 1))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            HilbertOrdering(8, 6)

    def test_rectangular_tiles(self):
        o = HilbertOrdering(16, 4)
        m = o.index_map()
        assert len(np.unique(m)) == 64
        # second tile starts after the first square's 16 cells
        assert sorted(m[:4, :].ravel()) == list(range(16))
