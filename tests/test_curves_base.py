"""Tests for the ordering registry and CellOrdering base behaviour."""

import numpy as np
import pytest

from repro.curves import (
    CellOrdering,
    available_orderings,
    get_ordering,
    register_ordering,
)
from repro.curves.base import require_power_of_two


class TestRegistry:
    def test_builtin_orderings_registered(self):
        names = available_orderings()
        for expected in ("row-major", "column-major", "l4d", "morton", "hilbert"):
            assert expected in names

    def test_get_ordering_case_insensitive(self):
        o = get_ordering("Morton", 8, 8)
        assert o.name == "morton"

    def test_get_ordering_unknown_raises_with_choices(self):
        with pytest.raises(KeyError, match="row-major"):
            get_ordering("zigzag", 8, 8)

    def test_get_ordering_passes_kwargs(self):
        o = get_ordering("l4d", 16, 16, size=4)
        assert o.size == 4

    def test_register_custom_ordering(self):
        class Flipped(CellOrdering):
            name = "flipped-test"

            def encode(self, ix, iy):
                return (self.ncx - 1 - np.asarray(ix)) * self.ncy + np.asarray(iy)

            def decode(self, icell):
                icell = np.asarray(icell)
                return self.ncx - 1 - icell // self.ncy, icell % self.ncy

        register_ordering("flipped-test", Flipped)
        o = get_ordering("flipped-test", 4, 4)
        assert o.encode(3, 0) == 0


class TestBaseBehaviour:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            get_ordering("row-major", 0, 8)
        with pytest.raises(ValueError):
            get_ordering("row-major", 8, -1)

    def test_ncells(self):
        o = get_ordering("row-major", 8, 4)
        assert o.ncells == 32
        assert o.ncells_allocated == 32

    @pytest.mark.parametrize("extents", [(8, 4), (8, 4, 2)], ids=["2d", "3d"])
    @pytest.mark.parametrize("name", ["row-major", "column-major", "morton"])
    def test_serves_two_and_three_axes(self, name, extents):
        o = get_ordering(name, *extents)
        assert (o.shape, o.ndim, o.ncells) == (extents, len(extents), np.prod(extents))
        coords = np.indices(extents).reshape(len(extents), -1)
        for got, want in zip(o.decode(o.encode(*coords)), coords):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", ["l4d", "hilbert"])
    def test_2d_only_curves_reject_other_axis_counts(self, name):
        with pytest.raises(ValueError, match="of 2 axes"):
            get_ordering(name, 8, 8, 8)
        with pytest.raises(ValueError, match="of 2 or 3 axes"):
            get_ordering("row-major", 8)

    def test_spec_rebuilds_the_ordering(self, any_ordering):
        name, extents, kwargs = any_ordering.spec
        twin = get_ordering(name, *extents, **dict(kwargs))
        assert twin.spec == any_ordering.spec
        assert twin.index_map().tobytes() == any_ordering.index_map().tobytes()

    def test_index_map_shape(self, any_ordering):
        m = any_ordering.index_map()
        assert m.shape == (16, 16)

    def test_index_map_bijective_on_real_cells(self, any_ordering):
        m = any_ordering.index_map()
        assert len(np.unique(m)) == any_ordering.ncells
        assert m.min() >= 0
        assert m.max() < any_ordering.ncells_allocated

    def test_decode_inverts_encode(self, any_ordering):
        m = any_ordering.index_map()
        ix, iy = any_ordering.decode(m.ravel())
        gx, gy = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        np.testing.assert_array_equal(ix, gx.ravel())
        np.testing.assert_array_equal(iy, gy.ravel())

    def test_scalar_encode_works(self, any_ordering):
        v = any_ordering.encode(3, 4)
        assert np.asarray(v).shape == ()


class TestRequirePowerOfTwo:
    @pytest.mark.parametrize("n,log", [(1, 0), (2, 1), (8, 3), (1024, 10)])
    def test_accepts_powers(self, n, log):
        assert require_power_of_two(n, "x") == log

    @pytest.mark.parametrize("n", [0, -4, 3, 6, 12, 100])
    def test_rejects_non_powers(self, n):
        with pytest.raises(ValueError):
            require_power_of_two(n, "x")
