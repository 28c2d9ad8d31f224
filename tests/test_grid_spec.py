"""GridSpec tests: coordinate transforms, wrap, bookkeeping."""

import numpy as np
import pytest

from repro.core.kernels import wrap_for
from repro.grid import GridSpec


class TestConstruction:
    def test_defaults_unit_box(self):
        g = GridSpec(8, 8)
        assert g.lx == 1.0 and g.ly == 1.0
        assert g.dx == pytest.approx(1 / 8)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            GridSpec(0, 8)
        with pytest.raises(ValueError):
            GridSpec(8, -2)

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            GridSpec(8, 8, 1.0, 1.0)
        with pytest.raises(ValueError):
            GridSpec(8, 8, 0.0, 1.0, 2.0, 1.0)

    def test_derived_quantities(self):
        g = GridSpec(16, 32, 0.0, 4.0, -1.0, 1.0)
        assert g.ncells == 512
        assert g.dx == pytest.approx(0.25)
        assert g.dy == pytest.approx(2.0 / 32)
        assert g.cell_area == pytest.approx(0.25 * 2.0 / 32)
        assert g.area == pytest.approx(8.0)

    @pytest.mark.parametrize("ncx,ncy,expect", [(8, 8, True), (8, 12, False), (3, 4, False)])
    def test_pow2_flag(self, ncx, ncy, expect):
        # the extents alone pick the wrap: bitwise on powers of two
        wrap = wrap_for(GridSpec(ncx, ncy).shape)
        assert (wrap == "bitwise") is expect

    def test_frozen(self):
        g = GridSpec(8, 8)
        with pytest.raises(AttributeError):
            g.ncx = 16


class TestCoordinateTransforms:
    def test_to_grid_coords(self):
        g = GridSpec(10, 10, 2.0, 12.0, 0.0, 5.0)
        x, y = g.to_grid_coords(7.0, 2.5)
        assert x == pytest.approx(5.0)
        assert y == pytest.approx(5.0)

    def test_roundtrip(self, rng):
        g = GridSpec(16, 8, -1.0, 3.0, 0.0, 2.0)
        xp = rng.uniform(-1, 3, 100)
        yp = rng.uniform(0, 2, 100)
        xg, yg = g.to_grid_coords(xp, yp)
        np.testing.assert_allclose(xg * g.dx + g.xmin, xp, atol=1e-12)
        np.testing.assert_allclose(yg * g.dy + g.ymin, yp, atol=1e-12)

    def test_split_coords_basic(self):
        g = GridSpec(8, 8)
        ix, iy, dx, dy = g.split_coords(3.25, 7.75)
        assert (ix, iy) == (3, 7)
        assert dx == pytest.approx(0.25)
        assert dy == pytest.approx(0.75)

    def test_split_coords_wraps_negative(self):
        g = GridSpec(8, 8)
        ix, _, dx, _ = g.split_coords(-0.25, 0.0)
        assert ix == 7
        assert dx == pytest.approx(0.75)

    def test_split_coords_wraps_beyond(self):
        g = GridSpec(8, 8)
        ix, _, dx, _ = g.split_coords(17.5, 0.0)
        assert ix == 1
        assert dx == pytest.approx(0.5)

    def test_split_coords_boundary_fold(self):
        # exactly the upper boundary must fold to cell 0
        g = GridSpec(8, 8)
        ix, iy, dx, dy = g.split_coords(8.0, 8.0)
        assert (ix, iy) == (0, 0)

    def test_split_coords_ranges(self, rng):
        g = GridSpec(16, 16)
        x = rng.uniform(-100, 100, 10_000)
        y = rng.uniform(-100, 100, 10_000)
        ix, iy, dx, dy = g.split_coords(x, y)
        assert ix.min() >= 0 and ix.max() < 16
        assert iy.min() >= 0 and iy.max() < 16
        assert dx.min() >= 0 and dx.max() < 1.0 + 1e-15
        assert dy.min() >= 0 and dy.max() < 1.0 + 1e-15
