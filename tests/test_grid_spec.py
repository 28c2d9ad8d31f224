"""GridSpec tests: coordinate transforms, wrap, bookkeeping."""

import numpy as np
import pytest

from repro.core.kernels import wrap_for
from repro.grid import GridSpec
from repro.grid.spec import split_axis


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
    """:func:`split_axis`, the loader's one split of a grid coordinate
    into a periodically wrapped cell and an offset."""

    def test_roundtrip(self, rng):
        x = rng.uniform(0, 16, 100)
        i, d = split_axis(x, 16)
        np.testing.assert_allclose(i + d, x, atol=1e-12)

    def test_split_coords_basic(self):
        (ix, dx), (iy, dy) = split_axis(3.25, 8), split_axis(7.75, 8)
        assert (ix, iy) == (3, 7)
        assert dx == pytest.approx(0.25)
        assert dy == pytest.approx(0.75)

    def test_split_coords_wraps_negative(self):
        ix, dx = split_axis(-0.25, 8)
        assert ix == 7
        assert dx == pytest.approx(0.75)

    def test_split_coords_wraps_beyond(self):
        ix, dx = split_axis(17.5, 8)
        assert ix == 1
        assert dx == pytest.approx(0.5)

    def test_split_coords_boundary_fold(self):
        # exactly the upper boundary must fold to cell 0
        ix, dx = split_axis(8.0, 8)
        assert (ix, dx) == (0, 0.0)

    def test_split_coords_ranges(self, rng):
        for n in (16, 12):
            i, d = split_axis(rng.uniform(-100, 100, 10_000), n)
            assert i.min() >= 0 and i.max() < n
            assert d.min() >= 0 and d.max() < 1.0 + 1e-15
