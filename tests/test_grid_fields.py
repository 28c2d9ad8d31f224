"""Field-layout tests: corner conventions, redundant round trips."""

import numpy as np
import pytest

from repro.core.kernels import accumulate_rows, corner_weights
from repro.curves import get_ordering
from repro.grid import (
    GridSpec,
    RedundantFields,
    StandardFields,
    corner_offsets,
)
from repro.pic3d import GridSpec3D


class TestCornerWeights:
    def test_offsets_table(self):
        np.testing.assert_array_equal(
            corner_offsets(2), [[0, 0], [0, 1], [1, 0], [1, 1]]
        )

    def test_weights_sum_to_one(self, rng):
        w = corner_weights((rng.random(1000), rng.random(1000)))
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-14)

    def test_weights_at_lower_corner(self):
        w = corner_weights((np.array([0.0]), np.array([0.0])))
        np.testing.assert_allclose(w[0], [1, 0, 0, 0])

    def test_weights_at_upper_corner(self):
        w = corner_weights((np.array([1.0]), np.array([1.0])))
        np.testing.assert_allclose(w[0], [0, 0, 0, 1])

    def test_weights_match_bilinear_products(self, rng):
        dx = rng.random(50)
        dy = rng.random(50)
        w = corner_weights((dx, dy))
        np.testing.assert_allclose(w[:, 0], (1 - dx) * (1 - dy))
        np.testing.assert_allclose(w[:, 1], (1 - dx) * dy)
        np.testing.assert_allclose(w[:, 2], dx * (1 - dy))
        np.testing.assert_allclose(w[:, 3], dx * dy)

    def test_weights_nonnegative(self, rng):
        w = corner_weights((rng.random(200), rng.random(200)))
        assert w.min() >= 0


class TestStandardFields:
    def test_shapes(self, small_grid):
        f = StandardFields(small_grid)
        assert f.rho.shape == f.ex.shape == f.ey.shape == (16, 16)
        assert f.rho_grid() is f.rho

    def test_set_field(self, small_grid, rng):
        f = StandardFields(small_grid)
        ex = rng.random((16, 16))
        ey = rng.random((16, 16))
        f.set_field_from_grid(ex, ey)
        np.testing.assert_array_equal(f.ex, ex)
        np.testing.assert_array_equal(f.ey, ey)


@pytest.fixture(params=["row-major", "l4d", "morton", "hilbert"])
def redundant(request, small_grid):
    ordering = get_ordering(request.param, 16, 16)
    return RedundantFields(small_grid, ordering)


class TestRedundantFields:
    def test_allocation(self, redundant):
        assert redundant.rho_1d.shape == (redundant.ordering.ncells_allocated, 4)
        assert redundant.e_1d.shape == (redundant.ordering.ncells_allocated, 8)

    def test_memory_is_4x_standard_rho(self, small_grid, redundant):
        std = StandardFields(small_grid)
        # paper: the redundant structure needs four times more memory
        assert redundant.rho_1d.nbytes == 4 * std.rho.nbytes

    def test_rejects_mismatched_ordering(self, small_grid):
        with pytest.raises(ValueError):
            RedundantFields(small_grid, get_ordering("row-major", 8, 8))

    def test_field_broadcast_roundtrip(self, redundant, rng):
        ex = rng.random((16, 16))
        ey = rng.random((16, 16))
        redundant.load_field_from_grid(ex, ey)
        bx, by = redundant.field_at_grid()
        np.testing.assert_allclose(bx, ex)
        np.testing.assert_allclose(by, ey)

    def test_broadcast_corner_values_consistent(self, redundant, rng):
        """Every cell's corner c must hold E at grid point (ix+ox, iy+oy)."""
        ex = rng.random((16, 16))
        ey = rng.random((16, 16))
        redundant.load_field_from_grid(ex, ey)
        o = redundant.ordering
        idx = redundant.cell_index_map()
        for c, (ox, oy) in enumerate(corner_offsets(2)):
            gx = (np.arange(16)[:, None] + ox) % 16
            gy = (np.arange(16)[None, :] + oy) % 16
            np.testing.assert_allclose(redundant.e_1d[idx, c], ex[gx, gy])
            np.testing.assert_allclose(redundant.e_1d[idx, 4 + c], ey[gx, gy])

    @pytest.mark.parametrize(
        "name,kw,shape",
        [("morton", {}, (16, 8)), ("l4d", {"size": 3}, (12, 10)),
         ("l4d", {"size": 8}, (7, 5)), ("row-major", {}, (7, 5))],
    )
    def test_gather_map_equals_rolled_scatter(self, rng, name, kw, shape):
        """The precomputed corner gather is a pure copy of what eight
        rolled 2D scatters wrote, and padding rows (orderings that
        allocate more rows than cells) stay zero across reloads."""
        ordering = get_ordering(name, *shape, **kw)
        fields = RedundantFields(GridSpec(*shape, 0, 1, 0, 1), ordering)
        idx = fields.cell_index_map()
        padding = np.setdiff1d(np.arange(ordering.ncells_allocated), idx)
        for _ in range(2):
            ex, ey = rng.normal(size=shape), rng.normal(size=shape)
            fields.load_field_from_grid(ex, ey)
            want = np.zeros_like(fields.e_1d)
            for c, (ox, oy) in enumerate(corner_offsets(2)):
                want[idx, c] = np.roll(ex, (-ox, -oy), axis=(0, 1))
                want[idx, 4 + c] = np.roll(ey, (-ox, -oy), axis=(0, 1))
            assert fields.e_1d.tobytes() == want.tobytes()
            assert not fields.e_1d[padding].any()

    def test_reduce_rho_folds_corners(self, redundant):
        """A unit charge written to all 4 corners of one cell lands on
        the cell's 4 surrounding grid points after reduction."""
        o = redundant.ordering
        icell = int(o.encode(3, 5))
        redundant.rho_1d[icell, :] = 1.0
        rho = redundant.reduce_rho_to_grid()
        assert rho[3, 5] == 1.0
        assert rho[3, 6] == 1.0
        assert rho[4, 5] == 1.0
        assert rho[4, 6] == 1.0
        assert rho.sum() == 4.0

    def test_reduce_rho_periodic_edges(self, redundant):
        o = redundant.ordering
        icell = int(o.encode(15, 15))
        redundant.rho_1d[icell, 3] = 2.0  # corner (+1, +1) wraps to (0, 0)
        rho = redundant.reduce_rho_to_grid()
        assert rho[0, 0] == 2.0

    def test_reduce_conserves_total(self, redundant, rng):
        redundant.rho_1d[: redundant.ordering.ncells] = rng.random(
            (redundant.ordering.ncells, 4)
        )
        total = redundant.rho_1d.sum()
        assert redundant.reduce_rho_to_grid().sum() == pytest.approx(total)

    def test_reset_rho(self, redundant):
        redundant.rho_1d[:] = 3.0
        redundant.reset_rho()
        assert redundant.rho_1d.sum() == 0.0

    def test_cell_index_map_readonly(self, redundant):
        m = redundant.cell_index_map()
        with pytest.raises(ValueError):
            m[0, 0] = 1

    def test_rho_grid_alias(self, redundant):
        redundant.rho_1d[0, 0] = 1.0
        np.testing.assert_array_equal(
            redundant.rho_grid(), redundant.reduce_rho_to_grid()
        )

    def test_load_field_validates_shape(self, redundant):
        with pytest.raises(ValueError):
            redundant.load_field_from_grid(np.zeros((8, 8)), np.zeros((8, 8)))


# ----------------------------------------------------------------------
# The one store, both dimensions
# ----------------------------------------------------------------------
def _store(ndim, name):
    """A ``RedundantFields`` over a non-cubic grid; ``l4d`` with a tile
    height that does not divide ``ncy`` allocates padding rows."""
    if ndim == 3:
        shape = (8, 4, 2)
        return RedundantFields(GridSpec3D(*shape), get_ordering(name, *shape))
    shape = (12, 10) if name == "l4d" else (16, 8)
    kw = {"size": 3} if name == "l4d" else {}
    return RedundantFields(GridSpec(*shape), get_ordering(name, *shape, **kw))


@pytest.mark.parametrize(
    "ndim,name",
    [(2, "row-major"), (2, "morton"), (2, "l4d"), (3, "row-major"), (3, "morton")],
)
class TestRedundantFieldsAnyDimension:
    def test_shapes(self, ndim, name):
        f = _store(ndim, name)
        nalloc = f.ordering.ncells_allocated
        assert f.layout == "redundant"
        assert f.rho_1d.shape == (nalloc, 1 << ndim)
        assert f.e_1d.shape == (nalloc, ndim << ndim)
        assert (nalloc > f.grid.ncells) == (name == "l4d")

    def test_field_roundtrip_and_padding(self, ndim, name, rng):
        f = _store(ndim, name)
        shape = f.grid.shape
        padding = np.setdiff1d(
            np.arange(f.ordering.ncells_allocated), f.cell_index_map()
        )
        for _ in range(2):  # a reload must not leak into padding rows
            comps = [rng.normal(size=shape) for _ in shape]
            f.load_field_from_grid(*comps)
            back = f.field_at_grid()
            assert len(back) == ndim
            for got, want in zip(back, comps):
                assert got.tobytes() == want.tobytes()
            assert not f.e_1d[padding].any()
        # every corner column is the component rolled by the corner offset
        idx = f.cell_index_map()
        for c, offset in enumerate(corner_offsets(ndim)):
            for k, comp in enumerate(comps):
                want = np.roll(comp, tuple(-offset), axis=tuple(range(ndim)))
                assert np.array_equal(f.e_1d[idx, (k << ndim) + c], want)

    def test_load_validates_count_and_shape(self, ndim, name):
        f = _store(ndim, name)
        good = [np.zeros(f.grid.shape)] * ndim
        with pytest.raises(ValueError):
            f.load_field_from_grid(*good[:-1])
        with pytest.raises(ValueError):
            f.load_field_from_grid(*good[:-1], np.zeros((3,) * ndim))

    def test_deposit_then_reduce_conserves_charge(self, ndim, name, rng):
        f = _store(ndim, name)
        n = 500
        coords = [rng.integers(0, nc, n) for nc in f.grid.shape]
        offsets = [rng.random(n) for _ in coords]
        accumulate_rows(f.rho_1d, f.ordering.encode(*coords), offsets, 0.25)
        rho = f.reduce_rho_to_grid()
        assert rho.shape == f.grid.shape
        assert rho.sum() == pytest.approx(0.25 * n, rel=1e-12)
        np.testing.assert_array_equal(f.rho_grid(), rho)
        # one particle sitting exactly on a node charges only that node
        # (the deposit writes rho_1d: the first deposit is gone)
        node = tuple(nc - 1 for nc in f.grid.shape)
        accumulate_rows(
            f.rho_1d, np.atleast_1d(f.ordering.encode(*node)),
            [np.zeros(1)] * ndim, 1.0,
        )
        rho = f.reduce_rho_to_grid()
        assert rho[node] == 1.0 and rho.sum() == 1.0
