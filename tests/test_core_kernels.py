"""Kernel tests: vectorized kernels vs the scalar reference oracle."""

import numpy as np
import pytest

from repro.core.kernels import (
    AXIS_KERNELS,
    accumulate_rows,
    corner_weights,
    interpolate_rows,
    kick,
    push_blocked,
    _axis_bitwise,
    _axis_branch,
    _axis_modulo,
)
from repro.core.reference import (
    accumulate_redundant_ref,
    interpolate_redundant_ref,
    push_axis_ref,
)
from repro.curves import get_ordering
from repro.grid import RedundantFields
from repro.particles import make_storage
from tests.conftest import random_particle_arrays

NCX = NCY = 16
VARIANTS = ["branch", "modulo", "bitwise"]


def push(s, ordering, variant, scales=(1.0, 1.0)):
    """The in-place 2D push of one wrap variant."""
    push_blocked(s, (NCX, NCY), ordering, AXIS_KERNELS[variant], scales)


def point_corners(ix, iy):
    """The four ``(jx, jy)`` grid points around each particle's cell,
    +1 edges wrapped: the point-based (standard) layout's addresses,
    Fig. 2's upper variant, which the tests below state by hand."""
    ixp, iyp = (ix + 1) % NCX, (iy + 1) % NCY
    return (ix, iy), (ix, iyp), (ixp, iy), (ixp, iyp)


def gather_points(ex, ey, ix, iy, dx, dy):
    """E at the particles from point-indexed ``(NCX, NCY)`` arrays."""
    w = corner_weights((dx, dy))
    corners = point_corners(ix, iy)
    return tuple(
        sum(w[:, c] * e[jx, jy] for c, (jx, jy) in enumerate(corners))
        for e in (ex, ey)
    )


def redundant_gather(ex, ey, ix, iy, dx, dy, small_grid, ordering="morton"):
    """The same gather through redundant rows holding ``(ex, ey)``."""
    o = get_ordering(ordering, NCX, NCY)
    fields = RedundantFields(small_grid, o)
    fields.load_field_from_grid(ex, ey)
    return interpolate_rows(fields.e_1d, o.encode(ix, iy), (dx, dy))


#: Fig. 2's coefficient tables, spelled out: the weight of corner c is
#: (cx + sx*dx) * (cy + sy*dy) [* (cz + sz*dz)]
FIG2_TABLES = {
    2: (
        ([1.0, 1.0, 0.0, 0.0], [-1.0, -1.0, 1.0, 1.0]),
        ([1.0, 0.0, 1.0, 0.0], [-1.0, 1.0, -1.0, 1.0]),
    ),
    3: (
        ([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
         [-1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0]),
        ([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
         [-1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0]),
        ([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
         [-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0]),
    ),
}


@pytest.mark.parametrize("ndim", [2, 3])
class TestCornerWeightsAnyDimension:
    """The generic ``corner_weights`` is the Fig. 2 table form, bit for
    bit — the form ``grid.fields.corner_weights`` and
    ``pic3d.kernels3d.corner_weights_3d`` each spelled until PR 22."""

    def _table_form(self, ndim, offsets, corners):
        w = 1.0
        for (c, s), d in zip(FIG2_TABLES[ndim], offsets):
            w = w * (np.array(c)[corners, None] + np.array(s)[corners, None] * d)
        return w.T  # (N, len(corners))

    def test_bitwise_the_fig2_tables(self, ndim, rng):
        offsets = [rng.random(257) for _ in range(ndim)]
        offsets[0][:3] = [0.0, -0.0, np.nextafter(1.0, 0.0)]
        w = corner_weights(offsets)
        assert w.shape == (257, 1 << ndim)
        want = self._table_form(ndim, offsets, slice(None))
        assert w.tobytes() == np.ascontiguousarray(want).tobytes()
        # corner-major behind the (N, ncorner) view: each column contiguous
        assert all(w[:, c].flags.c_contiguous for c in range(1 << ndim))

    def test_corner_subsets_take_the_same_bits(self, ndim, rng):
        offsets = [rng.random(100) for _ in range(ndim)]
        full = corner_weights(offsets)
        ncorner = 1 << ndim
        for corners in ([0], [ncorner - 1], [1, 2], list(range(ncorner))[::-1],
                        slice(1, ncorner, 2)):
            sub = corner_weights(offsets, corners)
            assert np.array_equal(sub, full[:, corners]), corners
            assert np.array_equal(
                sub, self._table_form(ndim, offsets, corners)), corners

    def test_deposit_of_a_corner_subset_is_the_full_deposit_there(self, ndim, rng):
        n, ncell = 500, 64
        icell = rng.integers(0, ncell, n)
        offsets = [rng.random(n) for _ in range(ndim)]
        full = np.zeros((ncell, 1 << ndim))
        accumulate_rows(full, icell, offsets, -0.37)
        part = np.zeros_like(full)
        accumulate_rows(part, icell, offsets, -0.37, corners=[1, 2])
        assert np.array_equal(part[:, [1, 2]], full[:, [1, 2]])
        assert not part[:, [0, 3]].any()

    def test_gather_is_the_left_fold_over_corners(self, ndim, rng):
        n, ncell, ncorner = 300, 32, 1 << ndim
        icell = rng.integers(0, ncell, n)
        offsets = [rng.random(n) for _ in range(ndim)]
        e_1d = rng.normal(size=(ncell, ndim * ncorner))
        w = corner_weights(offsets)
        got = interpolate_rows(e_1d, icell, offsets)
        assert len(got) == ndim
        for axis, g in enumerate(got):
            acc = w[:, 0] * e_1d[icell, axis * ncorner]
            for c in range(1, ncorner):
                acc = acc + w[:, c] * e_1d[icell, axis * ncorner + c]
            assert np.array_equal(g, acc)


class TestAccumulateRedundant:
    def test_matches_reference(self, rng):
        o = get_ordering("morton", NCX, NCY)
        ix, iy, dx, dy, _, _ = random_particle_arrays(rng, 200, NCX, NCY)
        icell = o.encode(ix, iy)
        rho = np.zeros((o.ncells_allocated, 4))
        ref = np.zeros((o.ncells_allocated, 4))
        accumulate_rows(rho, icell, (dx, dy), charge=1.3)
        accumulate_redundant_ref(ref, icell, dx, dy, charge=1.3)
        np.testing.assert_allclose(rho, ref, atol=1e-12)

    def test_charge_conservation(self, rng):
        o = get_ordering("l4d", NCX, NCY, size=8)
        ix, iy, dx, dy, _, _ = random_particle_arrays(rng, 300, NCX, NCY)
        rho = np.zeros((o.ncells_allocated, 4))
        accumulate_rows(rho, o.encode(ix, iy), (dx, dy), charge=-1.0)
        assert rho.sum() == pytest.approx(-300.0, rel=1e-12)

    @pytest.mark.parametrize("name", ["row-major", "l4d", "morton", "hilbert"])
    def test_equivalent_to_standard_after_reduction(self, rng, name, small_grid):
        """The central layout invariant: redundant deposit + fold ==
        a scatter straight onto grid points (the standard layout's
        deposit), for every ordering."""
        o = get_ordering(name, NCX, NCY)
        fields = RedundantFields(small_grid, o)
        ix, iy, dx, dy, _, _ = random_particle_arrays(rng, 400, NCX, NCY)
        accumulate_rows(fields.rho_1d, o.encode(ix, iy), (dx, dy), charge=0.5)
        std = np.zeros((NCX, NCY))
        w = corner_weights((dx, dy))
        for c, (jx, jy) in enumerate(point_corners(ix, iy)):
            np.add.at(std, (jx, jy), 0.5 * w[:, c])
        np.testing.assert_allclose(fields.reduce_rho_to_grid(), std, atol=1e-12)


class TestInterpolate:
    def test_redundant_matches_reference(self, rng):
        o = get_ordering("morton", NCX, NCY)
        e_1d = rng.random((o.ncells_allocated, 8))
        ix, iy, dx, dy, _, _ = random_particle_arrays(rng, 150, NCX, NCY)
        icell = o.encode(ix, iy)
        fx, fy = interpolate_rows(e_1d, icell, (dx, dy))
        rx, ry = interpolate_redundant_ref(e_1d, icell, dx, dy)
        np.testing.assert_allclose(fx, rx, atol=1e-12)
        np.testing.assert_allclose(fy, ry, atol=1e-12)

    def test_layouts_agree_on_same_field(self, rng, small_grid):
        """Redundant rows and a gather straight from grid points (the
        standard layout's reads) of the same grid field must produce
        identical particle fields."""
        ex = rng.random((NCX, NCY))
        ey = rng.random((NCX, NCY))
        ix, iy, dx, dy, _, _ = random_particle_arrays(rng, 300, NCX, NCY)
        fx1, fy1 = gather_points(ex, ey, ix, iy, dx, dy)
        fx2, fy2 = redundant_gather(ex, ey, ix, iy, dx, dy, small_grid, "l4d")
        np.testing.assert_allclose(fx1, fx2, atol=1e-12)
        np.testing.assert_allclose(fy1, fy2, atol=1e-12)

    def test_interpolation_exact_at_nodes(self, rng, small_grid):
        ex = rng.random((NCX, NCY))
        ey = rng.random((NCX, NCY))
        ix = np.array([3, 7])
        iy = np.array([2, 9])
        zero = np.zeros(2)
        fx, fy = redundant_gather(ex, ey, ix, iy, zero, zero, small_grid)
        np.testing.assert_allclose(fx, ex[ix, iy])
        np.testing.assert_allclose(fy, ey[ix, iy])

    def test_interpolation_linear_in_offset(self, rng, small_grid):
        # along a cell edge the interpolant is linear
        ex = rng.random((NCX, NCY))
        ey = rng.random((NCX, NCY))
        ix = iy = np.zeros(3, dtype=np.int64)
        dx, zero = np.array([0.0, 1.0, 0.5]), np.zeros(3)
        (f0, f1, fh), _ = redundant_gather(ex, ey, ix, iy, dx, zero, small_grid)
        assert fh == pytest.approx(0.5 * (f0 + f1))


class TestUpdateVelocities:
    def test_unit_coef_inplace_add(self, rng):
        vx = rng.normal(size=10)
        vy = rng.normal(size=10)
        ex = rng.normal(size=10)
        ey = rng.normal(size=10)
        vx0, vy0 = vx.copy(), vy.copy()
        kick(vx, ex, 1.0)
        kick(vy, ey, 1.0)
        np.testing.assert_allclose(vx, vx0 + ex)
        np.testing.assert_allclose(vy, vy0 + ey)

    def test_scaled_coef(self, rng):
        vx = np.zeros(5)
        vy = np.zeros(5)
        ex = np.ones(5)
        ey = np.ones(5)
        kick(vx, ex, -0.5)
        kick(vy, ey, 0.25)
        np.testing.assert_allclose(vx, -0.5)
        np.testing.assert_allclose(vy, 0.25)


class TestAxisWraps:
    """The three §IV-C periodic-wrap formulations must agree physically."""

    @pytest.mark.parametrize("axis_fn", [_axis_branch, _axis_modulo, _axis_bitwise])
    def test_position_equivalence_vs_reference(self, rng, axis_fn):
        nc = 16
        x = rng.uniform(-40, 56, 5000)
        i, d = axis_fn(x, nc)
        for k in range(0, 5000, 97):
            ri, rd = push_axis_ref(float(x[k]), nc)
            # same physical position modulo the box (offset may be the
            # 1.0-boundary representation of the next cell)
            pos = (int(i[k]) + float(d[k])) % nc
            rpos = (ri + rd) % nc
            assert pos == pytest.approx(rpos, abs=1e-9)

    @pytest.mark.parametrize("axis_fn", [_axis_branch, _axis_modulo, _axis_bitwise])
    def test_indices_in_range(self, rng, axis_fn):
        i, d = axis_fn(rng.uniform(-100, 100, 10_000), 32)
        assert i.min() >= 0 and i.max() < 32
        assert d.min() >= 0.0 and d.max() <= 1.0

    def test_bitwise_requires_power_of_two(self):
        with pytest.raises(ValueError):
            _axis_bitwise(np.array([1.5]), 12)

    def test_cast_is_defined_on_every_input(self, rng):
        """``_to_int64``: the plain cast on finite input, ``INT64_MIN``
        (``ckernels.c::to_int64``'s value) for NaN, ±inf and anything
        outside int64 — and no NumPy cast warning either way."""
        import warnings

        from repro.core.kernels import _to_int64

        lowest = np.iinfo(np.int64).min
        finite = np.concatenate(
            [rng.uniform(-1e6, 1e6, 1000), [0.0, -0.0, 2.0**62, -(2.0**63) + 1024]]
        )
        bad = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300, 2.0**63, -(2.0**63)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(_to_int64(finite), finite.astype(np.int64))
            assert len(_to_int64(np.array([]))) == 0
            mixed = _to_int64(np.concatenate([finite, bad]))
        assert np.array_equal(mixed[: len(finite)], finite.astype(np.int64))
        assert (mixed[len(finite):] == lowest).all()
        assert mixed.dtype == np.int64

    def test_inside_particles_unchanged(self, rng):
        x = rng.uniform(0, 16, 1000)
        for fn in (_axis_branch, _axis_modulo, _axis_bitwise):
            i, d = fn(x, 16)
            np.testing.assert_allclose(i + d, x, atol=1e-12, err_msg=fn.__name__)

    def test_exact_negative_integer(self):
        # x = -2.0: all variants must land at physical position 14
        for fn in (_axis_branch, _axis_modulo, _axis_bitwise):
            i, d = fn(np.array([-2.0]), 16)
            assert (float(i[0]) + float(d[0])) % 16 == pytest.approx(14.0), fn.__name__


@pytest.mark.parametrize(
    "variant", VARIANTS, ids=[f"push_positions_{v}" for v in VARIANTS]
)
@pytest.mark.parametrize("layout", ["soa"])
class TestPushPositions:
    def _make(self, rng, layout, ordering, n=400):
        ix, iy, dx, dy, vx, vy = random_particle_arrays(rng, n, NCX, NCY)
        s = make_storage(layout, n, store_coords=True)
        s.set_state(ordering.encode(ix, iy), dx, dy, vx, vy, ix, iy)
        return s

    def test_consistency_icell_coords(self, rng, variant, layout):
        o = get_ordering("morton", NCX, NCY)
        s = self._make(rng, layout, o)
        push(s, o, variant)
        np.testing.assert_array_equal(
            np.asarray(s.icell), o.encode(np.asarray(s.ix), np.asarray(s.iy))
        )

    def test_displacement_correct(self, rng, variant, layout):
        o = get_ordering("row-major", NCX, NCY)
        s = self._make(rng, layout, o)
        x_before = np.asarray(s.ix) + np.asarray(s.dx)
        v = np.asarray(s.vx).copy()
        push(s, o, variant)
        x_after = np.asarray(s.ix) + np.asarray(s.dx)
        wrapped = np.mod(x_after - x_before - v + NCX / 2, NCX) - NCX / 2
        np.testing.assert_allclose(wrapped, 0.0, atol=1e-9)

    def test_velocity_scaling(self, rng, variant, layout):
        o = get_ordering("row-major", NCX, NCY)
        s = self._make(rng, layout, o)
        x_before = np.asarray(s.ix) + np.asarray(s.dx)
        v = np.asarray(s.vx).copy()
        push(s, o, variant, (0.5, 0.5))
        x_after = np.asarray(s.ix) + np.asarray(s.dx)
        wrapped = np.mod(x_after - x_before - 0.5 * v + NCX / 2, NCX) - NCX / 2
        np.testing.assert_allclose(wrapped, 0.0, atol=1e-9)

    def test_without_stored_coords(self, rng, variant, layout):
        o = get_ordering("row-major", NCX, NCY)
        ix, iy, dx, dy, vx, vy = random_particle_arrays(rng, 200, NCX, NCY)
        s = make_storage(layout, 200, store_coords=False)
        s.set_state(o.encode(ix, iy), dx, dy, vx, vy)
        push(s, o, variant)
        jx, jy = o.decode(np.asarray(s.icell))
        assert jx.min() >= 0 and jx.max() < NCX


class TestPushVariantsAgree:
    """branch / modulo / bitwise must produce the same physical state."""

    @pytest.mark.parametrize("ordering_name", ["row-major", "morton"])
    def test_all_variants_same_physical_positions(self, rng, ordering_name):
        o = get_ordering(ordering_name, NCX, NCY)
        ix, iy, dx, dy, vx, vy = random_particle_arrays(rng, 1000, NCX, NCY)
        vx *= 10  # multi-cell moves, both directions
        results = []
        for variant in VARIANTS:
            s = make_storage("soa", 1000, store_coords=True)
            s.set_state(o.encode(ix, iy), dx, dy, vx, vy, ix, iy)
            push(s, o, variant)
            results.append(
                (np.asarray(s.ix) + np.asarray(s.dx)) % NCX
            )
        np.testing.assert_allclose(results[0], results[1], atol=1e-9)
        np.testing.assert_allclose(results[0] % NCX, results[2] % NCX, atol=1e-9)
