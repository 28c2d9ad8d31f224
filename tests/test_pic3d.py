"""Tests for the 3d3v extension (paper §VI outlook)."""

import numpy as np
import pytest

from repro.core.backends import get_backend
from repro.core.kernels import (
    accumulate_rows, corner_weights, interpolate_rows, wrap_for,
)
from repro.curves import MortonOrdering, RowMajorOrdering, get_ordering
from repro.grid.fields import RedundantFields, corner_offsets
from repro.grid.poisson import SpectralPoissonSolver
from repro.pic3d import GridSpec3D, LandauDamping3D, PICStepper3D, TwoStream3D


class TestOrderings3D:
    """The two curves a 3D run lays out its cells on: the 2D classes
    over three extents."""

    @pytest.mark.parametrize("name", ["row-major", "morton"])
    def test_bijective(self, name):
        o = get_ordering(name, 8, 4, 16)
        m = o.index_map()
        assert len(np.unique(m)) == 8 * 4 * 16
        assert m.min() == 0 and m.max() == o.ncells - 1

    @pytest.mark.parametrize("name", ["row-major", "morton"])
    def test_roundtrip(self, name, rng):
        o = get_ordering(name, 8, 16, 4)
        ix = rng.integers(0, 8, 500)
        iy = rng.integers(0, 16, 500)
        iz = rng.integers(0, 4, 500)
        jx, jy, jz = o.decode(o.encode(ix, iy, iz))
        np.testing.assert_array_equal(ix, jx)
        np.testing.assert_array_equal(iy, jy)
        np.testing.assert_array_equal(iz, jz)

    def test_row_major_closed_form(self):
        o = RowMajorOrdering(4, 8, 16)
        assert o.encode(1, 2, 3) == (1 * 8 + 2) * 16 + 3

    def test_morton_cube_is_pure_morton(self):
        """On a cube every bit interleaves: bit b of x, y, z lands at
        3b + 2, 3b + 1, 3b (spelled bit by bit here)."""
        o = MortonOrdering(8, 8, 8)
        ix, iy, iz = np.meshgrid(*(np.arange(8),) * 3, indexing="ij")
        want = sum(
            ((c >> b) & 1) << (3 * b + 2 - a)
            for b in range(3) for a, c in enumerate((ix, iy, iz))
        )
        np.testing.assert_array_equal(o.encode(ix, iy, iz), want)

    def test_morton_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            MortonOrdering(6, 8, 8)


class TestGrid3D:
    def test_derived_quantities(self):
        g = GridSpec3D(4, 8, 16, 0, 4, 0, 8, 0, 2)
        assert g.lengths == (4.0, 8.0, 2.0)
        assert g.spacings == (1.0, 1.0, 0.125)
        assert g.ncells == 512
        assert g.volume == pytest.approx(64.0)
        assert g.cell_volume == pytest.approx(0.125)

    def test_pow2(self):
        assert wrap_for(GridSpec3D(4, 8, 16).shape) == "bitwise"
        assert wrap_for(GridSpec3D(4, 6, 16).shape) == "modulo"

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            GridSpec3D(0, 4, 4)
        with pytest.raises(ValueError):
            GridSpec3D(4, 4, 4, 1.0, 1.0)


class TestCornerWeights3D:
    def test_offsets_table(self):
        offs = corner_offsets(3)
        assert offs.shape == (8, 3)
        assert len({tuple(r) for r in offs}) == 8

    def test_partition_of_unity(self, rng):
        w = corner_weights((rng.random(500), rng.random(500), rng.random(500)))
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-13)
        assert w.min() >= 0

    def test_corner_selection(self):
        # at offsets (0,0,0) all weight on corner 0; at (1,1,1) corner 7
        w0 = corner_weights(([0.0], [0.0], [0.0]))[0]
        np.testing.assert_allclose(w0, np.eye(8)[0])
        w7 = corner_weights(([1.0], [1.0], [1.0]))[0]
        np.testing.assert_allclose(w7, np.eye(8)[7])

    def test_trilinear_products(self, rng):
        dx, dy, dz = rng.random(3)
        w = corner_weights(([dx], [dy], [dz]))[0]
        for c in range(8):
            ox, oy, oz = (c >> 2) & 1, (c >> 1) & 1, c & 1
            expected = (
                (dx if ox else 1 - dx)
                * (dy if oy else 1 - dy)
                * (dz if oz else 1 - dz)
            )
            assert w[c] == pytest.approx(expected)


class TestFields3D:
    @pytest.fixture
    def setup(self):
        grid = GridSpec3D(8, 8, 8, 0, 1, 0, 1, 0, 1)
        return grid, RedundantFields(grid, MortonOrdering(8, 8, 8))

    def test_memory_is_8x_pointwise_rho(self, setup):
        grid, fields = setup
        assert fields.rho_1d.nbytes == 8 * grid.ncells * 8

    def test_broadcast_roundtrip(self, setup, rng):
        _, fields = setup
        ex, ey, ez = (rng.random((8, 8, 8)) for _ in range(3))
        fields.load_field_from_grid(ex, ey, ez)
        bx, by, bz = fields.field_at_grid()
        np.testing.assert_allclose(bx, ex)
        np.testing.assert_allclose(by, ey)
        np.testing.assert_allclose(bz, ez)

    def test_gather_map_equals_rolled_scatter(self, rng):
        """Every row holds E at its cell's 8 corners, bit for bit (a
        non-cubic grid, so a swapped axis would show)."""
        shape = (8, 4, 2)
        fields = RedundantFields(GridSpec3D(*shape), MortonOrdering(*shape))
        comps = [rng.normal(size=shape) for _ in range(3)]
        fields.load_field_from_grid(*comps)
        ix, iy, iz = np.meshgrid(*(np.arange(n) for n in shape), indexing="ij")
        idx = fields.ordering.encode(ix, iy, iz)
        want = np.zeros_like(fields.e_1d)
        for c in range(8):
            shift = (-((c >> 2) & 1), -((c >> 1) & 1), -(c & 1))
            for k, arr in enumerate(comps):
                want[idx, 8 * k + c] = np.roll(arr, shift, axis=(0, 1, 2))
        assert fields.e_1d.tobytes() == want.tobytes()

    def test_reduce_folds_8_corners(self, setup):
        _, fields = setup
        icell = int(fields.ordering.encode(3, 4, 5))
        fields.rho_1d[icell, :] = 1.0
        rho = fields.reduce_rho_to_grid()
        assert rho.sum() == pytest.approx(8.0)
        # the 8 surrounding grid points each got 1
        for c in range(8):
            ox, oy, oz = (c >> 2) & 1, (c >> 1) & 1, c & 1
            assert rho[3 + ox, 4 + oy, 5 + oz] == 1.0

    def test_charge_conservation(self, setup, rng):
        _, fields = setup
        n = 300
        icell = fields.ordering.encode(
            rng.integers(0, 8, n), rng.integers(0, 8, n), rng.integers(0, 8, n)
        )
        accumulate_rows(
            fields.rho_1d, icell, (rng.random(n), rng.random(n), rng.random(n)), 0.5
        )
        assert fields.rho_1d.sum() == pytest.approx(0.5 * n)
        assert fields.reduce_rho_to_grid().sum() == pytest.approx(0.5 * n)

    def test_interpolation_exact_at_corner0(self, setup, rng):
        _, fields = setup
        ex, ey, ez = (rng.random((8, 8, 8)) for _ in range(3))
        fields.load_field_from_grid(ex, ey, ez)
        icell = fields.ordering.encode([2], [3], [4])
        z = np.zeros(1)
        fx, fy, fz = interpolate_rows(fields.e_1d, icell, (z, z, z))
        assert fx[0] == pytest.approx(ex[2, 3, 4])
        assert fy[0] == pytest.approx(ey[2, 3, 4])
        assert fz[0] == pytest.approx(ez[2, 3, 4])


class TestPoisson3D:
    def test_single_mode(self):
        g = GridSpec3D(16, 16, 16, 0, 2 * np.pi, 0, 2 * np.pi, 0, 2 * np.pi)
        x = np.arange(16) * g.spacings[0]
        rho = np.cos(x)[:, None, None] * np.ones((1, 16, 16))
        phi, ex, ey, ez = SpectralPoissonSolver(g).solve(rho)
        np.testing.assert_allclose(phi, rho, atol=1e-12)  # k^2 = 1
        np.testing.assert_allclose(ex, np.sin(x)[:, None, None] * np.ones((1, 16, 16)), atol=1e-12)
        np.testing.assert_allclose(ey, 0, atol=1e-12)
        np.testing.assert_allclose(ez, 0, atol=1e-12)

    def test_mean_projected(self, rng):
        g = GridSpec3D(8, 8, 8)
        rho = rng.random((8, 8, 8))
        phi, *_ = SpectralPoissonSolver(g).solve(rho)
        assert abs(phi.mean()) < 1e-12

    def test_shape_validation(self):
        g = GridSpec3D(8, 8, 8)
        with pytest.raises(ValueError):
            SpectralPoissonSolver(g).solve(np.zeros((4, 4, 4)))


class TestPush3D:
    def test_positions_wrap_and_consistency(self, rng):
        o = MortonOrdering(8, 8, 8)
        n = 1000
        p = {
            "ix": rng.integers(0, 8, n), "iy": rng.integers(0, 8, n),
            "iz": rng.integers(0, 8, n),
            "dx": rng.random(n), "dy": rng.random(n), "dz": rng.random(n),
            "vx": rng.normal(0, 5, n), "vy": rng.normal(0, 5, n),
            "vz": rng.normal(0, 5, n),
        }
        p["icell"] = o.encode(p["ix"], p["iy"], p["iz"])
        x_before = p["ix"] + p["dx"]
        v = p["vx"].copy()
        get_backend("numpy").push_positions_3d(p, (8, 8, 8), o)
        assert p["ix"].min() >= 0 and p["ix"].max() < 8
        wrapped = np.mod(p["ix"] + p["dx"] - x_before - v + 4, 8) - 4
        np.testing.assert_allclose(wrapped, 0.0, atol=1e-9)
        np.testing.assert_array_equal(
            p["icell"], o.encode(p["ix"], p["iy"], p["iz"])
        )


class TestStepper3D:
    @pytest.fixture(scope="class")
    def stepper(self):
        grid = GridSpec3D(16, 8, 8, 0, 4 * np.pi, 0, 4 * np.pi, 0, 4 * np.pi)
        return PICStepper3D(grid, LandauDamping3D(alpha=0.1), 40_000, dt=0.1)

    def test_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            PICStepper3D(GridSpec3D(12, 8, 8), LandauDamping3D(), 100)

    def test_ordering_names_map_onto_the_two_curves_or_raise(self):
        """Every configured name runs: the scan orders row-major, the
        other curves (L4D and Hilbert order 2D grids only) Morton, no
        L4D ``size`` reaching the curve; a typo raises like
        ``get_ordering`` does instead of silently running Morton."""
        from repro.core.config import OptimizationConfig
        from repro.curves import available_orderings

        shape = (8, 4, 4)
        for name in available_orderings():
            kwargs = {"size": 4} if name == "l4d" else {}
            cfg = OptimizationConfig(ordering=name, ordering_kwargs=kwargs)
            st = PICStepper3D(GridSpec3D(*shape), LandauDamping3D(), 100, config=cfg)
            row_major = name in ("row-major", "column-major")
            assert st.ordering.spec == (
                "row-major" if row_major else "morton", shape, ()
            )
            st.close()
        with pytest.raises(KeyError, match="mortn.*morton"):
            PICStepper3D(GridSpec3D(*shape), LandauDamping3D(), 100,
                         config=OptimizationConfig(ordering="mortn"))

    def test_initial_perturbation_present(self, stepper):
        assert stepper.field_energy() > 0
        assert np.abs(stepper.ex_grid).max() > 10 * np.abs(stepper.ey_grid).max()

    def test_energy_conserved(self, stepper):
        e0 = stepper.total_energy()
        stepper.run(30)
        assert abs(stepper.total_energy() - e0) / e0 < 1e-3

    def test_landau_decay(self, stepper):
        fe0 = stepper.field_energy()
        stepper.run(30)  # total 60 by now (class-scoped)
        assert stepper.field_energy() < 0.7 * fe0

    def test_total_charge_invariant(self, stepper):
        total = stepper.rho_grid.sum()
        expected = stepper.q * stepper.weight * 40_000 / stepper.grid.cell_volume
        assert total == pytest.approx(expected, rel=1e-9)

    def test_offsets_in_range(self, stepper):
        for k in ("dx", "dy", "dz"):
            assert stepper.particles[k].min() >= 0
            assert stepper.particles[k].max() <= 1.0


class TestTwoStream3D:
    def test_beams_are_symmetric(self):
        grid = GridSpec3D(32, 4, 4, xmax=10 * np.pi, ymax=2 * np.pi,
                          zmax=2 * np.pi)
        x, y, z, vx, vy, vz = TwoStream3D(v0=2.4, vth=0.1).sample(10_000, grid)
        # two populations around +-v0, net drift ~ 0
        assert abs(np.mean(vx)) < 0.1
        assert np.std(vx) == pytest.approx(2.4, rel=0.05)
        assert np.mean(vx > 0) == pytest.approx(0.5, abs=0.02)
        # transverse components stay thermal
        assert np.std(vy) == pytest.approx(0.1, rel=0.2)

    @pytest.mark.slow
    def test_instability_growth_rate(self):
        """Two-stream growth on the 3D stepper via the shared oracle."""
        from repro.verify.oracles import two_stream_3d_oracle

        result = two_stream_3d_oracle("numpy")
        assert result.passed, result.describe()
