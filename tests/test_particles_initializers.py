"""Initializer tests: distributions, quiet starts, loading."""

import numpy as np
import pytest

from repro.curves import get_ordering
from repro.grid import GridSpec
from repro.particles import (
    LandauDamping,
    TwoStream,
    UniformMaxwellian,
    counting_sort_permutation_reference,
    halton_sequence,
    load_particles,
    sample_perturbed_positions,
)


class TestHalton:
    def test_base2_prefix(self):
        np.testing.assert_allclose(
            halton_sequence(4, 2), [0.5, 0.25, 0.75, 0.125]
        )

    def test_in_unit_interval(self):
        h = halton_sequence(10_000, 3)
        assert h.min() >= 0 and h.max() < 1

    def test_low_discrepancy(self):
        # empirical CDF within ~log(n)/n of uniform
        n = 4096
        h = np.sort(halton_sequence(n, 2))
        ecdf_err = np.abs(h - (np.arange(1, n + 1) / n)).max()
        assert ecdf_err < 20 / n

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            halton_sequence(10, 1)


class TestPerturbedPositions:
    def test_zero_alpha_uniform(self, rng):
        x = sample_perturbed_positions(1000, 2.0, 0.0, 1.0, rng)
        assert x.min() >= 0 and x.max() < 2.0

    def test_quiet_start_deterministic(self):
        a = sample_perturbed_positions(100, 4 * np.pi, 0.1, 0.5, quiet=True)
        b = sample_perturbed_positions(100, 4 * np.pi, 0.1, 0.5, quiet=True)
        np.testing.assert_array_equal(a, b)

    def test_density_shape(self):
        # histogram should follow 1 + alpha cos(kx)
        L = 4 * np.pi
        alpha, k = 0.3, 0.5
        x = sample_perturbed_positions(400_000, L, alpha, k, quiet=True)
        hist, edges = np.histogram(x, bins=64, range=(0, L))
        centers = 0.5 * (edges[1:] + edges[:-1])
        expected = (1 + alpha * np.cos(k * centers)) * len(x) / 64
        np.testing.assert_allclose(hist, expected, rtol=0.03)

    def test_inverse_cdf_exact_on_quantiles(self):
        # F(x(u)) == u by construction
        L, alpha, k = 4 * np.pi, 0.4, 0.5
        u = np.linspace(0.01, 0.99, 37)
        x = sample_perturbed_positions(
            len(u), L, alpha, k, rng=None, quiet=True
        )  # quiet uses halton; instead invert manually:
        from repro.particles.initializers import _inverse_cdf_perturbed

        x = _inverse_cdf_perturbed(u, alpha, k, L)
        F = (x + (alpha / k) * np.sin(k * x)) / L
        np.testing.assert_allclose(F, u, atol=1e-10)

    def test_rejects_alpha_ge_one(self, rng):
        with pytest.raises(ValueError):
            sample_perturbed_positions(10, 1.0, 1.0, 1.0, rng)

    def test_rejects_missing_rng(self):
        with pytest.raises(ValueError):
            sample_perturbed_positions(10, 1.0, 0.1, 1.0, rng=None, quiet=False)


class TestCases:
    def test_landau_kx(self):
        case = LandauDamping(mode=2)
        g = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        assert case.kx(g) == pytest.approx(1.0)

    def test_landau_default_grid_gives_k_half(self):
        case = LandauDamping()
        g = case.default_grid()
        assert case.kx(g) == pytest.approx(0.5)

    def test_landau_sample_shapes(self, rng):
        g = LandauDamping().default_grid()
        x, y, vx, vy = LandauDamping(alpha=0.1).sample(500, g, rng)
        assert len(x) == len(y) == len(vx) == len(vy) == 500
        assert x.min() >= g.xmin and x.max() < g.xmax

    def test_landau_velocity_moments(self):
        g = LandauDamping().default_grid()
        _, _, vx, vy = LandauDamping(vth=2.0).sample(200_000, g, None, quiet=True)
        assert vx.mean() == pytest.approx(0.0, abs=0.02)
        assert vx.std() == pytest.approx(2.0, rel=0.02)
        assert vy.std() == pytest.approx(2.0, rel=0.02)

    def test_two_stream_bimodal(self):
        case = TwoStream(v0=3.0, vth=0.2)
        g = case.default_grid()
        _, _, vx, _ = case.sample(100_000, g, None, quiet=True)
        # two beams: essentially no particles near v=0, half on each side
        assert np.mean(np.abs(vx) < 1.0) < 0.01
        assert np.mean(vx > 0) == pytest.approx(0.5, abs=0.02)

    def test_uniform_case(self, rng):
        case = UniformMaxwellian(vth=1.0)
        g = case.default_grid()
        x, y, _, _ = case.sample(10_000, g, rng)
        assert x.min() >= g.xmin and y.max() < g.ymax


class TestLoadParticles:
    @pytest.fixture
    def grid(self):
        return GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)

    def test_weight_normalization(self, grid):
        o = get_ordering("morton", 16, 16)
        p = load_particles(grid, o, LandauDamping(), 1000, density=2.0)
        assert p.weight * p.n == pytest.approx(2.0 * grid.area)

    def test_loads_in_sample_order(self, grid):
        """The loader does not sort (the stepper does, at t=0): particle
        ``k`` is the case's ``k``-th sample."""
        o = get_ordering("morton", 16, 16)
        p = load_particles(grid, o, LandauDamping(alpha=0.1), 5000, seed=1)
        x, y, vx, _ = LandauDamping(alpha=0.1).sample(
            5000, grid, np.random.default_rng(1), False)
        ix, iy, _, _ = grid.split_coords(*grid.to_grid_coords(x, y))
        assert np.any(np.diff(np.asarray(p.icell)) < 0)
        np.testing.assert_array_equal(np.asarray(p.icell), o.encode(ix, iy))
        np.testing.assert_array_equal(np.asarray(p.vx), vx)

    def test_reference_sort_orders_the_load(self, grid):
        """The loaded store permuted by the counting sort is sorted by
        cell, its rows moved whole."""
        o = get_ordering("row-major", 16, 16)
        p = load_particles(grid, o, LandauDamping(alpha=0.1), 5000, seed=1,
                           store_coords=False)
        before = p.as_dict()
        perm = counting_sort_permutation_reference(before["icell"], o.ncells_allocated)
        p.reorder(perm)
        assert np.all(np.diff(np.asarray(p.icell)) >= 0)
        for k, col in before.items():
            np.testing.assert_array_equal(np.asarray(p[k]), col[perm])

    def test_icell_consistent_with_coords(self, grid):
        o = get_ordering("l4d", 16, 16, size=4)
        p = load_particles(grid, o, LandauDamping(), 2000)
        np.testing.assert_array_equal(
            np.asarray(p.icell), o.encode(np.asarray(p.ix), np.asarray(p.iy))
        )

    def test_offsets_in_unit_interval(self, grid):
        o = get_ordering("row-major", 16, 16)
        p = load_particles(grid, o, TwoStream(), 2000, store_coords=False)
        assert np.asarray(p.dx).min() >= 0 and np.asarray(p.dx).max() < 1
        assert np.asarray(p.dy).min() >= 0 and np.asarray(p.dy).max() < 1

    @pytest.mark.parametrize("layout", ["soa"])
    def test_layouts_equivalent_content(self, grid, layout):
        """Naming the layout (as the benchmark ledger does) loads what
        the default loads."""
        o = get_ordering("morton", 16, 16)
        p = load_particles(grid, o, LandauDamping(), 300, layout=layout, seed=7)
        q = load_particles(grid, o, LandauDamping(), 300, seed=7)
        for k in ("icell", "dx", "vy"):
            np.testing.assert_array_equal(
                np.asarray(getattr(p, k)), np.asarray(getattr(q, k))
            )

    def test_requires_seed_for_random(self, grid):
        o = get_ordering("row-major", 16, 16)
        with pytest.raises(ValueError):
            load_particles(grid, o, LandauDamping(), 10, seed=None, quiet=False)
