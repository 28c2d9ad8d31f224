"""Poisson-solver tests: manufactured solutions, solver cross-checks."""

import numpy as np
import pytest

from repro.grid import (
    GridSpec,
    JacobiPoissonSolver,
    SpectralPoissonSolver,
    laplacian_periodic,
)
from repro.pic3d import GridSpec3D


@pytest.fixture
def grid():
    return GridSpec(32, 32, 0.0, 2 * np.pi, 0.0, 2 * np.pi)


def potential(grid, rho, **kw):
    """phi of the spectral solve."""
    return SpectralPoissonSolver(grid, **kw).solve(rho)[0]


def node_coords(grid):
    """Physical coordinates of the grid nodes, each ``(ncx, ncy)``."""
    return np.meshgrid(grid.xmin + grid.dx * np.arange(grid.ncx),
                       grid.ymin + grid.dy * np.arange(grid.ncy), indexing="ij")


def single_mode_rho(grid, mx=1, my=0, amp=1.0):
    gx, gy = node_coords(grid)
    kx = 2 * np.pi * mx / grid.lx
    ky = 2 * np.pi * my / grid.ly
    return amp * np.cos(kx * gx + ky * gy), (kx, ky)


class TestSpectralSolver:
    def test_single_mode_potential(self, grid):
        # -lap(phi) = rho => phi = rho / k^2 for a single mode
        rho, (kx, ky) = single_mode_rho(grid, 1, 0)
        phi = potential(grid, rho)
        np.testing.assert_allclose(phi, rho / kx**2, atol=1e-12)

    def test_mixed_mode_potential(self, grid):
        rho, (kx, ky) = single_mode_rho(grid, 2, 3)
        phi = potential(grid, rho)
        np.testing.assert_allclose(phi, rho / (kx**2 + ky**2), atol=1e-12)

    def test_field_is_minus_gradient(self, grid):
        gx, _ = node_coords(grid)
        kx = 2 * np.pi / grid.lx
        rho = np.cos(kx * gx)
        _, ex, ey = SpectralPoissonSolver(grid).solve(rho)
        # E = -d/dx (cos(kx x)/kx^2) = sin(kx x)/kx
        np.testing.assert_allclose(ex, np.sin(kx * gx) / kx, atol=1e-12)
        np.testing.assert_allclose(ey, 0.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(32, 16), (16, 8, 4)], ids=["2d", "3d"])
    def test_field_of_an_oblique_mode(self, shape):
        """One class over any ``grid.shape``: E = k sin(k.x) / |k|^2 on
        every axis, to round-off."""
        lengths = (4 * np.pi, 2 * np.pi, np.pi)[: len(shape)]
        grid = (GridSpec if len(shape) == 2 else GridSpec3D)(
            *shape, **{f"{a}max": ln for a, ln in zip("xyz", lengths)}
        )
        nodes = np.meshgrid(
            *(h * np.arange(n) for h, n in zip(grid.spacings, shape)), indexing="ij"
        )
        k = [2 * np.pi * m / ln for m, ln in zip((1, 2, 1), lengths)]
        phase = sum(ka * xa for ka, xa in zip(k, nodes))
        phi, *e = SpectralPoissonSolver(grid).solve(np.cos(phase))
        k2 = sum(ka**2 for ka in k)
        np.testing.assert_allclose(phi, np.cos(phase) / k2, atol=1e-14)
        for ka, ea in zip(k, e):
            np.testing.assert_allclose(ea, ka * np.sin(phase) / k2, atol=1e-14)

    @pytest.mark.parametrize("shape", [(32, 16), (16, 8, 4)], ids=["2d", "3d"])
    def test_field_is_solve_without_phi(self, shape, rng):
        """``field`` — what the steppers call — is ``solve``'s field bit
        for bit, and refuses a wrong shape the same way."""
        grid = (GridSpec if len(shape) == 2 else GridSpec3D)(*shape)
        solver = SpectralPoissonSolver(grid, eps0=0.7)
        rho = rng.standard_normal(shape)
        want = solver.solve(rho)[1:]
        got = solver.field(rho)
        assert len(got) == len(shape)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        with pytest.raises(ValueError):
            solver.field(np.zeros((8, 8)))

    def test_mean_mode_projected_out(self, grid, rng):
        rho = rng.random((32, 32))
        phi = potential(grid, rho)
        assert abs(phi.mean()) < 1e-12
        # adding a constant to rho changes nothing
        phi2 = potential(grid, rho + 5.0)
        np.testing.assert_allclose(phi, phi2, atol=1e-12)

    def test_eps0_scaling(self, grid):
        rho, _ = single_mode_rho(grid)
        phi1 = potential(grid, rho, eps0=1.0)
        phi2 = potential(grid, rho, eps0=2.0)
        np.testing.assert_allclose(phi1, 2 * phi2, atol=1e-12)

    def test_residual_random_rho(self, grid, rng):
        rho = rng.standard_normal((32, 32))
        rho -= rho.mean()
        phi = potential(grid, rho)
        # spectral laplacian equals rho: check via FFT round trip
        res = -laplacian_periodic(phi, grid.dx, grid.dy) - rho
        # 5-point laplacian differs from spectral at high k: loose bound
        assert np.abs(res).max() < np.abs(rho).max()

    def test_rejects_wrong_shape(self, grid):
        with pytest.raises(ValueError):
            potential(grid, np.zeros((8, 8)))

    def test_rectangular_grid(self):
        g = GridSpec(64, 16, 0.0, 4 * np.pi, 0.0, np.pi)
        rho, (kx, _) = single_mode_rho(g, 1, 0)
        phi = potential(g, rho)
        np.testing.assert_allclose(phi, rho / kx**2, atol=1e-12)


class TestJacobiSolver:
    def test_agrees_with_spectral_on_smooth_rho(self, grid):
        rho, _ = single_mode_rho(grid, 1, 1)
        jac = JacobiPoissonSolver(grid, tol=1e-11)
        phi_s = potential(grid, rho)
        phi_j = jac.solve_potential(rho)
        # both are zero-mean; Jacobi solves the 5-point stencil which
        # differs from spectral by O(h^2)
        assert np.abs(phi_j - phi_s).max() < 0.05 * np.abs(phi_s).max()

    def test_residual_below_tolerance(self, grid, rng):
        rho = rng.standard_normal((32, 32)) * 0.1
        jac = JacobiPoissonSolver(grid, tol=1e-9)
        phi = jac.solve_potential(rho)
        rhs = rho - rho.mean()
        res = -laplacian_periodic(phi, grid.dx, grid.dy) - rhs
        assert np.linalg.norm(res) / np.linalg.norm(rhs) < 1e-8

    def test_iteration_count_recorded(self, grid):
        rho, _ = single_mode_rho(grid)
        jac = JacobiPoissonSolver(grid)
        jac.solve_potential(rho)
        assert jac.last_iterations > 0


class TestLaplacian:
    def test_periodic_laplacian_of_mode(self, grid):
        rho, (kx, _) = single_mode_rho(grid, 1, 0)
        lap = laplacian_periodic(rho, grid.dx, grid.dy)
        # discrete eigenvalue: -(2 - 2 cos(kx dx))/dx^2
        lam = -(2 - 2 * np.cos(kx * grid.dx)) / grid.dx**2
        np.testing.assert_allclose(lap, lam * rho, atol=1e-12)

    def test_constant_has_zero_laplacian(self):
        lap = laplacian_periodic(np.full((8, 8), 3.0), 0.1, 0.2)
        np.testing.assert_allclose(lap, 0.0, atol=1e-10)
