"""Periodic Poisson solvers: spectral (the paper's Fourier method) and Jacobi.

Solves ``-laplacian(phi) = rho / eps0`` on a periodic Cartesian grid of
any dimension and returns the electric field ``E = -grad(phi)`` at the
grid points.  The paper uses FFTW3; we use :mod:`numpy.fft` — same
algorithm, different FFT engine.

Because the domain is periodic the k=0 (mean) mode of ``rho`` has no
solution; it is projected out, which physically corresponds to the
neutralizing ion background of the Vlasov–Poisson test cases.

A damped-Jacobi iterative solver over the standard 5-point stencil is
provided as an independent 2D reference: the tests require both solvers
to agree on the potential, which guards against sign/normalization
mistakes in either.
"""

from __future__ import annotations

import numpy as np

from repro.grid.spec import GridSpec

__all__ = [
    "SpectralPoissonSolver",
    "JacobiPoissonSolver",
    "laplacian_periodic",
]


def laplacian_periodic(phi: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """5-point periodic Laplacian of ``phi`` (used to check residuals)."""
    return (np.roll(phi, 1, 0) - 2 * phi + np.roll(phi, -1, 0)) / dx**2 + (
        np.roll(phi, 1, 1) - 2 * phi + np.roll(phi, -1, 1)
    ) / dy**2


class SpectralPoissonSolver:
    """Fourier-method solver (the paper's choice, §II) over ``grid.shape``.

    One forward ``rfftn`` of rho gives ``phi_hat = rho_hat / (eps0 k^2)``;
    phi and every field component are one inverse transform each
    (:meth:`field`, which the steppers call, skips phi's), the
    field differentiating ``phi_hat`` directly: ``E_a = -irfftn(i k_a
    phi_hat)``, the exact derivative of phi's Fourier series, with no
    forward transform of phi (docs/verification.md compares it with
    differentiating a re-transformed phi).
    """

    def __init__(self, grid, eps0: float = 1.0):
        self.grid = grid
        self.eps0 = float(eps0)
        shape = grid.shape
        ndim = len(shape)
        #: wavenumbers per axis, each shaped to broadcast along the
        #: others; the last axis holds ``rfftn``'s half spectrum
        self._k = []
        for a, (n, h) in enumerate(zip(shape, grid.spacings)):
            freq = np.fft.rfftfreq if a == ndim - 1 else np.fft.fftfreq
            axis_shape = [1] * ndim
            axis_shape[a] = -1
            self._k.append((2 * np.pi * freq(n, d=h)).reshape(axis_shape))
        k2 = sum(k**2 for k in self._k)
        k2[(0,) * ndim] = 1.0  # avoid divide-by-zero; mode is zeroed explicitly
        self._inv_k2 = 1.0 / k2

    def solve(self, rho: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(phi, E_x, E_y[, E_z])`` at the grid points; phi has zero
        mean and ``-lap(phi) = (rho - mean) / eps0``."""
        shape = self.grid.shape
        phi_hat = self._phi_hat(rho)
        phi = np.fft.irfftn(phi_hat, s=shape, axes=tuple(range(len(shape))))
        return (phi, *self._gradient(phi_hat))

    def field(self, rho: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(E_x, E_y[, E_z])`` alone — :meth:`solve` without phi's
        inverse transform, bit for bit its field."""
        return self._gradient(self._phi_hat(rho))

    def _phi_hat(self, rho):
        shape = self.grid.shape
        if rho.shape != shape:
            raise ValueError(f"rho must be {shape}, got {rho.shape}")
        phi_hat = np.fft.rfftn(rho) * self._inv_k2 / self.eps0
        phi_hat[(0,) * len(shape)] = 0.0
        return phi_hat

    def _gradient(self, phi_hat):
        """``E = -grad(phi)`` from phi's half spectrum, per axis."""
        shape = self.grid.shape
        axes = tuple(range(len(shape)))
        return tuple(-np.fft.irfftn(1j * k * phi_hat, s=shape, axes=axes)
                     for k in self._k)


class JacobiPoissonSolver:
    """Damped-Jacobi iteration on the 5-point stencil (reference solver).

    Slow by design — it exists to validate the spectral solver, not to
    run production simulations.  Iterates until the relative residual
    drops below ``tol`` or ``max_iter`` sweeps.
    """

    def __init__(
        self,
        grid: GridSpec,
        eps0: float = 1.0,
        tol: float = 1e-10,
        max_iter: int = 100_000,
        omega: float = 0.8,  # damping: plain Jacobi (omega=1) never
        # converges the checkerboard mode on a periodic grid (its
        # iteration eigenvalue is exactly -1)
    ):
        self.grid = grid
        self.eps0 = float(eps0)
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.omega = float(omega)
        self.last_iterations = 0

    def solve_potential(self, rho: np.ndarray) -> np.ndarray:
        """Return phi with zero mean such that the 5-point
        ``-lap(phi) = (rho - mean)/eps0``."""
        g = self.grid
        rhs = (rho - rho.mean()) / self.eps0
        phi = np.zeros_like(rhs)
        inv_diag = 1.0 / (2.0 / g.dx**2 + 2.0 / g.dy**2)
        rhs_norm = np.linalg.norm(rhs) or 1.0
        for it in range(1, self.max_iter + 1):
            # -lap(phi) = rhs  =>  phi_new = (neighbor sum + rhs) / diag
            nb = (np.roll(phi, 1, 0) + np.roll(phi, -1, 0)) / g.dx**2 + (
                np.roll(phi, 1, 1) + np.roll(phi, -1, 1)
            ) / g.dy**2
            phi_new = (nb + rhs) * inv_diag
            phi += self.omega * (phi_new - phi)
            if it % 50 == 0:
                resid = np.linalg.norm(-laplacian_periodic(phi, g.dx, g.dy) - rhs)
                if resid / rhs_norm < self.tol:
                    break
        self.last_iterations = it
        return phi - phi.mean()
