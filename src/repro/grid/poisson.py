"""Periodic Poisson solvers: spectral (the paper's Fourier method) and Jacobi.

Solves ``-laplacian(phi) = rho / eps0`` on a periodic Cartesian grid and
returns the electric field ``E = -grad(phi)`` at the grid points.  The
paper uses FFTW3; we use :mod:`numpy.fft` — same algorithm, different
FFT engine.

Because the domain is periodic the k=0 (mean) mode of ``rho`` has no
solution; it is projected out, which physically corresponds to the
neutralizing ion background of the Vlasov–Poisson test cases.

A damped-Jacobi iterative solver over the standard 5-point stencil is
provided as an independent reference: the tests require both solvers to
agree, which guards against sign/normalization mistakes in either.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.grid.spec import GridSpec

__all__ = [
    "PoissonSolver",
    "SpectralPoissonSolver",
    "JacobiPoissonSolver",
    "laplacian_periodic",
]


def laplacian_periodic(phi: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """5-point periodic Laplacian of ``phi`` (used to check residuals)."""
    return (np.roll(phi, 1, 0) - 2 * phi + np.roll(phi, -1, 0)) / dx**2 + (
        np.roll(phi, 1, 1) - 2 * phi + np.roll(phi, -1, 1)
    ) / dy**2


class PoissonSolver(abc.ABC):
    """Common interface: rho at grid points -> (phi, Ex, Ey) at grid points."""

    def __init__(self, grid: GridSpec, eps0: float = 1.0):
        self.grid = grid
        self.eps0 = float(eps0)

    @abc.abstractmethod
    def solve_potential(self, rho: np.ndarray) -> np.ndarray:
        """Return phi with zero mean such that ``-lap(phi) = (rho - mean)/eps0``."""

    def gradient(self, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Centered-difference periodic gradient of ``phi``."""
        g = self.grid
        gx = (np.roll(phi, -1, 0) - np.roll(phi, 1, 0)) / (2 * g.dx)
        gy = (np.roll(phi, -1, 1) - np.roll(phi, 1, 1)) / (2 * g.dy)
        return gx, gy

    def solve(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve for potential and field: returns ``(phi, Ex, Ey)``."""
        phi = self.solve_potential(rho)
        ex, ey = self.field_from_potential(phi)
        return phi, ex, ey

    def field_from_potential(self, phi: np.ndarray):
        """``E = -grad(phi)``; subclasses may use a spectral derivative."""
        gx, gy = self.gradient(phi)
        return -gx, -gy


class SpectralPoissonSolver(PoissonSolver):
    """Fourier-method solver (the paper's choice, §II).

    ``derivative="spectral"`` computes E with exact spectral
    derivatives; ``"fd"`` uses the centered difference so that E is
    consistent with a finite-difference discretization (useful when
    comparing against :class:`JacobiPoissonSolver`).
    """

    def __init__(self, grid: GridSpec, eps0: float = 1.0, derivative: str = "spectral"):
        super().__init__(grid, eps0)
        if derivative not in ("spectral", "fd"):
            raise ValueError(f"unknown derivative scheme {derivative!r}")
        self.derivative = derivative
        g = grid
        kx = 2 * np.pi * np.fft.fftfreq(g.ncx, d=g.dx)
        ky = 2 * np.pi * np.fft.rfftfreq(g.ncy, d=g.dy)
        self._kx = kx[:, None]
        self._ky = ky[None, :]
        k2 = self._kx**2 + self._ky**2
        k2[0, 0] = 1.0  # avoid divide-by-zero; mode is zeroed explicitly
        self._inv_k2 = 1.0 / k2

    def solve_potential(self, rho: np.ndarray) -> np.ndarray:
        g = self.grid
        if rho.shape != (g.ncx, g.ncy):
            raise ValueError(f"rho must be {(g.ncx, g.ncy)}, got {rho.shape}")
        rho_hat = np.fft.rfft2(rho)
        phi_hat = rho_hat * self._inv_k2 / self.eps0
        phi_hat[0, 0] = 0.0
        return np.fft.irfft2(phi_hat, s=(g.ncx, g.ncy))

    def field_from_potential(self, phi: np.ndarray):
        if self.derivative == "fd":
            return super().field_from_potential(phi)
        phi_hat = np.fft.rfft2(phi)
        g = self.grid
        ex = -np.fft.irfft2(1j * self._kx * phi_hat, s=(g.ncx, g.ncy))
        ey = -np.fft.irfft2(1j * self._ky * phi_hat, s=(g.ncx, g.ncy))
        return ex, ey


class JacobiPoissonSolver(PoissonSolver):
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
        super().__init__(grid, eps0)
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.omega = float(omega)
        self.last_iterations = 0

    def solve_potential(self, rho: np.ndarray) -> np.ndarray:
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
