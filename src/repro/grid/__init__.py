"""Grid substrate: domain specification, field layouts, Poisson solver.

The grid quantities (electric field ``E`` and charge density ``rho``)
are stored in the paper's redundant layout (§II):
:class:`~repro.grid.fields.RedundantFields`, ``rho_1d[ncell][4]`` /
``E_1d[ncell][8]`` holding the four corner values of every cell
contiguously, indexed by a :class:`~repro.curves.base.CellOrdering`.
Four times the memory of the textbook point-indexed ``(ncx, ncy)``
arrays, but unit-stride per-particle access and a vectorizable
accumulate; the point-indexed layout is priced by :mod:`repro.model`,
not stored.

The Poisson solver (:mod:`repro.grid.poisson`) is the Fourier method of
the paper (FFTW3 there, :mod:`numpy.fft` here) over ``grid.shape`` — one
class for 2D and 3D grids — with an iterative 2D reference solver used
to cross-check it in the tests.
"""

from repro.grid.spec import GridSpec
from repro.grid.fields import (
    RedundantFields,
    corner_offsets,
)
from repro.grid.poisson import (
    SpectralPoissonSolver,
    JacobiPoissonSolver,
    laplacian_periodic,
)

__all__ = [
    "GridSpec",
    "RedundantFields",
    "corner_offsets",
    "SpectralPoissonSolver",
    "JacobiPoissonSolver",
    "laplacian_periodic",
]
