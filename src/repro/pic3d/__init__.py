"""3d3v PIC — the paper's closing outlook, built.

§VI: "formulas also exist for space-filling curves in three
dimensions.  Thus, the efficient PIC code we developed in this work
opens up the possibility to run simulations ... in a three-dimensional
physical space."  This subpackage takes that step with the same design
vocabulary as the 2D code:

* a 3D Morton (or row-major) cell ordering over a power-of-two box —
  the 2D classes of :mod:`repro.curves` over a 3D shape;
* the redundant cell-based layout generalized to 8 corners per cell:
  ``rho_1d[ncell][8]`` and ``e_1d[ncell][24]`` (3 components x 8
  corners — three cache lines per cell on a 64-byte-line machine);
* trilinear (Cloud-in-Cell) accumulate/interpolate and the branchless
  bitwise position update — the dimension-generic kernels of
  :mod:`repro.core.kernels`, over the generic
  :class:`repro.grid.fields.RedundantFields`;
* the spectral Poisson solve of
  :class:`repro.grid.poisson.SpectralPoissonSolver` over the 3D shape,
  and a leap-frog stepper (:mod:`repro.pic3d.stepper3d`) validated on
  3D Landau damping.

What this package holds is what stays per dimension: the 3D grid, the
two 3D cases and the stepper.
"""

from repro.pic3d.grid3d import GridSpec3D
from repro.pic3d.stepper3d import LandauDamping3D, PICStepper3D, TwoStream3D

__all__ = [
    "GridSpec3D",
    "PICStepper3D",
    "LandauDamping3D",
    "TwoStream3D",
]
