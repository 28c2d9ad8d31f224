"""Particle substrate: storage layouts, initial conditions, sorting.

The paper represents a particle as ``(icell, dx, dy, vx, vy)`` — linear
cell index plus normalized in-cell offsets — and compares an
Array-of-Structures layout against a Structure-of-Arrays layout
(§IV-C1; SoA wins because it gives the update-positions loop unit
stride).  The SoA store lives here; the AoS layout is priced by
:mod:`repro.model`, not stored.

Initial conditions cover the paper's test cases (linear and nonlinear
Landau damping, two-stream instability), with random or quiet
(Halton low-discrepancy) starts.

Sorting is the periodic counting sort by cell index of §II/§V-B1: a
counting-sort permutation, applied out of place by the store itself.
"""

from repro.particles.storage import (
    ParticleSoA,
    ParticleStorage,
    make_storage,
    particle_fields,
)
from repro.particles.initializers import (
    CASE_NAMES,
    BeamPlasma,
    BoundedPlasma,
    BumpOnTail,
    GaussianBump,
    InitialCondition,
    LandauDamping,
    MagnetizedExB,
    TwoStream,
    UniformMaxwellian,
    halton_sequence,
    load_particles,
    make_case,
    sample_perturbed_positions,
)
from repro.particles.sorting import (
    counting_sort_permutation,
    counting_sort_permutation_reference,
)

__all__ = [
    "ParticleStorage",
    "ParticleSoA",
    "make_storage",
    "particle_fields",
    "InitialCondition",
    "LandauDamping",
    "TwoStream",
    "BumpOnTail",
    "GaussianBump",
    "UniformMaxwellian",
    "BoundedPlasma",
    "BeamPlasma",
    "MagnetizedExB",
    "CASE_NAMES",
    "make_case",
    "halton_sequence",
    "sample_perturbed_positions",
    "load_particles",
    "counting_sort_permutation",
    "counting_sort_permutation_reference",
]
