"""Particle substrate: storage layouts, initial conditions, sorting.

The paper represents a particle as ``(icell, dx, dy, vx, vy)`` — linear
cell index plus normalized in-cell offsets — and compares an
Array-of-Structures layout against a Structure-of-Arrays layout
(§IV-C1; SoA wins because it gives the update-positions loop unit
stride).  Both layouts live here behind one API.

Initial conditions cover the paper's test cases (linear and nonlinear
Landau damping, two-stream instability), with random or quiet
(Halton low-discrepancy) starts.

Sorting is the periodic counting sort by cell index of §II/§V-B1, in
out-of-place and in-place variants.
"""

from repro.particles.storage import (
    ParticleAoS,
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
    sort_in_place,
    sort_out_of_place,
)

__all__ = [
    "ParticleStorage",
    "ParticleSoA",
    "ParticleAoS",
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
    "sort_out_of_place",
    "sort_in_place",
]
