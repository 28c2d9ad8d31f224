"""The layout, unit and sort axes are model axes: a :class:`ModelConfig`
naming the point-based field layout (``field_layout="standard"``), AoS
particles (``particle_layout="aos"``), un-hoisted units
(``hoisting=False``), the in-place sort (``sort_variant="in-place"``)
or a wrap (``position_update``) — the model runs it through the stepper
to harvest particle states — runs redundant rows, SoA columns, hoisted
units, the one sort and the grid's wrap, and lands on the bits of the
hoisted run.

The digests below were recorded by the code that still executed both
layouts and both unit systems, from the hoisted run, where every
(field, particle) layout pair printed the same value on ``numpy`` and
on ``c`` — the standard deposit was one bincount per corner folded in
corner order, which is the redundant deposit plus its corner-order fold
from +0.0, and the gather is the same left fold.  Each case takes a
different ordering and push variant, so the decoded (row-major /
column-major) coordinates, the reflecting wall and the Boris rotation
are all in it; the ``modulo`` and ``bitwise`` digests are the ones both
wraps gave, and the wall case's fold never read the variant.
"""

import numpy as np
import pytest

from repro.core.backends import CBackend
from repro.core.stepper import PICStepper
from repro.grid import GridSpec, RedundantFields
from repro.model.config import ModelConfig
from repro.particles import ParticleSoA, make_case
from repro.verify.golden import state_digest

#: case -> (ordering, push variant, state_digest of the hoisted run
#: after 12 steps of 3,000 particles on a 16x16 grid, seed 3, dt 0.1,
#: sort every 5).  The two-stream and E x B digests were recorded from
#: un-hoisted runs until the un-hoisted loops went; these are the same
#: runs hoisted, recorded by the parent of that change.
CASES = {
    "landau": ("morton", "bitwise",
               "860c76bfca2e884fdad4f4e30727605c5ed159db233c74d44bf5357e16a01187"),
    "two-stream": ("row-major", "modulo",
                   "b1db122dbcdf1ff3fad65332032f8f45e2104ef1aa1219bcdd0db6e785cb1e37"),
    "bounded-wall": ("l4d", "branch",
                     "5c84c50f61726058fe8375b8320ce236d274e294f0725c1edcdb8bf04d54a09a"),
    "exb-drift": ("column-major", "bitwise",
                  "18b1e6effc61ceb4d36ba111e221c23635a7ae3a7010a749a187d38e8a70e170"),
}
LAYOUTS = [("redundant", "soa"), ("standard", "soa"), ("redundant", "aos"),
           ("standard", "aos")]
BACKENDS = [
    "numpy",
    pytest.param("c", marks=pytest.mark.skipif(
        not CBackend.is_available(), reason="no C compiler")),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("field_layout,particle_layout", LAYOUTS)
@pytest.mark.parametrize("case", list(CASES))
def test_layout_named_config_keeps_its_digest(
    case, field_layout, particle_layout, backend
):
    ordering, push, digest = CASES[case]
    grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    for hoisting, sort_variant in ((True, "out-of-place"), (False, "in-place")):
        cfg = ModelConfig(
            field_layout=field_layout, particle_layout=particle_layout,
            ordering=ordering, position_update=push, hoisting=hoisting,
            sort_variant=sort_variant, sort_period=5, backend=backend,
        )
        st = PICStepper(grid, cfg, case=make_case(case), n_particles=3000,
                        dt=0.1, seed=3)
        try:
            assert type(st.fields) is RedundantFields
            assert type(st.particles) is ParticleSoA
            st.run(12)
            assert state_digest(st) == digest, hoisting
        finally:
            st.close()
