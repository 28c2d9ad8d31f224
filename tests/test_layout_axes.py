"""The layout axes are model axes: a :class:`ModelConfig` naming the
point-based field layout (``field_layout="standard"``) or AoS particles
(``particle_layout="aos"``) — the model runs it through the stepper to
harvest particle states — runs redundant rows and SoA columns and
lands on the bits it always landed on.

The digests below were recorded by the code that still executed both
layouts, where every (field, particle) layout pair printed the same
value on ``numpy`` and on ``c`` — the standard deposit was one bincount
per corner folded in corner order, which is the redundant deposit plus
its corner-order fold from +0.0, and the gather is the same left fold.
Each case takes a different ordering, push variant and unit system, so
the un-hoisted coefficients, the decoded (row-major / column-major)
coordinates, the reflecting wall and the Boris rotation are all in it.
"""

import numpy as np
import pytest

from repro.core.backends import CBackend
from repro.core.stepper import PICStepper
from repro.grid import GridSpec, RedundantFields
from repro.model.config import ModelConfig
from repro.particles import ParticleSoA, make_case
from repro.verify.golden import state_digest

#: case -> (ordering, push variant, hoisting, state_digest after 12
#: steps of 3,000 particles on a 16x16 grid, seed 3, dt 0.1, sort
#: every 5)
CASES = {
    "landau": ("morton", "bitwise", True,
               "860c76bfca2e884fdad4f4e30727605c5ed159db233c74d44bf5357e16a01187"),
    "two-stream": ("row-major", "modulo", False,
                   "2c0998e554afed0541a725b4988d8591d1599f784e24634be7248b0d979d242c"),
    "bounded-wall": ("l4d", "branch", True,
                     "5c84c50f61726058fe8375b8320ce236d274e294f0725c1edcdb8bf04d54a09a"),
    "exb-drift": ("column-major", "bitwise", False,
                  "9c2c4944bbec1b4a890a53d6ce8abca9f54d8054c10ae0838a1ce7b7ce871c1a"),
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
    ordering, push, hoisting, digest = CASES[case]
    cfg = ModelConfig(
        field_layout=field_layout, particle_layout=particle_layout,
        ordering=ordering, position_update=push, hoisting=hoisting,
        sort_period=5, backend=backend,
    )
    grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    st = PICStepper(grid, cfg, case=make_case(case), n_particles=3000,
                    dt=0.1, seed=3)
    try:
        assert type(st.fields) is RedundantFields
        assert type(st.particles) is ParticleSoA
        st.run(12)
        assert state_digest(st) == digest
    finally:
        st.close()
