"""Stateful property testing of the PIC stepper (hypothesis rule machine).

Drives a live stepper through arbitrary interleavings of steps, manual
sorts, checkpoint round-trips, and diagnostics reads, asserting the
structural invariants after every action:

* particle count and total charge never change (periodic box);
* offsets stay in [0, 1], cell indices stay valid and consistent with
  the stored coordinates;
* total energy stays within a loose physical envelope;
* a checkpoint round-trip is a no-op for the observable state.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
import hypothesis.strategies as st

from repro.core import OptimizationConfig, PICStepper
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.grid import GridSpec
from repro.particles import LandauDamping

N_PARTICLES = 800


class SteppingMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmpdir = None

    @initialize(
        ordering=st.sampled_from(["row-major", "morton", "l4d"]),
        sort_period=st.sampled_from([0, 3, 10]),
    )
    def setup(self, ordering, sort_period):
        cfg = OptimizationConfig(ordering=ordering, sort_period=sort_period)
        grid = GridSpec(16, 8, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        self.stepper = PICStepper(
            grid, cfg, case=LandauDamping(alpha=0.1),
            n_particles=N_PARTICLES, dt=0.1, quiet=True, seed=None,
        )
        self.initial_energy = self._total_energy()
        self.initial_charge = self.stepper.rho_grid.sum()

    # ------------------------------------------------------------------
    def _total_energy(self):
        from repro.core.diagnostics import field_energy, kinetic_energy

        st_ = self.stepper
        vx, vy = st_.physical_velocities()
        return field_energy(
            st_.ex_grid, st_.ey_grid, st_.grid.cell_area
        ) + kinetic_energy(vx, vy, st_.particles.weight)

    # ------------------------------------------------------------------
    @rule(n=st.integers(1, 5))
    def advance(self, n):
        self.stepper.run(n)

    @rule()
    def manual_sort(self):
        self.stepper._phase_sort()

    @rule()
    def checkpoint_roundtrip(self, tmp_path_factory=None):
        import tempfile
        import pathlib

        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "state.npz"
            save_checkpoint(self.stepper, path)
            restored = load_checkpoint(path)
        np.testing.assert_array_equal(restored.ex_grid, self.stepper.ex_grid)
        self.stepper = restored

    @rule()
    def read_diagnostics(self):
        from repro.core.diagnostics import mode_amplitude

        amp = mode_amplitude(self.stepper.rho_grid, 1, 0)
        assert np.isfinite(amp) and amp >= 0

    # ------------------------------------------------------------------
    @invariant()
    def particle_count_fixed(self):
        if not hasattr(self, "stepper"):
            return
        assert self.stepper.particles.n == N_PARTICLES

    @invariant()
    def charge_conserved(self):
        if not hasattr(self, "stepper"):
            return
        np.testing.assert_allclose(
            self.stepper.rho_grid.sum(), self.initial_charge, rtol=1e-9
        )

    @invariant()
    def state_well_formed(self):
        if not hasattr(self, "stepper"):
            return
        p = self.stepper.particles
        dx = np.asarray(p.dx)
        dy = np.asarray(p.dy)
        assert dx.min() >= 0.0 and dx.max() <= 1.0
        assert dy.min() >= 0.0 and dy.max() <= 1.0
        icell = np.asarray(p.icell)
        assert icell.min() >= 0
        assert icell.max() < self.stepper.ordering.ncells_allocated
        np.testing.assert_array_equal(
            icell, self.stepper.ordering.encode(np.asarray(p.ix), np.asarray(p.iy))
        )

    @invariant()
    def energy_in_envelope(self):
        if not hasattr(self, "stepper"):
            return
        e = self._total_energy()
        assert np.isfinite(e)
        assert abs(e - self.initial_energy) < 0.05 * self.initial_energy


TestSteppingMachine = SteppingMachine.TestCase
TestSteppingMachine.settings = settings(
    max_examples=10, stateful_step_count=12, deadline=None
)
