"""Tests for the smaller extensions: new diagnostics, bump-on-tail
initial condition."""

import numpy as np
import pytest

from repro.core.diagnostics import (
    momentum,
    phase_space_histogram,
)
from repro.grid import GridSpec
from repro.particles import BumpOnTail


class TestMomentum:
    def test_formula(self):
        px, py = momentum(np.array([1.0, 2.0]), np.array([-1.0, 0.5]), 2.0, 3.0)
        assert px == pytest.approx(2.0 * 3.0 * 3.0)
        assert py == pytest.approx(2.0 * 3.0 * -0.5)

    def test_conserved_in_periodic_run(self):
        from repro.core import OptimizationConfig, PICStepper
        from repro.particles import LandauDamping

        grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        st = PICStepper(
            grid, OptimizationConfig(),
            case=LandauDamping(alpha=0.1), n_particles=5000,
            dt=0.1, quiet=True, seed=None,
        )
        vx, vy = st.physical_velocities()
        p0 = momentum(vx, vy, st.particles.weight)
        st.run(20)
        vx, vy = st.physical_velocities()
        p1 = momentum(vx, vy, st.particles.weight)
        scale = st.particles.weight * st.particles.n  # typical momentum scale
        assert abs(p1[0] - p0[0]) < 1e-6 * scale
        assert abs(p1[1] - p0[1]) < 1e-6 * scale


class TestPhaseSpaceHistogram:
    def test_counts_all_particles(self):
        from repro.core import OptimizationConfig, PICStepper
        from repro.particles import TwoStream

        grid = GridSpec(16, 16, 0.0, 10 * np.pi, 0.0, 10 * np.pi)
        st = PICStepper(
            grid, OptimizationConfig(),
            case=TwoStream(), n_particles=4000, dt=0.1, quiet=True, seed=None,
        )
        h = phase_space_histogram(st, vmax=8.0, bins=(32, 16))
        assert h.shape == (32, 16)
        assert h.sum() == 4000

    def test_two_stream_is_bimodal_in_v(self):
        from repro.core import OptimizationConfig, PICStepper
        from repro.particles import TwoStream

        grid = GridSpec(16, 16, 0.0, 10 * np.pi, 0.0, 10 * np.pi)
        st = PICStepper(
            grid, OptimizationConfig(),
            case=TwoStream(v0=2.4, vth=0.1), n_particles=8000,
            dt=0.1, quiet=True, seed=None,
        )
        h = phase_space_histogram(st, vmax=5.0, bins=(16, 20))
        v_profile = h.sum(axis=0)
        mid = len(v_profile) // 2
        # hole at v=0, mass at the beams
        assert v_profile[mid - 1 : mid + 1].sum() < 0.05 * v_profile.sum()


class TestBumpOnTail:
    def test_velocity_distribution_shape(self):
        case = BumpOnTail(n_beam=0.2, v_beam=4.0, vth=1.0, vth_beam=0.3)
        g = case.default_grid()
        _, _, vx, _ = case.sample(100_000, g, None, quiet=True)
        # beam fraction
        assert np.mean(vx > 3.0) == pytest.approx(0.2, abs=0.02)
        # bulk centered at zero
        bulk = vx[vx < 2.5]
        assert np.mean(bulk) == pytest.approx(0.0, abs=0.05)

    def test_rejects_bad_beam_fraction(self):
        with pytest.raises(ValueError):
            BumpOnTail(n_beam=0.0)
        with pytest.raises(ValueError):
            BumpOnTail(n_beam=1.5)

    def test_runs_in_simulation(self):
        from repro.core import OptimizationConfig, Simulation

        case = BumpOnTail()
        grid = GridSpec(32, 8, 0.0, 8 * np.pi, 0.0, 8 * np.pi)
        sim = Simulation(
            grid, case, 10_000, OptimizationConfig(),
            dt=0.1, quiet=True, seed=None,
        )
        sim.run(10)
        assert sim.history.energy_drift() < 1e-2

    @pytest.mark.slow
    def test_instability_grows(self):
        """The gentle-beam free energy drives wave growth."""
        from repro.core import OptimizationConfig, Simulation
        from repro.core.diagnostics import growth_rate_fit

        case = BumpOnTail(n_beam=0.1, v_beam=4.0, vth=1.0, vth_beam=0.3, alpha=1e-3)
        grid = GridSpec(64, 4, 0.0, 8 * np.pi, 0.0, 8 * np.pi)
        sim = Simulation(
            grid, case, 100_000, OptimizationConfig(),
            dt=0.1, quiet=True, seed=None,
        )
        h = sim.run(300).as_arrays()
        assert h["field_energy"][-50:].mean() > 3 * h["field_energy"][1:20].mean()
