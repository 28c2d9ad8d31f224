"""Simulation façade tests: history recording, derived series."""

import numpy as np
import pytest

from repro.core import OptimizationConfig, Simulation
from repro.grid import GridSpec
from repro.particles import LandauDamping


@pytest.fixture
def sim():
    grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    return Simulation(
        grid,
        LandauDamping(alpha=0.05),
        3000,
        OptimizationConfig(),
        dt=0.1,
        quiet=True,
        seed=None,
    )


class TestHistory:
    def test_initial_state_recorded(self, sim):
        assert len(sim.history.times) == 1
        assert sim.history.times[0] == 0.0
        assert sim.history.field_energy[0] > 0

    def test_run_appends_per_step(self, sim):
        sim.run(5)
        assert len(sim.history.times) == 6
        np.testing.assert_allclose(np.diff(sim.history.times), 0.1)

    def test_as_arrays_keys_and_lengths(self, sim):
        sim.run(3)
        arr = sim.history.as_arrays()
        assert set(arr) == {
            "times", "field_energy", "kinetic_energy", "mode_amplitude", "total_energy",
        }
        assert all(len(v) == 4 for v in arr.values())

    def test_total_energy_sum(self, sim):
        sim.run(2)
        h = sim.history
        np.testing.assert_allclose(
            h.total_energy,
            np.asarray(h.field_energy) + np.asarray(h.kinetic_energy),
        )

    def test_energy_drift_small(self, sim):
        sim.run(20)
        assert sim.history.energy_drift() < 5e-3

    def test_mode_amplitude_positive_initially(self, sim):
        # the perturbed mode is present at t=0
        assert sim.history.mode_amplitude[0] > 1e-4

    def test_run_returns_history(self, sim):
        h = sim.run(1)
        assert h is sim.history


class TestHistoryDocument:
    def test_dict_round_trip_keeps_every_bit(self, sim):
        """The sidecar form: through JSON text and back, each float64
        of the four series is the same bit pattern; the wall-clock
        ``step_timings`` stay behind."""
        import json

        from repro.core.simulation import SimulationHistory

        sim.run(7)
        h = sim.history
        h.field_energy[3] = np.nextafter(h.field_energy[3], np.inf)
        h.mode_amplitude[5] = 5e-324  # smallest subnormal
        doc = h.as_dict()
        assert list(doc) == ["times", "field_energy", "kinetic_energy",
                             "mode_amplitude"]
        assert all(type(v) is float for series in doc.values() for v in series)
        back = SimulationHistory.from_dict(json.loads(json.dumps(doc)))
        for name in doc:
            a = np.asarray(getattr(h, name), dtype=np.float64)
            b = np.asarray(getattr(back, name), dtype=np.float64)
            assert a.tobytes() == b.tobytes(), name
        assert len(h.step_timings) == 7 and back.step_timings == []
        assert back.as_dict() == doc

    def test_from_dict_ignores_other_keys_and_needs_all_four(self):
        from repro.core.simulation import SimulationHistory

        doc = {"iteration": 1, "times": [0, 0.1], "field_energy": [1, 2],
               "kinetic_energy": [3, 4], "mode_amplitude": [5, 6]}
        h = SimulationHistory.from_dict(doc)
        assert h.times == [0.0, 0.1] and h.energy_drift() == 0.5
        del doc["mode_amplitude"]
        with pytest.raises(KeyError):
            SimulationHistory.from_dict(doc)

    def test_truncate_cuts_the_four_series_only(self, sim):
        sim.run(4)
        sim.history.truncate(2)
        assert {k: len(v) for k, v in sim.history.as_dict().items()} == {
            "times": 2, "field_energy": 2, "kinetic_energy": 2,
            "mode_amplitude": 2}
        assert len(sim.history.step_timings) == 4


class TestAccessors:
    def test_particles_and_grid_proxies(self, sim):
        assert sim.particles.n == 3000
        assert sim.grid.ncx == 16
        assert sim.timings.steps == 0

    def test_default_config(self):
        grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        s = Simulation(grid, LandauDamping(), 100, quiet=True, seed=None)
        assert s.config == OptimizationConfig()
